"""
Closed-form invariants: graded ranks, dimensions, and holonomy matrices.

The rank of the level-q graded piece of the pure-strand lattice is the
necklace-style Moebius sum (1/q) * sum_{d | q*} mu(d) * S_{q/d}(n), where q*
is the radical of q and S_r(n) = 1^r + ... + (n-1)^r.  The division is always
exact and is asserted.  Power sums are evaluated by direct big-integer
summation; no closed-form polynomials are transcribed.

The Hirsch length of the class-(k-1) quotient, which is the dimension of the
ambient almost-crystallographic group, is the sum of the first k-1 ranks.

Holonomy matrices record the conjugation action of an element on the two
graded lattices, core.conjugation_step of each basis key: all signs are +1 on
pair coordinates, and the triple coordinates carry the signs of the sort.
Both blocks are stored as signed permutations, O(C(n,3)) integers rather
than O(C(n,3)^2) matrix cells; the dense matrix exists only as
combined_matrix's view, and the CLI writes its text rows straight from the
permutations.  Determinant +1 on every generator of a finite quotient group
is the orientability criterion for the corresponding infra-nilmanifold.
Bases are lexicographic, except that an explicit pair order may be passed
(the 3-strand regression uses the ordering of the source matrices).
"""

from __future__ import annotations

import math
from itertools import accumulate

from .core import (
    CommPart,
    DomainError,
    NilElement,
    Pair,
    Permutation,
    PurePart,
    Triple,
    _check_int,
    _check_strands,
    _trusted,
    _Value,
    conjugation_step,
)


# ---------------------------------------------------------------------------
# Graded ranks and dimensions
# ---------------------------------------------------------------------------

def power_sum(r: int, n: int) -> int:
    """S_r(n) = sum of j^r for 1 <= j <= n-1."""
    return sum(j ** r for j in range(1, n))


def _squarefree_divisors_with_mu(q: int) -> list[tuple[int, int]]:
    """Pairs (d, mu(d)) over the divisors of the radical of q."""
    primes = []
    m = q
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    out = [(1, 1)]
    for p in primes:
        out += [(d * p, -mu) for d, mu in out]
    return out


def lcs_rank(n: int, q: int) -> int:
    """Rank of the level-q graded piece of the pure lattice on n strands.

    (1/q) * sum over squarefree d dividing q of mu(d) * S_{q/d}(n); the sum is
    always divisible by q, and non-integrality raises.
    """
    _check_int("n", n)
    _check_int("q", q)
    if n < 2 or q < 1:
        raise DomainError(f"need n >= 2 and q >= 1, got n={n}, q={q}")
    total = sum(mu * power_sum(q // d, n) for d, mu in _squarefree_divisors_with_mu(q))
    quotient, remainder = divmod(total, q)
    if remainder:
        raise DomainError(f"Moebius sum {total} not divisible by {q} at n={n}")
    return quotient


def hirsch_length(n: int, k: int) -> int:
    """Dimension of the class-(k-1) quotient: the sum of the first k-1 ranks.

    For k = 3 this is C(n,2) + C(n,3); for k = 4 add 2*C(n+1,4).
    """
    _check_int("n", n)
    _check_int("k", k)
    if n < 2 or k < 2:
        raise DomainError(f"need n >= 2 and k >= 2, got n={n}, k={k}")
    return sum(lcs_rank(n, q) for q in range(1, k))


class RankTable(_Value):
    """Grid of dimensions indexed by (n, k)."""

    entries: tuple[tuple[int, int, int], ...]  # (n, k, dim), sorted by (n, k)

    def entry(self, n: int, k: int) -> int:
        for en, ek, d in self.entries:
            if (en, ek) == (n, k):
                return d
        raise DomainError(f"no entry for (n={n}, k={k})")

    def to_rows(self) -> list[dict]:
        return [{"n": n, "k": k, "dim": d} for n, k, d in self.entries]

    def render_text(self) -> str:
        """Aligned grid, k down the side and n across the top."""
        ns = sorted({n for n, _, _ in self.entries})
        ks = sorted({k for _, k, _ in self.entries})
        grid = {(n, k): d for n, k, d in self.entries}
        width = max(len(str(d)) for d in grid.values())
        width = max(width, max(len(str(n)) for n in ns))
        head = "k\\n " + " ".join(f"{n:>{width}}" for n in ns)
        lines = [head]
        for k in ks:
            lines.append(f"{k:<4}" + " ".join(f"{grid[(n, k)]:>{width}}" for n in ns))
        return "\n".join(lines)


def dimension_table(n_max: int, k_max: int) -> RankTable:
    """Dimensions for 3 <= n <= n_max and 2 <= k <= k_max; each n is a running sum of its ranks."""
    _check_int("n_max", n_max)
    _check_int("k_max", k_max)
    if n_max < 3 or k_max < 2:
        raise DomainError("table bounds must be at least n=3, k=2")
    return RankTable(tuple(
        (n, k, dim)
        for n in range(3, n_max + 1)
        for k, dim in zip(range(2, k_max + 1), accumulate(lcs_rank(n, q) for q in range(1, k_max)))
    ))


# ---------------------------------------------------------------------------
# Holonomy matrices and orientability
# ---------------------------------------------------------------------------

class HolonomyMatrix(_Value):
    """Graded conjugation action of one element, in column-is-image convention.

    Each block is a signed permutation matrix, stored by column: the pair
    block has its one nonzero entry, 1, of column c in row pair_rows[c]; the
    triple block has triple_signs[c] in row triple_rows[c].  det is the
    product of the two block determinants, always +1 or -1.  The dense matrix
    is built only by combined_matrix.
    """

    n: int
    pair_basis: tuple[Pair, ...]
    triple_basis: tuple[Triple, ...]
    pair_rows: tuple[int, ...]
    triple_rows: tuple[int, ...]
    triple_signs: tuple[int, ...]
    det: int


def holonomy_matrix(g: NilElement, pair_basis: tuple[Pair, ...] | None = None) -> HolonomyMatrix:
    """The graded conjugation action of g, which only depends on its permutation.

    The triple basis is the canonical lex order.  A pair basis order, if given,
    must be a rearrangement of the canonical pair keys; anything else raises
    DomainError.
    """
    if pair_basis is not None:
        try:  # a non-iterable, or keys that are not tuples of ints, raise TypeError on the way
            pair_basis = tuple(pair_basis)
            valid = sorted(pair_basis) == list(PurePart.keys(g.n)) \
                and all(type(x) is int for key in pair_basis for x in key)
        except TypeError:
            valid = False
        if not valid:
            raise DomainError("the pair basis order must enumerate every pair exactly once")
    blocks, det = [], 1
    for cls, basis in ((PurePart, pair_basis), (CommPart, None)):
        basis = tuple(cls.keys(g.n)) if basis is None else basis
        idx = {key: i for i, key in enumerate(basis)}
        images = list(map(conjugation_step(g.perm, cls), basis))
        rows, signs = tuple(idx[key] for key, _ in images), tuple(s for _, s in images)
        perm = _trusted(Permutation, image=tuple(r + 1 for r in rows))  # a bijection by construction
        det *= (-1) ** (len(rows) - len(perm.cycles())) * math.prod(signs)  # sign: (-1)^(m - #cycles)
        blocks.append((basis, rows, signs))
    (pair_basis, pair_rows, _), (triple_basis, triple_rows, triple_signs) = blocks
    return HolonomyMatrix(g.n, pair_basis, triple_basis, pair_rows, triple_rows, triple_signs, det)


def combined_matrix(h: HolonomyMatrix) -> tuple[tuple[int, ...], ...]:
    """Block-diagonal matrix on pair coordinates followed by triple coordinates."""
    p, t = len(h.pair_basis), len(h.triple_basis)
    out = [[0] * (p + t) for _ in range(p + t)]
    for col, row in enumerate(h.pair_rows):
        out[row][col] = 1
    for col, (row, sign) in enumerate(zip(h.triple_rows, h.triple_signs)):
        out[p + row][p + col] = sign
    return tuple(tuple(r) for r in out)


def orientability_check(n: int, generators: list[NilElement]) -> bool:
    """Whether every generator acts with determinant +1 on the graded lattice."""
    _check_strands(n)
    for g in generators:
        if g.n != n:
            raise DomainError("generator strand count mismatch")
        if holonomy_matrix(g).det != 1:
            return False
    return True
