"""Shared test helpers: random words, the Hypothesis element strategy, call
counters, the independent oracles, and the helpers only tests read
(expression formatting, Coxeter length, the closed-form orbit transversal).

The oracles are the permutation of a word and the strand-tracking normal form
at level 1, the conjugation rules of one generator on one pair or triple, the
eager letter-by-letter fold built on them, which relabels every graded entry
on each letter, the bracket table of two pure generators with the pure-block
merge that scans every resident against it, power by plain squaring, and the
dense holonomy matrices with the CLI text they encode to.  The fold and merge
oracles keep level 1 as a pair dict; pair_dict and adjacency convert to and
from the strand adjacency of the group law.

With the CI environment variable set, Hypothesis runs derandomized and
without its example database, so a failing CI run repeats exactly; per-test
settings still apply.
"""

from __future__ import annotations

import json
import math
import os
import random
from itertools import combinations
from typing import Iterable

from hypothesis import settings
from hypothesis import strategies as st

from braidnil.core import (
    BraidWord,
    CommPart,
    NilElement,
    Pair,
    Permutation,
    PurePart,
    Triple,
    collect,
    conjugation_map,
    identity,
    inv,
    mul,
    pairs,
    triples,
)

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def random_word(rng: random.Random, n: int, max_len: int = 40) -> BraidWord:
    length = rng.randint(0, max_len)
    return BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)))


@st.composite
def elements(draw, n=None, pure_only=False):
    """A collected random word times random graded noise; with pure_only, the noise alone (q = 1)."""
    n = draw(st.integers(1, 9)) if n is None else n
    keys = list(pairs(n)) + list(triples(n))
    noise = draw(st.dictionaries(st.sampled_from(keys), st.integers(-3, 3), max_size=12)) if keys else {}
    graded = NilElement(n, Permutation.identity(n),
                        PurePart.from_map(n, {k: e for k, e in noise.items() if len(k) == 2}),
                        CommPart.from_map(n, {k: e for k, e in noise.items() if len(k) == 3}))
    if pure_only or n == 1:
        return graded
    letters = draw(st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=3 * n))
    return mul(collect(BraidWord(n, tuple(letters))), graded)


def counted(monkeypatch, owner, name):
    """Replace owner.name (a module function or a static method) by a wrapper counting its calls.

    Returns the one-cell list holding the running count.
    """
    calls = [0]
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    static = isinstance(vars(owner).get(name), staticmethod)
    monkeypatch.setattr(owner, name, staticmethod(wrapper) if static else wrapper)
    return calls


def pair_dict(nbr: list[dict[int, int]]) -> dict[Pair, int]:
    """The pure exponents of a strand adjacency as the pair dict the oracles read."""
    return {(u, v): e for u, row in enumerate(nbr) for v, e in row.items() if u < v}


def adjacency(n: int, pure: dict[Pair, int]) -> list[dict[int, int]]:
    """The strand adjacency of a pair dict: nbr[u][v] = nbr[v][u] = pure[(u, v)], row 0 empty."""
    nbr: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for (u, v), e in pure.items():
        nbr[u][v] = nbr[v][u] = e
    return nbr


def word_permutation(word: BraidWord) -> Permutation:
    """The permutation of a word: the product of its letters' transpositions in reading order."""
    image = list(range(1, word.n + 1))
    for k, _ in word.letters:
        i, j = image.index(k), image.index(k + 1)
        image[i], image[j] = k + 1, k
    return Permutation(tuple(image))


def inversions(image) -> int:
    """Coxeter length of a permutation image: the number of out-of-order pairs."""
    return sum(1 for i, j in combinations(range(len(image)), 2) if image[i] > image[j])


def satisfies(targets: tuple[int, ...], residues: list[list[int]]) -> bool:
    """Whether every residue row sums to its orbit's target in the order-n system."""
    return len(residues) == len(targets) and all(sum(row) == target for row, target in zip(residues, targets))


def format_terms(terms: tuple) -> str:
    """Canonical text for a parsed expression; parse(format(e)) gives the same element."""
    chunks = []
    for atom, exponent in terms:
        kind = atom[0]
        if kind == "gen":
            body = f"s{atom[1]}"
            if atom[2] == -1:
                exponent = -exponent
        elif kind == "pure":
            body = f"A[{atom[1]},{atom[2]}]"
        elif kind == "comm":
            body = f"a[{atom[1]},{atom[2]},{atom[3]}]"
        else:
            body = f"({format_terms(atom[1])})"
        chunks.append(body if exponent == 1 else f"{body}^{exponent}")
    return " ".join(chunks)


def standard_transversal(n: int) -> list[Triple]:
    """The closed-form transversal of the cycle-element orbits.

    With n = 3q + r the set consists of the triples (1, j, k) for
    2 <= j <= q+1 (q when r = 0) and 2j-1 <= k <= n-(j-1), plus the
    equally-spaced triple (1, n/3+1, 2n/3+1) when r = 0.
    """
    q, r = divmod(n, 3)
    top = q + 1 if r != 0 else q
    out = [(1, j, k) for j in range(2, top + 1) for k in range(2 * j - 1, n - j + 2)]
    if r == 0:
        out.append((1, n // 3 + 1, 2 * n // 3 + 1))
    return out


def strand_tracking_normal_form(word: BraidWord):
    """Independent level-1 oracle: permutation and pure exponents by direct strand tracking.

    Walks the diagram once, recording the signed crossing count between each
    pair of strands (labelled by their starting positions).  The word equals
    section(perm) * pure-part, the section contributes exactly one positive
    crossing to each pair it inverts, and a unit pure exponent contributes two
    crossings; solving for the exponents gives the expected pure part.
    """
    n = word.n
    line = list(range(1, n + 1))  # strand id occupying each position
    cross: dict[tuple[int, int], int] = {}
    for k, eps in word.letters:
        u, v = line[k - 1], line[k]
        key = (u, v) if u < v else (v, u)
        cross[key] = cross.get(key, 0) + eps
        line[k - 1], line[k] = v, u
    final_pos = {strand: pos + 1 for pos, strand in enumerate(line)}
    perm_image = tuple(final_pos[i] for i in range(1, n + 1))
    inv_of = {v: i + 1 for i, v in enumerate(perm_image)}
    pure: dict[tuple[int, int], int] = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            i, j = inv_of[a], inv_of[b]
            c = cross.get((min(i, j), max(i, j)), 0)
            if i > j:
                c -= 1  # the positive section crossing on an inverted pair
            assert c % 2 == 0, "crossing parity must match the section"
            if c:
                pure[(a, b)] = c // 2
    return perm_image, pure


def _pair_action(i: int, j: int, k: int, eps: int):
    """Conjugate the pure generator A[i,j] by s_k^eps: returns ((i',j'), correction).

    The correction is a single (triple, sign) level-2 coefficient or None, so
    s_k^eps A[i,j] s_k^-eps = A[i',j'] * a[triple]^sign.  The eps=+1 cases are
    the displayed rules of the group action; the eps=-1 cases are derived from
    them and verified by the round-trip identity in the test suite.
    """
    if eps == 1:
        if j == k + 1:
            if i < k:
                return (i, k), ((i, k, k + 1), -1)
        elif i == k + 1:
            return (k, j), ((k, k + 1, j), -1)
    else:
        if j == k:
            if i < k:
                return (i, k + 1), ((i, k, k + 1), -1)
        elif i == k and j > k + 1:
            return (k + 1, j), ((k, k + 1, j), -1)
    # plain index swap, no level-2 correction
    a = k + 1 if i == k else k if i == k + 1 else i
    b = k + 1 if j == k else k if j == k + 1 else j
    return ((a, b) if a < b else (b, a)), None


def _triple_action(t: Triple, k: int) -> tuple[Triple, int]:
    """Conjugate the basis triple by s_k^±1 (a signed involution, direction-free).

    The image is the sorted index swap; the sign is -1 exactly when both k and
    k+1 lie in the triple, which is when the swap inverts two of its entries.
    """
    a, b, c = t
    in_k = a == k or b == k or c == k
    in_k1 = a == k + 1 or b == k + 1 or c == k + 1
    if in_k and in_k1:
        return t, -1
    if in_k:
        x = k + 1
    elif in_k1:
        x = k
    else:
        return t, 1
    rest = [y for y in t if y != k and y != k + 1]
    lo, hi = rest
    if x < lo:
        return (x, lo, hi), 1
    if x < hi:
        return (lo, x, hi), 1
    return (lo, hi, x), 1


def eager_fold(image: list[int], pure: dict[Pair, int], comm: dict[Triple, int],
               k: int, eps: int) -> list[int]:
    """Multiply the state (image, pure, comm) by s_k^eps on the right, in place.

    Dict-valued parts are mutated; the new one-line image is returned.  The
    letter first conjugates both graded parts through s_k^-eps (moving them to
    the right of the new letter), then either is absorbed into the section or
    deposits A[k,k+1]^eps at the head of the pure product, with the class-2
    reordering corrections [X^a, Y^b] = a*b*[X, Y] in both steps.
    """
    n = len(image)
    # conjugate level-2 coordinates: a signed relabelling, same in both directions
    if comm:
        relabelled = {}
        for t, c in comm.items():
            t2, s = _triple_action(t, k)
            relabelled[t2] = s * c
        comm.clear()
        comm.update(relabelled)
    # conjugate level-1 coordinates through s_k^-eps, collecting corrections
    if pure:
        eps_conj = -eps
        new_pure = {}
        for (i, j), e in pure.items():
            p2, corr = _pair_action(i, j, k, eps_conj)
            new_pure[p2] = e
            if corr is not None:
                t, s = corr
                c = comm.get(t, 0) + s * e
                if c:
                    comm[t] = c
                else:
                    comm.pop(t, None)
        # restoring lex order swaps exactly the blocks (i,k)<->(i,k+1) and
        # (k,x)<->(k+1,x); only same-index pairs meet a nonzero bracket, and
        # both families contribute +1 on the shared triple
        for i in range(1, k):
            e1 = pure.get((i, k), 0)
            if e1:
                e2 = pure.get((i, k + 1), 0)
                if e2:
                    t = (i, k, k + 1)
                    c = comm.get(t, 0) + e1 * e2
                    if c:
                        comm[t] = c
                    else:
                        comm.pop(t, None)
        for x in range(k + 2, n + 1):
            e1 = pure.get((k, x), 0)
            if e1:
                e2 = pure.get((k + 1, x), 0)
                if e2:
                    t = (k, k + 1, x)
                    c = comm.get(t, 0) + e1 * e2
                    if c:
                        comm[t] = c
                    else:
                        comm.pop(t, None)
        pure.clear()
        pure.update(new_pure)
    # section dichotomy: absorb the letter when it extends the reduced word
    pos_k = image.index(k)
    pos_k1 = image.index(k + 1)
    length_up = pos_k < pos_k1
    image[pos_k], image[pos_k1] = k + 1, k
    if (eps == 1) != length_up:
        # merge A[k,k+1]^eps at the head of the lex-ordered pure product
        for i in range(1, k):
            e = pure.get((i, k), 0)
            if e:
                t = (i, k, k + 1)
                c = comm.get(t, 0) - eps * e
                if c:
                    comm[t] = c
                else:
                    comm.pop(t, None)
            e = pure.get((i, k + 1), 0)
            if e:
                t = (i, k, k + 1)
                c = comm.get(t, 0) + eps * e
                if c:
                    comm[t] = c
                else:
                    comm.pop(t, None)
        c = pure.get((k, k + 1), 0) + eps
        if c:
            pure[(k, k + 1)] = c
        else:
            del pure[(k, k + 1)]
    return image


def _bracket(p: Pair, q: Pair):
    """Coordinates of [A_p, A_q] at level 2: (triple, sign), or None when it vanishes.

    Nonzero only when p and q share exactly one index.  With shared index s and
    remaining indices u (from p) and v (from q), the sign is +1 for
    (s middle, u < v) and (s extreme, u > v), else -1; the triple is sorted
    {s, u, v}.  This encodes [A_{i,j}, A_{j,k}] = a_{i,j,k} together with
    [A_{i,j}, A_{i,k}] = [A_{i,k}, A_{j,k}] = a_{i,j,k}^-1 and antisymmetry.
    """
    if p[0] in q:
        s = p[0]
        u = p[1]
    elif p[1] in q:
        s = p[1]
        u = p[0]
    else:
        return None
    v = q[0] + q[1] - s
    if v == u or v == s:
        return None  # shares both indices: [A_p, A_p^m] = 1
    a, b, c = sorted((s, u, v))
    if s == b:
        sign = 1 if u < v else -1
    else:
        sign = 1 if u > v else -1
    return (a, b, c), sign


def scan_merge_pure_block(pure: dict[Pair, int], comm: dict[Triple, int],
                           block: Iterable[tuple[Pair, int]]) -> None:
    """Append a lex-ordered block of pure factors and restore lex order.

    Each incoming factor q moves left past every resident factor p > q,
    producing the correction e_p * e_q * [A_p, A_q].
    """
    incoming = list(block)
    for q, eq in incoming:
        if not eq:
            continue
        for p, ep in pure.items():
            if p > q and ep:
                hit = _bracket(p, q)
                if hit is not None:
                    t, s = hit
                    c = comm.get(t, 0) + s * ep * eq
                    if c:
                        comm[t] = c
                    else:
                        comm.pop(t, None)
        c = pure.get(q, 0) + eq
        if c:
            pure[q] = c
        else:
            pure.pop(q, None)


def square_power(a: NilElement, m: int) -> NilElement:
    """Exponentiation by squaring; negative powers go through inv."""
    if m < 0:
        return square_power(inv(a), -m)
    acc = identity(a.n)
    base = a
    while m:
        if m & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        m >>= 1
    return acc


def _inversion_sign(perm: list[int]) -> int:
    return -1 if inversions(perm) % 2 else 1


def dense_holonomy(g: NilElement, pair_basis=None, triple_basis=None) -> dict:
    """Dense oracle for the holonomy action: the CLI's JSON document as a dict.

    block1 and block2 are the full matrices, in column-is-image convention,
    filled from the conjugation maps; det is the sign of each block's
    permutation, by inversion count, times the product of the triple signs.
    """
    n = g.n
    pair_basis = list(pairs(n)) if pair_basis is None else list(pair_basis)
    triple_basis = list(triples(n)) if triple_basis is None else list(triple_basis)
    pidx = {p: i for i, p in enumerate(pair_basis)}
    tidx = {t: i for i, t in enumerate(triple_basis)}
    pmap = conjugation_map(g.perm, PurePart)
    m1 = [[0] * len(pair_basis) for _ in pair_basis]
    perm1 = [0] * len(pair_basis)
    for p, col in pidx.items():
        row = pidx[pmap[p][0]]
        m1[row][col] = 1
        perm1[col] = row
    cmap = conjugation_map(g.perm, CommPart)
    m2 = [[0] * len(triple_basis) for _ in triple_basis]
    perm2 = [0] * len(triple_basis)
    for t, col in tidx.items():
        u, s = cmap[t]
        row = tidx[u]
        m2[row][col] = s
        perm2[col] = row
    signs = math.prod(cmap[t][1] for t in triple_basis)
    return {
        "n": n,
        "pair_basis": [list(p) for p in pair_basis],
        "triple_basis": [list(t) for t in triple_basis],
        "block1": m1,
        "block2": m2,
        "det": _inversion_sign(perm1) * _inversion_sign(perm2) * signs,
    }


def holonomy_json(doc: dict) -> str:
    """The canonical JSON line the CLI prints for a dense holonomy document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def holonomy_pretty(doc: dict) -> str:
    """The --pretty text: the block-diagonal matrix, right-aligned cells, then det."""
    p, t = len(doc["block1"]), len(doc["block2"])
    rows = [r + [0] * t for r in doc["block1"]] + [[0] * p + r for r in doc["block2"]]
    return "".join(" ".join(f"{x:>2}" for x in r) + "\n" for r in rows) + f"det = {doc['det']}\n"
