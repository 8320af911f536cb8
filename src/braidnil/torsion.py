"""
Finite-order elements and their conjugacy in the class-2 braid quotients.

Torsion here is governed by the symmetric group minus its 2- and 3-parts: an
element of finite order has order equal to the order of its permutation, and
orders divisible by 2 or 3 never occur.  Finite-order elements are built as
theta * delta where delta is the standard mixed-sign cycle word and theta is a
level-2 correction whose orbit row sums must cancel the coefficients of
delta^n.  A cycle type is one product Theta * D: Theta holds every block's
theta, shifted to the block's offset, and D collects the blocks' cycle words
concatenated.  Each block's theta lies on its own strands, so it commutes with
the other blocks' delta, and level-2 elements commute with each other; so
Theta * D is the product of the blocks' theta * delta.  delta_power_coefficients
returns the orbit basis it reads the coefficients in, and runs once per distinct
part, so a part walks the cycle-element orbits once.  Everything here uses the
group law alone, not the engine's working state.

Conjugacy of finite-order elements is decided by cycle type alone, and a
witness is produced constructively, deciding conjugacy on the way: align the
permutations, then solve one circulant system x_{j+1} - x_j = r_j per
conjugation orbit (_solve_level), at level 1 and again at level 2.  It is
solvable exactly when the r_j sum to zero, which the finite-order hypothesis
guarantees; the free variable per orbit is pinned to x_0 = 0 at the
representative, so x is a running sum along the orbit, taken in one pass.
The witness computes one order, the sparser input's, and checks
conj(g, a) = b: the other order follows, or is decided if a stage fails.
"""

from __future__ import annotations

import math

from .core import (
    BraidWord,
    CommPart,
    DomainError,
    NilElement,
    Permutation,
    SPECTRUM_MAX_N,
    PurePart,
    _check_int,
    _check_strands,
    collect,
    conj,
    mul,
    order,
    power,
)
from .orbits import OrbitBasis, coefficients_by_orbit, orbit_basis_of, orbit_partition, part_from_orbits


# ---------------------------------------------------------------------------
# The standard cycle element and its n-th power
# ---------------------------------------------------------------------------

def delta_word(r: int, k: int, n: int) -> BraidWord:
    """The mixed-sign cycle word s_{r+k-1} .. s_{r+(k+1)/2} s_{r+(k-1)/2}^-1 .. s_{r+1}^-1.

    Requires k odd and at least 3, with the block r+1..r+k inside 1..n.  Its
    permutation is the k-cycle shifting that block, and the element it
    collects to has order k modulo the level-2 kernel.
    """
    for what, x in (("block offset", r), ("cycle length", k), ("strand count", n)):
        _check_int(what, x)
    if k < 3 or k % 2 == 0:
        raise DomainError(f"cycle length must be odd and >= 3, got {k}")
    if r < 0 or r + k > n:
        raise DomainError(f"block {r + 1}..{r + k} does not fit in 1..{n}")
    head = [(i, 1) for i in range(r + k - 1, r + (k + 1) // 2 - 1, -1)]
    tail = [(i, -1) for i in range(r + (k - 1) // 2, r, -1)]
    return BraidWord(n, tuple(head + tail))


def delta(r: int, k: int, n: int) -> NilElement:
    """Normal form of the mixed-sign cycle word."""
    return collect(delta_word(r, k, n))


def delta_power_coefficients(n: int) -> tuple[OrbitBasis, CommPart, list[int]]:
    """Level-2 coordinates of the n-th power of the cycle element, n odd.

    The power has identity permutation and zero level-1 part, and its level-2
    coefficients are constant along each conjugation orbit.  Returns the orbit
    basis orbit_partition(n) the constants are read in, the coordinates, and
    the per-orbit constants in that basis's orbit order.  For even n the power
    never lies in the level-2 kernel.
    """
    _check_strands(n, 3, "cycle element power")
    if n % 2 == 0:
        raise DomainError("for even n no power of the cycle element enters the level-2 kernel")
    e = power(delta(0, n, n), n)
    if not (e.perm.is_identity() and e.pure.is_zero()):
        raise DomainError("cycle element power left the level-2 kernel; engine inconsistency")
    basis = orbit_partition(n)
    constants = []
    for i, row in enumerate(coefficients_by_orbit(basis, e.comm)):
        if any(c != row[0] for c in row):
            raise DomainError(f"orbit {i} coefficients {row} are not constant")
        constants.append(row[0])
    return basis, e.comm, constants


# ---------------------------------------------------------------------------
# Finite-order constructions
# ---------------------------------------------------------------------------

def finite_order_element(n: int, residues: list[list[int]]) -> NilElement:
    """theta * delta for a level-2 correction theta given in orbit coordinates.

    Requires gcd(n, 6) = 1.  Row i of residues follows orbit i of
    orbit_partition(n), one integer per position along the orbit.  The result
    has order n exactly when every row sums to minus the corresponding
    coefficient of the n-th power of the cycle element; any other assignment
    gives infinite order.
    """
    _check_int("strand count", n)
    if n < 5 or math.gcd(n, 6) != 1:
        raise DomainError(f"strand count must be coprime to 6 and >= 5, got {n}")
    basis = orbit_partition(n)
    if len(residues) != basis.count or any(len(row) != len(orb) for row, orb in zip(residues, basis.orbits)):
        raise DomainError(f"residue matrix shape does not match the {basis.count} orbits of n={n}")
    theta = part_from_orbits(CommPart, basis, residues)
    return mul(NilElement(n, Permutation.identity(n), PurePart.zero(n), theta), delta(0, n, n))


def compatible_residues(n: int) -> list[list[int]]:
    """The canonical residue matrix meeting the order-n condition: first column only.

    Row i is minus the i-th constant of delta_power_coefficients(n), then zeros.
    """
    basis, _, constants = delta_power_coefficients(n)
    return [[-m] + [0] * (len(orb) - 1) for m, orb in zip(constants, basis.orbits)]


def element_with_cycle_type(n: int, parts: list[int]) -> NilElement:
    """A finite-order element whose permutation has the given cycle type.

    Parts must each be 1 (a fixed point) or coprime to 6, and sum to at most
    n; the blocks sit at consecutive offsets and the order of the result is
    the lcm of the parts.  The result is Theta * D: a block p at offset o puts
    minus each constant of delta_power_coefficients(p), read once per distinct
    p, into Theta at its orbit's representative shifted by o, and delta_word(o,
    p, n) into D.  It equals the product over the blocks of
    finite_order_element(p, compatible_residues(p)) with every strand index
    raised by o.
    """
    _check_strands(n)
    parts = list(parts)  # read once: a one-shot iterable would lose its parts to the checks
    for p in parts:
        _check_int("cycle length", p)
    if sum(parts) > n:
        raise DomainError(f"parts {parts} do not fit in {n} strands")
    theta, word, offset, read = [], BraidWord(n, ()), 0, {}
    for p in parts:
        if p != 1:
            if p < 5 or math.gcd(p, 6) != 1:
                raise DomainError(f"cycle length {p} is not realisable (must be 1 or coprime to 6)")
            basis, _, constants = read[p] if p in read else read.setdefault(p, delta_power_coefficients(p))
            theta += [((i + offset, j + offset, k + offset), -c)
                      for (i, j, k), c in zip(basis.representatives(), constants) if c]
            word *= delta_word(offset, p, n)
        offset += p
    return mul(NilElement(n, Permutation.identity(n), PurePart.zero(n), CommPart.from_map(n, theta)), collect(word))


def torsion_spectrum(n: int) -> list[int]:
    """All finite orders > 1 occurring on n strands, for 1 <= n <= SPECTRUM_MAX_N.

    An order is the lcm of a multiset of parts > 1, each coprime to 6, whose
    sum is at most n (fixed points fill the rest).  A repeated part leaves the
    lcm as it is, so a subset sum over distinct parts finds every order:
    reach[s] holds the lcms of the sets of parts summing to s.
    """
    _check_strands(n)
    if n > SPECTRUM_MAX_N:
        raise DomainError(f"torsion spectrum is bounded to n <= {SPECTRUM_MAX_N}, got n={n}")
    reach: list[set[int]] = [{1}] + [set() for _ in range(n)]
    for p in range(5, n + 1):
        if math.gcd(p, 6) == 1:
            for s in range(n, p - 1, -1):
                reach[s] |= {math.lcm(x, p) for x in reach[s - p]}
    return sorted(set().union(*reach[1:]))


# ---------------------------------------------------------------------------
# Conjugacy: decision and explicit witnesses
# ---------------------------------------------------------------------------

def conjugacy_decide(a: NilElement, b: NilElement) -> bool:
    """Whether two finite-order elements are conjugate: iff equal cycle types.

    Raises on infinite-order input, where cycle type does not decide.  The
    criterion is proved for n >= 5; smaller n only carry the identity as a
    finite-order element, so the answer is still trustworthy there.
    """
    if a.n != b.n:
        raise DomainError("elements live on different strand counts")
    if order(a) is None or order(b) is None:
        raise DomainError("conjugacy decision requires finite-order inputs")
    return a.perm.cycle_type() == b.perm.cycle_type()


def conjugating_permutation(pa: Permutation, pb: Permutation) -> Permutation:
    """A deterministic rho with rho * pa * rho^-1 = pb (left-to-right products).

    Cycles of both permutations are matched in (length, minimum) order and
    mapped pointwise from the cycles of pb onto the cycles of pa.
    """
    if pa.cycle_type() != pb.cycle_type():
        raise DomainError("permutations have different cycle types")
    key = lambda c: (len(c), c[0])
    image = [0] * pa.n
    for ca, cb in zip(sorted(pa.cycles(), key=key), sorted(pb.cycles(), key=key)):
        for u, v in zip(cb, ca):
            image[u - 1] = v
    return Permutation(tuple(image))


def _solve_level(perm: Permutation, want: PurePart | CommPart, have: PurePart | CommPart):
    """The part x solving x_{j+1} - x_j = r_j, x_0 = 0, along each orbit of conjugation by permutation perm.

    r is want - have, signed along the orbit, and x its running sum, one pass
    per orbit; each key lies in one orbit, so x's nonzero cells, sorted once,
    are the part.  The differences around an orbit cycle sum to zero, so a
    nonzero row sum is the obstruction.  It raises DomainError naming the
    level and either the orbit and its row sum or the orbit that closes with sign -1.
    """
    level = f"level {want.arity - 1} ({want.noun} orbits)"
    try:
        basis = orbit_basis_of(perm, type(want))
    except DomainError as err:
        raise DomainError(f"witness {level} failed: {err}") from err
    r = want.as_map()
    for row in have.entries:
        r[row[:-1]] = r.get(row[:-1], 0) - row[-1]
    rows = []
    for i, orbit in enumerate(basis.orbits):
        x = 0
        for key, s in orbit:
            if x:
                rows.append(key + (s * x,))
            x += s * r.get(key, 0)
        if x:
            raise DomainError(f"witness {level} failed: orbit {i} at {orbit[0][0]} has row sum {x}")
    rows.sort()
    return type(want)(want.n, tuple(rows))


def conjugacy_witness(a: NilElement, b: NilElement) -> NilElement:
    """An explicit g with conj(g, a) = b.

    Raises DomainError unless conjugacy_decide(a, b) holds, so a caller
    needs no separate decision.  Only the sparser input's order is checked
    up front; the other's follows from the verified conjugation, or is
    decided when a stage fails.  Steps: (1) conjugate a by the lift of a
    permutation aligning the cycles; (2) match the level-1 parts by solving
    circulant systems over the pair orbits of conjugation by b; (3) match the
    level-2 parts likewise over its signed triple orbits; (4) verify g by
    conj(g, a) = b.  A stage that fails raises DomainError naming it.
    """
    if a.n != b.n:
        raise DomainError("elements live on different strand counts")
    first, second = sorted((a, b), key=lambda x: len(x.pure.entries) + len(x.comm.entries))
    if order(first) is None:
        raise DomainError("conjugacy decision requires finite-order inputs")
    try:
        if a.perm.cycle_type() != b.perm.cycle_type():
            raise DomainError("witness requires conjugate inputs (equal cycle types)")
        n = a.n
        zero_p, zero_c = PurePart.zero(n), CommPart.zero(n)

        # (1) permutation alignment by a lifted conjugator
        g1 = NilElement(n, conjugating_permutation(a.perm, b.perm), zero_p, zero_c)
        a1 = conj(g1, a)
        if a1.perm != b.perm:
            raise DomainError(f"witness permutation alignment failed: got {list(a1.perm.image)}, want {list(b.perm.image)}")

        # (2) level-1 circulant systems over the pair orbits of conjugation by b, where every sign is +1
        g2 = NilElement(n, Permutation.identity(n), _solve_level(b.perm, b.pure, a1.pure), zero_c)

        # (3) level-2 circulant systems over the signed triple orbits of conjugation by b, solved for g3 = (id, 0, w)
        w = _solve_level(b.perm, b.comm, conj(g2, a1).comm)

        # (4) g = g3 g2 g1, where g3 g2 is the normal form (id, v, w) since level 2 is central in the pure part;
        # conj(g, a) runs on g's state, without building g's inverse
        g = mul(NilElement(n, Permutation.identity(n), g2.pure, w), g1)
        if conj(g, a) != b:
            raise DomainError("witness final check failed: conj(g, a) differs from b")
    except DomainError:
        if order(second) is None:
            raise DomainError("conjugacy decision requires finite-order inputs") from None
        raise
    return g
