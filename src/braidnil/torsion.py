"""
Finite-order elements and their conjugacy in the class-2 braid quotients.

Torsion here is governed by the symmetric group minus its 2- and 3-parts: an
element of finite order has order equal to the order of its permutation, and
orders divisible by 2 or 3 never occur.  Finite-order elements are built as
theta * delta where delta is the standard mixed-sign cycle word and theta is a
level-2 correction whose orbit row sums must cancel the coefficients of
delta^n; blocks of such elements realise arbitrary admissible cycle types.
delta_power_coefficients returns the orbit basis it reads those coefficients
in, so a construction walks the cycle-element orbits once, for both uses.

Conjugacy of finite-order elements is decided by cycle type alone, and a
witness is produced constructively, deciding conjugacy on the way: align the
permutations, then solve one circulant system x_{j+1} - x_j = r_j per
conjugation orbit (_solve_level), at level 1 and again at level 2.  It is
solvable exactly when the r_j sum to zero, which the finite-order hypothesis
guarantees; the free variable per orbit is pinned to x_0 = 0 at the
representative.  The witness computes one order, the sparser input's, and
checks g a = b g: the other order follows, or is decided if a stage fails.
"""

from __future__ import annotations

import math
from itertools import accumulate

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
    _freeze,
    _thaw,
    _times,
    _trusted,
    collect,
    conj,
    identity,
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
    _check_int("strand count", n)
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
    return _theta_delta(orbit_partition(n), residues)


def _theta_delta(basis: OrbitBasis, residues: list[list[int]]) -> NilElement:
    """theta * delta on basis.n strands, with theta read in the orbit layout of basis = orbit_partition(n)."""
    n = basis.n
    if len(residues) != basis.count or any(len(row) != len(orb) for row, orb in zip(residues, basis.orbits)):
        raise DomainError(f"residue matrix shape does not match the {basis.count} orbits of n={n}")
    theta = part_from_orbits(CommPart, basis, residues)
    return mul(NilElement(n, Permutation.identity(n), PurePart.zero(n), theta), delta(0, n, n))


def _compatible(n: int) -> tuple[OrbitBasis, list[list[int]]]:
    """orbit_partition(n) and the first-column residue matrix in its layout."""
    basis, _, constants = delta_power_coefficients(n)
    return basis, [[-m] + [0] * (len(orb) - 1) for m, orb in zip(constants, basis.orbits)]


def compatible_residues(n: int) -> list[list[int]]:
    """The canonical residue matrix meeting the order-n condition: first column only.

    Row i is minus the i-th constant of delta_power_coefficients(n), then zeros.
    """
    return _compatible(n)[1]


def shift_embed(elem: NilElement, offset: int, n: int) -> NilElement:
    """Translate an element on n0 strands by offset into the group on n strands.

    The block inclusion sending generator i to generator i+offset is injective
    and preserves orders; on normal forms it translates every strand index.
    """
    _check_int("offset", offset)
    _check_int("strand count", n)
    n0 = elem.n
    if offset < 0 or offset + n0 > n:
        raise DomainError(f"cannot shift {n0} strands by {offset} into {n}")
    image = list(range(1, n + 1))
    for i, v in enumerate(elem.perm.image):
        image[offset + i] = offset + v
    # translating every index keeps the keys sorted and lex-ordered, so the parts stay canonical
    pure = tuple((i + offset, j + offset, e) for i, j, e in elem.pure.entries)
    comm = tuple((i + offset, j + offset, k + offset, c) for i, j, k, c in elem.comm.entries)
    return _trusted(NilElement, n=n, perm=Permutation(tuple(image)),
                    pure=_trusted(PurePart, n=n, entries=pure), comm=_trusted(CommPart, n=n, entries=comm))


def element_with_cycle_type(n: int, parts: list[int]) -> NilElement:
    """A finite-order element whose permutation has the given cycle type.

    Parts must each be 1 (a fixed point) or coprime to 6, and sum to at most
    n; the blocks sit at consecutive offsets and the order of the result is
    the lcm of the parts.
    """
    _check_strands(n)
    parts = list(parts)  # read once: a one-shot iterable would lose its parts to the checks
    for p in parts:
        _check_int("cycle length", p)
    if sum(parts) > n:
        raise DomainError(f"parts {parts} do not fit in {n} strands")
    state = _thaw(identity(n))
    offset = 0
    for p in parts:
        if p == 1:
            offset += 1
            continue
        if p < 5 or math.gcd(p, 6) != 1:
            raise DomainError(f"cycle length {p} is not realisable (must be 1 or coprime to 6)")
        block = _theta_delta(*_compatible(p))  # one orbit basis for the constants and theta
        state = _times(*state, shift_embed(block, offset, n))
        offset += p
    return _freeze(n, *state)


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

    Rows r and x are the orbit layouts of want - have and of the result, so x
    is the prefix sum of r.  The differences around an orbit cycle sum to zero,
    so a nonzero row sum is the obstruction.  It raises DomainError naming the
    level and either the orbit and its row sum or the orbit that closes with sign -1.
    """
    level = f"level {want.arity - 1} ({want.noun} orbits)"
    try:
        basis = orbit_basis_of(perm, type(want))
    except DomainError as err:
        raise DomainError(f"witness {level} failed: {err}") from err
    xs = []
    for i, (w, h) in enumerate(zip(coefficients_by_orbit(basis, want), coefficients_by_orbit(basis, have))):
        r = [u - v for u, v in zip(w, h)]
        if sum(r):
            raise DomainError(f"witness {level} failed: orbit {i} at {basis.orbits[i][0][0]} has row sum {sum(r)}")
        xs.append(list(accumulate(r[:-1], initial=0)))
    return part_from_orbits(type(want), basis, xs)


def conjugacy_witness(a: NilElement, b: NilElement) -> NilElement:
    """An explicit g with conj(g, a) = b.

    Raises DomainError unless conjugacy_decide(a, b) holds, so a caller
    needs no separate decision.  Only the sparser input's order is checked
    up front; the other's follows from the verified conjugation, or is
    decided when a stage fails.  Steps: (1) conjugate a by the lift of a
    permutation aligning the cycles; (2) match the level-1 parts by solving
    circulant systems over the pair orbits of conjugation by b; (3) match the
    level-2 parts likewise over its signed triple orbits; (4) verify g by
    g a = b g.  A stage that fails raises DomainError naming it.
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

        # (3) level-2 circulant systems over the signed triple orbits of conjugation by b
        g3 = NilElement(n, Permutation.identity(n), zero_p, _solve_level(b.perm, b.comm, conj(g2, a1).comm))

        # (4) g a = b g is conj(g, a) = b without the inverse of g
        g = _freeze(n, *_times(*_times(*_thaw(g3), g2), g1))
        if mul(g, a) != mul(b, g):
            raise DomainError("witness final check failed: conj(g, a) differs from b")
    except DomainError:
        if order(second) is None:
            raise DomainError("conjugacy decision requires finite-order inputs") from None
        raise
    return g
