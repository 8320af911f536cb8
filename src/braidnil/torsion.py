"""
Finite-order elements and their conjugacy in the class-2 braid quotients.

Torsion here is governed by the symmetric group minus its 2- and 3-parts: an
element of finite order has order equal to the order of its permutation, and
orders divisible by 2 or 3 never occur.  Finite-order elements are built as
theta * delta where delta is the standard mixed-sign cycle word and theta is a
level-2 correction whose orbit row sums must cancel the coefficients of
delta^n; blocks of such elements realise arbitrary admissible cycle types.

Conjugacy of finite-order elements is decided by cycle type alone, and a
witness is produced constructively: align the permutations, then solve one
circulant difference system per conjugation orbit at level 1 and again at
level 2.  Each system x_{j} - x_{j-1} = r_j around an orbit cycle is solvable
exactly when the r_j sum to zero, which the finite-order hypothesis
guarantees; the free variable per orbit is pinned to 0 at the representative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .core import (
    BraidWord,
    CommPart,
    DomainError,
    NilElement,
    Pair,
    Permutation,
    PurePart,
    collect,
    conj,
    identity,
    mul,
    order,
    pairs,
    power,
    pure_conjugation_map,
)
from .orbits import coefficients_by_orbit, orbit_basis_of, orbit_partition


# ---------------------------------------------------------------------------
# The standard cycle element and its n-th power
# ---------------------------------------------------------------------------

def delta_word(r: int, k: int, n: int) -> BraidWord:
    """The mixed-sign cycle word s_{r+k-1} .. s_{r+(k+1)/2} s_{r+(k-1)/2}^-1 .. s_{r+1}^-1.

    Requires k odd and at least 3, with the block r+1..r+k inside 1..n.  Its
    permutation is the k-cycle shifting that block, and the element it
    collects to has order k modulo the level-2 kernel.
    """
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


def delta_power_coefficients(n: int) -> tuple[CommPart, list[int]]:
    """Level-2 coordinates of the n-th power of the cycle element, n odd.

    The power has identity permutation and zero level-1 part, and its level-2
    coefficients are constant along each conjugation orbit; returns those
    coordinates together with the per-orbit constants, in orbit order.  For
    even n the power never lies in the level-2 kernel.
    """
    if n % 2 == 0:
        raise DomainError("for even n no power of the cycle element enters the level-2 kernel")
    e = power(delta(0, n, n), n)
    if not (e.perm.is_identity() and e.pure.is_zero()):
        raise DomainError("cycle element power left the level-2 kernel; engine inconsistency")
    basis = orbit_partition(n)
    rows = coefficients_by_orbit(basis, e.comm)
    constants = []
    for i, row in enumerate(rows):
        if any(c != row[0] for c in row):
            raise DomainError(f"orbit {i} coefficients {row} are not constant")
        constants.append(row[0])
    return e.comm, constants


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
    if n < 5 or math.gcd(n, 6) != 1:
        raise DomainError(f"strand count must be coprime to 6 and >= 5, got {n}")
    basis = orbit_partition(n)
    if len(residues) != basis.count or any(len(row) != len(orb) for row, orb in zip(residues, basis.orbits)):
        raise DomainError(f"residue matrix shape does not match the {basis.count} orbits of n={n}")
    theta = CommPart.from_map(n, ((st.triple, st.sign * x) for row, orbit in zip(residues, basis.orbits)
                                  for x, st in zip(row, orbit)))
    return mul(NilElement(n, Permutation.identity(n), PurePart.zero(n), theta), delta(0, n, n))


@dataclass(frozen=True)
class CompatibilitySystem:
    """Per-orbit row targets characterising the order-n residue assignments.

    An assignment gives an order-n element exactly when every row of residues
    sums to the orbit's target, which is minus the corresponding coefficient
    of the n-th power of the cycle element.
    """

    n: int
    targets: tuple[int, ...]

    def satisfied_by(self, residues: list[list[int]]) -> bool:
        return len(residues) == len(self.targets) and all(
            sum(row) == target for row, target in zip(residues, self.targets)
        )


def compatibility_system(n: int) -> CompatibilitySystem:
    """The order-n condition on residue rows, computed from the cycle-element power."""
    _, constants = delta_power_coefficients(n)
    return CompatibilitySystem(n, tuple(-m for m in constants))


def compatible_residues(n: int) -> list[list[int]]:
    """The canonical residue matrix meeting the order-n condition: first column only."""
    system = compatibility_system(n)
    basis = orbit_partition(n)
    return [[t] + [0] * (len(orb) - 1) for t, orb in zip(system.targets, basis.orbits)]


def shift_embed(elem: NilElement, offset: int, n: int) -> NilElement:
    """Translate an element on n0 strands by offset into the group on n strands.

    The block inclusion sending generator i to generator i+offset is injective
    and preserves orders; on normal forms it translates every strand index.
    """
    n0 = elem.n
    if offset < 0 or offset + n0 > n:
        raise DomainError(f"cannot shift {n0} strands by {offset} into {n}")
    image = list(range(1, n + 1))
    for i, v in enumerate(elem.perm.image):
        image[offset + i] = offset + v
    return NilElement(
        n,
        Permutation(tuple(image)),
        PurePart(n, tuple((i + offset, j + offset, e) for i, j, e in elem.pure.entries)),
        CommPart(n, tuple((i + offset, j + offset, k + offset, c) for i, j, k, c in elem.comm.entries)),
    )


def element_with_cycle_type(n: int, parts: list[int]) -> NilElement:
    """A finite-order element whose permutation has the given cycle type.

    Parts must each be 1 (a fixed point) or coprime to 6, and sum to at most
    n; the blocks sit at consecutive offsets and the order of the result is
    the lcm of the parts.
    """
    if sum(parts) > n:
        raise DomainError(f"parts {parts} do not fit in {n} strands")
    result = identity(n)
    offset = 0
    for p in parts:
        if p == 1:
            offset += 1
            continue
        if p < 5 or math.gcd(p, 6) != 1:
            raise DomainError(f"cycle length {p} is not realisable (must be 1 or coprime to 6)")
        block = finite_order_element(p, compatible_residues(p))
        result = mul(result, shift_embed(block, offset, n))
        offset += p
    return result


def torsion_spectrum(n: int) -> list[int]:
    """All finite orders > 1 occurring on n strands, by brute-force partition search.

    An order is the lcm of a multiset of parts > 1, each coprime to 6, whose
    sum is at most n (fixed points fill the rest).
    """
    if n < 1:
        raise DomainError("strand count must be at least 1")
    parts = [p for p in range(5, n + 1) if math.gcd(p, 6) == 1]
    found: set[int] = set()
    for size in range(1, n // 5 + 1):
        for combo in combinations_with_replacement(parts, size):
            if sum(combo) <= n:
                found.add(math.lcm(*combo))
    return sorted(found)


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


def _solve_circulant(rows: list[list[int]]) -> list[list[int]] | None:
    """Solve x_{j+1} - x_j = r_j around each cyclic row; None when a row sum is nonzero.

    The row sum is the obstruction: summing the differences around the cycle
    gives zero.  The representative is pinned to x_0 = 0, so the solution is
    the prefix-sum vector of the row.
    """
    out = []
    for row in rows:
        if sum(row) != 0:
            return None
        x = [0] * len(row)
        for j in range(1, len(row)):
            x[j] = x[j - 1] + row[j - 1]
        out.append(x)
    return out


def conjugacy_witness(a: NilElement, b: NilElement) -> NilElement | None:
    """An explicit g with conj(g, a) = b, or None when no witness is found.

    Requires conjugacy_decide(a, b) to hold.  Steps: (1) conjugate a by the
    lift of a permutation aligning the cycles; (2) match the level-1 parts by
    solving circulant systems over the pair orbits of the common permutation;
    (3) match the level-2 parts likewise over the signed triple orbits.  The
    returned element is verified by direct multiplication first.
    """
    if not conjugacy_decide(a, b):
        raise DomainError("inputs are not conjugate (cycle types differ)")
    n = a.n
    zero_p, zero_c = PurePart.zero(n), CommPart.zero(n)

    # (1) permutation alignment by a lifted conjugator
    g1 = NilElement(n, conjugating_permutation(a.perm, b.perm), zero_p, zero_c)
    a1 = conj(g1, a)
    if a1.perm != b.perm:
        return None

    # (2) level-1 circulant systems: orbits of the pair relabelling map
    pmap = pure_conjugation_map(b.perm)
    diff = {p: 0 for p in pairs(n)}
    for i, j, e in b.pure.entries:
        diff[(i, j)] += e
    for i, j, e in a1.pure.entries:
        diff[(i, j)] -= e
    seen: set[Pair] = set()
    x_pure: dict[Pair, int] = {}
    for p0 in pairs(n):
        if p0 in seen:
            continue
        orbit = [p0]
        seen.add(p0)
        cur = pmap[p0]
        while cur != p0:
            orbit.append(cur)
            seen.add(cur)
            cur = pmap[cur]
        sol = _solve_circulant([[diff[p] for p in orbit]])
        if sol is None:
            return None
        for p, v in zip(orbit, sol[0]):
            if v:
                x_pure[p] = v
    g2 = NilElement(n, Permutation.identity(n), PurePart.from_map(n, x_pure), zero_c)
    a2 = conj(g2, a1)
    if a2.perm != b.perm or a2.pure != b.pure:
        return None

    # (3) level-2 circulant systems in the orbit basis of conjugation by b
    try:
        basis = orbit_basis_of(b)
    except DomainError:
        return None
    target = CommPart.from_map(
        n,
        list(b.comm.as_map().items()) + [(t, -c) for t, c in a2.comm.as_map().items()],
    )
    sol = _solve_circulant(coefficients_by_orbit(basis, target))
    if sol is None:
        return None
    level2 = CommPart.from_map(n, ((st.triple, st.sign * v) for row, orbit in zip(sol, basis.orbits)
                                   for v, st in zip(row, orbit)))
    g3 = NilElement(n, Permutation.identity(n), zero_p, level2)

    g = mul(g3, mul(g2, g1))
    return g if conj(g, a) == b else None
