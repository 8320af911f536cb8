"""
Orbits of the level-2 basis under conjugation by the standard cycle element.

The acting element on n strands is delta(0, n, n) (see torsion.py); its
conjugation action permutes the basis triples with all signs +1, descending
every index by one modulo n.  Orbits are reported with first-seen-lexicographic
representatives: scan triples in lex order and walk each new orbit to closure.
When 3 divides n there is a single short orbit of length n/3, consisting of
the equally-spaced triples; under first-seen ordering it is always listed
last, since every other orbit owns a lex-smaller representative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CommPart,
    DomainError,
    NilElement,
    Permutation,
    PurePart,
    SignedTriple,
    Triple,
    comm_conjugation_map,
    identity,
    triples,
)


@dataclass(frozen=True)
class OrbitBasis:
    """The triple basis grouped into conjugation orbits of a fixed acting element.

    orbits[i][j] is the signed triple obtained by conjugating the i-th
    representative j times by the acting element; for the standard cycle
    element every sign is +1.
    """

    n: int
    orbits: tuple[tuple[SignedTriple, ...], ...]

    @property
    def count(self) -> int:
        return len(self.orbits)

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)

    def representatives(self) -> tuple[Triple, ...]:
        return tuple(o[0].triple for o in self.orbits)


def orbit_basis_of(g: NilElement) -> OrbitBasis:
    """Partition the triple basis into orbits of conjugation by g.

    The action only depends on g's permutation.  Representatives are
    first-seen in lex order; following entries are successive conjugates,
    carrying the accumulated sign.
    """
    n = g.n
    act = comm_conjugation_map(g.perm)
    seen: set[Triple] = set()
    orbits: list[tuple[SignedTriple, ...]] = []
    for t in triples(n):
        if t in seen:
            continue
        orbit = [SignedTriple(t, 1)]
        seen.add(t)
        cur, sign = t, 1
        while True:
            st = act[cur]
            cur, sign = st.triple, sign * st.sign
            if cur == t:
                if sign != 1:
                    # sign product around a cycle; cannot happen for the
                    # standard cycle element, kept as a safety check
                    raise DomainError(f"orbit of {t} closes with sign {sign}")
                break
            orbit.append(SignedTriple(cur, sign))
            seen.add(cur)
        orbits.append(tuple(orbit))
    return OrbitBasis(n, tuple(orbits))


def cycle_element(n: int) -> NilElement:
    """The section of the full cycle 1 -> 2 -> ... -> n -> 1.

    Conjugation by it descends every triple index by one modulo n, which is
    the action of the mixed-sign cycle element of torsion.py; the level-2
    action factors through the permutation, so this lift serves for all n,
    even ones included.
    """
    if n < 1:
        raise DomainError("strand count must be at least 1")
    if n == 1:
        return identity(1)
    perm = Permutation(tuple(range(2, n + 1)) + (1,))
    return NilElement(n, perm, PurePart.zero(n), CommPart.zero(n))


def orbit_partition(n: int) -> OrbitBasis:
    """Orbits of the triple basis under conjugation by the standard cycle element.

    Closed form: (n-1)(n-2)/6 orbits of length n when gcd(n, 3) = 1, else
    n(n-3)/6 orbits of length n plus one of length n/3.  The closed forms are
    asserted here; the orbits themselves come from the engine.  Stated for
    n >= 5; n in {3, 4} is computed directly and obeys the same formulas.
    """
    if n < 3:
        raise DomainError("orbit partition needs at least 3 strands")
    basis = orbit_basis_of(cycle_element(n))
    lengths = sorted(basis.lengths())
    if n % 3 == 0:
        expected = sorted([n] * (n * (n - 3) // 6) + [n // 3])
    else:
        expected = [n] * ((n - 1) * (n - 2) // 6)
    if lengths != expected:
        raise DomainError(f"orbit lengths {lengths} differ from closed form {expected}")
    if any(st.sign != 1 for orbit in basis.orbits for st in orbit):
        raise DomainError("cycle-element orbits must have all signs +1")
    return basis


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


def coefficients_by_orbit(basis: OrbitBasis, comm: CommPart) -> list[list[int]]:
    """Read level-2 coordinates off in orbit layout: row i, column j for orbit i position j."""
    cmap = comm.as_map()
    return [[st.sign * cmap.get(st.triple, 0) for st in orbit] for orbit in basis.orbits]
