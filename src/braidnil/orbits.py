"""
Signed orbits of the pair and triple bases under conjugation.

signed_orbits is the one orbit walk, with first-seen representatives:
orbit_basis_of runs it over the pairs or the triples in lex order, stepping by
core.conjugation_step of a permutation, for both levels of the conjugacy
witness of torsion.py: conjugation acts on both levels through the permutation
alone.  The standard acting permutation is the n-cycle of delta(0, n, n) (see
torsion.py); it permutes the basis triples with all signs +1, descending every
index by one modulo n.  When 3 divides n there is a single short orbit of
length n/3, the equally-spaced triples; under first-seen ordering it is always
listed last, since every other orbit owns a lex-smaller representative.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .core import (
    CommPart,
    DomainError,
    Permutation,
    PurePart,
    _check_strands,
    _Value,
    conjugation_step,
)

Key = tuple[int, ...]  # a pair or a triple
Orbit = tuple[tuple[Key, int], ...]


class OrbitBasis(_Value):
    """The pair or triple basis grouped into orbits of a signed action, as built by signed_orbits.

    orbits[i][j] is (key, sign): the key reached from the i-th representative
    after j steps, with the product of the signs met on the way; for the
    standard cycle element every sign is +1.
    """

    n: int
    orbits: tuple[Orbit, ...]

    @property
    def count(self) -> int:
        return len(self.orbits)

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)

    def representatives(self) -> tuple[Key, ...]:
        return tuple(o[0][0] for o in self.orbits)


def signed_orbits(keys: Iterable[Key], step: Callable[[Key], tuple[Key, int]]) -> tuple[Orbit, ...]:
    """The orbits of a signed bijection of keys, each walked to closure from its first-seen key.

    An orbit starts at the first key not yet seen, with sign 1; each further entry
    is the step of its predecessor with the accumulated sign.  An orbit whose signs
    multiply to -1 around the cycle raises DomainError.
    """
    seen: set[Key] = set()
    orbits: list[Orbit] = []
    for key in keys:
        if key in seen:
            continue
        orbit = [(key, 1)]
        cur, sign = step(key)
        while cur != key:
            orbit.append((cur, sign))
            cur, s = step(cur)
            sign *= s
        if sign != 1:
            raise DomainError(f"orbit of {key} closes with sign {sign}")
        seen.update(k for k, _ in orbit)
        orbits.append(tuple(orbit))
    return tuple(orbits)


def orbit_basis_of(perm: Permutation, cls: type[PurePart] | type[CommPart]) -> OrbitBasis:
    """cls's key basis, in lex order, in signed orbits of conjugation by any element with permutation perm."""
    return OrbitBasis(perm.n, signed_orbits(cls.keys(perm.n), conjugation_step(perm, cls)))


def orbit_partition(n: int) -> OrbitBasis:
    """Orbits of the triple basis under conjugation by the n-cycle 1 -> 2 -> ... -> n -> 1.

    Closed form: (n-1)(n-2)/6 orbits of length n when gcd(n, 3) = 1, else
    n(n-3)/6 orbits of length n plus one of length n/3.  The closed forms are
    asserted here; the orbits themselves come from the engine.  Stated for
    n >= 5; n in {3, 4} is computed directly and obeys the same formulas.
    """
    _check_strands(n, 3, "orbit partition")
    basis = orbit_basis_of(Permutation(tuple(range(2, n + 1)) + (1,)), CommPart)
    lengths = sorted(basis.lengths())
    if n % 3 == 0:
        expected = sorted([n] * (n * (n - 3) // 6) + [n // 3])
    else:
        expected = [n] * ((n - 1) * (n - 2) // 6)
    if lengths != expected:
        raise DomainError(f"orbit lengths {lengths} differ from closed form {expected}")
    if any(s != 1 for orbit in basis.orbits for _, s in orbit):
        raise DomainError("cycle-element orbits must have all signs +1")
    return basis


def coefficients_by_orbit(basis: OrbitBasis, part: PurePart | CommPart) -> list[list[int]]:
    """Coordinates in orbit layout: row i, column j is the sign times the coefficient at orbit i position j."""
    cmap = part.as_map()
    return [[s * cmap.get(key, 0) for key, s in orbit] for orbit in basis.orbits]


def part_from_orbits(cls: type[PurePart] | type[CommPart], basis: OrbitBasis, rows: list[list[int]]):
    """The part of type cls with the given orbit layout; the inverse of coefficients_by_orbit.

    Every cell is visited; only from_map is spared the zero ones.
    """
    return cls.from_map(basis.n, ((key, s * x) for row, orbit in zip(rows, basis.orbits)
                                  for x, (key, s) in zip(row, orbit) if x))
