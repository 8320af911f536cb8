"""The signed orbit walk, the orbit layout and the level solver shared by both levels of the conjugacy witness."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil.core import (
    CommPart,
    DomainError,
    Permutation,
    PurePart,
    conjugation_step,
    pairs,
    triples,
)
from braidnil.orbits import OrbitBasis, coefficients_by_orbit, orbit_basis_of, part_from_orbits, signed_orbits
from braidnil.torsion import _solve_level
from conftest import (
    conjugation_step_oracle,
    generator_action,
    outcome,
    peak_in_child,
    solve_level_oracle,
)


def closing_signs(keys, step) -> list[int]:
    """The sign product around the cycle of each key, found by walking from that key alone."""
    out = []
    for key in keys:
        cur, sign = step(key)
        while cur != key:
            cur, s = step(cur)
            sign *= s
        out.append(sign)
    return out


def test_an_orbit_closing_with_sign_minus_one_raises():
    flip = {(1, 2): ((1, 3), 1), (1, 3): ((1, 2), -1), (2, 3): ((2, 3), 1)}
    with pytest.raises(DomainError):
        signed_orbits(sorted(flip), flip.__getitem__)
    with pytest.raises(DomainError):
        signed_orbits([(1, 2, 3)], lambda t: (t, -1))


def test_level_solver_rejects_a_nonzero_row_sum_at_level_one():
    five_cycle = Permutation((2, 3, 4, 5, 1))
    with pytest.raises(DomainError, match=r"^witness level 1 \(pair orbits\) failed: orbit 0 at \(1, 2\) has row sum 1$"):
        _solve_level(five_cycle, PurePart.from_map(5, {(1, 2): 1}), PurePart.zero(5))
    # the same entry against itself leaves every row at zero
    one = PurePart.from_map(5, {(1, 2): 1})
    assert _solve_level(five_cycle, one, one) == PurePart.zero(5)


def test_level_solver_rejects_a_nonzero_row_sum_at_level_two():
    # the triple orbits of the 5-cycle, as in orbit_partition(5), start at (1, 2, 3) and at (1, 2, 4)
    cycle = Permutation((2, 3, 4, 5, 1))
    with pytest.raises(DomainError, match=r"^witness level 2 \(triple orbits\) failed: orbit 0 at \(1, 2, 3\) has row sum 1$"):
        _solve_level(cycle, CommPart.from_map(5, {(1, 2, 3): 1}), CommPart.zero(5))
    with pytest.raises(DomainError, match=r"^witness level 2 \(triple orbits\) failed: orbit 1 at \(1, 2, 4\) has row sum 2$"):
        _solve_level(cycle, CommPart.zero(5), CommPart.from_map(5, {(1, 2, 4): -2}))


@st.composite
def permutations(draw):
    n = draw(st.integers(2, 9))
    return Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


@settings(max_examples=150, deadline=None)
@given(permutations())
def test_walker_covers_each_key_once_stepping_with_the_accumulated_sign(perm):
    # the action comes from the per-generator oracle; orbit_basis_of must walk the engine's step to the same orbits
    for keys, cls in ((list(pairs(perm.n)), PurePart), (list(triples(perm.n)), CommPart)):
        step = generator_action(perm, cls).__getitem__
        if any(s != 1 for s in closing_signs(keys, step)):
            for walk in (lambda: signed_orbits(keys, step), lambda: orbit_basis_of(perm, cls)):
                with pytest.raises(DomainError):
                    walk()
            continue
        orbits = signed_orbits(keys, step)
        assert orbit_basis_of(perm, cls) == OrbitBasis(perm.n, orbits)
        walked = [key for orbit in orbits for key, _ in orbit]
        assert sorted(walked) == keys and len(set(walked)) == len(keys)
        reps = [orbit[0][0] for orbit in orbits]
        assert reps == sorted(reps)  # first seen in key order
        for orbit in orbits:
            assert orbit[0][1] == 1 and orbit[0][0] == min(key for key, _ in orbit)
            for (key, sign), (nxt, nxt_sign) in zip(orbit, orbit[1:] + orbit[:1]):
                image, s = step(key)
                assert image == nxt and sign * s == nxt_sign  # back at the representative, sign 1


def test_the_orbit_walk_stores_no_table_of_the_action():
    # at n=100 a table of all 161700 triples' images took the peak to about 73 MB; stepping keeps it near 46 MB
    count, hwm_kb = peak_in_child("from braidnil.orbits import orbit_partition\n"
                                  "result = orbit_partition(100).count")
    assert count == 99 * 98 // 6  # (n-1)(n-2)/6 orbits of length n, since 3 does not divide n
    assert hwm_kb < 60 * 1024


@st.composite
def parts_in_orbit_layout(draw):
    """A random part and a random grouping of its key basis into signed orbits."""
    n = draw(st.integers(2, 7))
    cls = draw(st.sampled_from((PurePart, CommPart)))
    keys = draw(st.permutations(list(pairs(n)) if cls is PurePart else list(triples(n))))
    orbits, at = [], 0
    while at < len(keys):
        size = draw(st.integers(1, len(keys) - at))
        orbits.append(tuple((key, draw(st.sampled_from((1, -1)))) for key in keys[at:at + size]))
        at += size
    values = draw(st.dictionaries(st.sampled_from(keys), st.integers(-5, 5), max_size=10)) if keys else {}
    return cls.from_map(n, values), OrbitBasis(n, tuple(orbits))


@settings(max_examples=150, deadline=None)
@given(parts_in_orbit_layout())
def test_the_orbit_writer_inverts_coefficients_by_orbit(case):
    part, basis = case
    rows = coefficients_by_orbit(basis, part)
    assert [len(row) for row in rows] == list(basis.lengths())
    assert part_from_orbits(type(part), basis, rows) == part


@settings(max_examples=100, deadline=None)
@given(permutations(), st.data())
def test_level_solver_solves_the_forward_difference_recurrence(perm, data):
    """With r_j = x_{j+1} - x_j around each orbit, the solver returns x shifted to x_0 = 0."""
    basis = orbit_basis_of(perm, PurePart)
    x = data.draw(st.lists(st.integers(-5, 5), min_size=sum(basis.lengths()), max_size=sum(basis.lengths())))
    rows, at = [], 0
    for length in basis.lengths():
        rows.append(x[at:at + length])
        at += length
    diffs = [[row[(j + 1) % len(row)] - row[j] for j in range(len(row))] for row in rows]
    solved = _solve_level(perm, part_from_orbits(PurePart, basis, diffs), PurePart.zero(perm.n))
    assert coefficients_by_orbit(basis, solved) == [[v - row[0] for v in row] for row in rows]


@st.composite
def permutations_by_cycle_type(draw):
    """A permutation on n <= 9 strands of a drawn cycle type: even cycles make triple orbits close with sign -1."""
    n = draw(st.integers(2, 9))
    parts, left = [], n
    while left:
        parts.append(draw(st.integers(1, left)))
        left -= parts[-1]
    points, image, at = draw(st.permutations(range(1, n + 1))), [0] * n, 0
    for p in parts:
        cycle = points[at:at + p]
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            image[u - 1] = v
        at += p
    return Permutation(tuple(image))


@settings(max_examples=150, deadline=None)
@given(permutations_by_cycle_type())
def test_the_indexed_step_is_the_mapped_step(perm):
    for cls in (PurePart, CommPart):
        step, oracle = conjugation_step(perm, cls), conjugation_step_oracle(perm, cls)
        assert [step(key) for key in cls.keys(perm.n)] == [oracle(key) for key in cls.keys(perm.n)]


@st.composite
def level_systems(draw):
    """A level solve's input: a permutation, and want and have of one coordinate class.

    have is random.  want is random too, or have plus forward differences along each orbit of the oracle's walk, so
    that every row sum cancels; then one cell may move, so that the row sum of its orbit, often not the first, does
    not.
    """
    perm = draw(permutations_by_cycle_type())
    n, cls = perm.n, draw(st.sampled_from((PurePart, CommPart)))
    keys = list(cls.keys(n))
    cells = lambda: draw(st.dictionaries(st.sampled_from(keys), st.integers(-3, 3), max_size=8)) if keys else {}
    have = cls.from_map(n, cells())
    try:
        orbits = signed_orbits(keys, conjugation_step_oracle(perm, cls))
    except DomainError:
        orbits = None  # a closure with sign -1: every want fails the same way
    if orbits is None or draw(st.booleans()):
        return perm, cls.from_map(n, cells()), have
    want = have.as_map()
    for orbit in orbits:
        x = draw(st.lists(st.integers(-3, 3), min_size=len(orbit), max_size=len(orbit)))
        for j, (key, s) in enumerate(orbit):
            want[key] = want.get(key, 0) + s * (x[(j + 1) % len(x)] - x[j])
    if keys and draw(st.booleans()):
        key = draw(st.sampled_from(keys))
        want[key] = want.get(key, 0) + draw(st.sampled_from((-2, -1, 1, 2)))
    return perm, cls.from_map(n, want), have


@settings(max_examples=200, deadline=None)
@given(level_systems())
def test_the_one_pass_solve_is_the_orbit_layout_solve(case):
    # an equal part, or the same DomainError text: a row sum, or a closure with sign -1
    perm, want, have = case
    assert outcome(_solve_level, perm, want, have) == outcome(solve_level_oracle, perm, want, have)
