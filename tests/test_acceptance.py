"""Acceptance suite: the thirteen exit criteria, at exact tolerances.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py -v`
(add -s to see the lines as they print).  All arithmetic checks are exact
equalities; the only tolerances are the stated runtime budgets.
"""

from __future__ import annotations

import functools
import math
import random
import time

from braidnil.core import (
    BraidWord,
    collect,
    comm_gen,
    conj,
    mul,
    order,
    pairs,
    sigma,
)
from braidnil.invariants import (
    combined_matrix,
    dimension_table,
    holonomy_matrix,
    lcs_rank,
    orientability_check,
)
from braidnil.orbits import orbit_partition
from braidnil.presentations import (
    SUBGROUPS,
    braid_presentation,
    pure_presentation,
    subgroup_presentation,
)
from braidnil.torsion import (
    conjugacy_witness,
    delta,
    element_with_cycle_type,
    finite_order_element,
    torsion_spectrum,
)
from conftest import random_word, strand_tracking_normal_form
from test_invariants import newton_extrapolate


def criterion(number: int, summary: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:2d}: FAIL  {summary}")
                raise
            print(f"criterion {number:2d}: PASS  {summary}")
        return run
    return wrap


DELTA5 = BraidWord(5, ((4, 1), (3, 1), (2, -1), (1, -1)))


@criterion(1, "dimension table reproduces the reference grid in < 0.1 s")
def test_c01_dimension_table():
    t0 = time.perf_counter()
    table = dimension_table(6, 5)
    elapsed = time.perf_counter() - t0
    expected = {2: [3, 6, 10, 15], 3: [4, 10, 20, 35], 4: [6, 20, 50, 105], 5: [9, 41, 131, 336]}
    for k, row in expected.items():
        assert [table.entry(n, k) for n in (3, 4, 5, 6)] == row
    assert elapsed < 0.1, f"took {elapsed:.3f}s"


@criterion(2, "fifth power of the 5-strand cycle element, exact coordinates, < 0.1 s")
def test_c02_cycle_element_fifth_power():
    t0 = time.perf_counter()
    e = collect(DELTA5 ** 5)
    elapsed = time.perf_counter() - t0
    assert e.perm.is_identity()
    assert e.pure.is_zero()
    assert e.comm.as_map() == {
        (1, 2, 4): -1, (1, 3, 5): -1, (2, 4, 5): -1, (1, 3, 4): -1, (2, 3, 5): -1,
    }
    assert elapsed < 0.1, f"took {elapsed:.3f}s"


@criterion(3, "cube of the 3-strand cycle element is the inverse basis commutator")
def test_c03_three_strand_cube():
    e = collect(BraidWord(3, ((2, 1), (1, -1))) ** 3)
    assert e.perm.is_identity() and e.pure.is_zero()
    assert e.comm.as_map() == {(1, 2, 3): -1}


@criterion(4, "full twists for n = 3, 4, 5 have unit pure part and zero level-2 part")
def test_c04_full_twists():
    for n in (3, 4, 5):
        e = collect(BraidWord(n, tuple((k, 1) for k in range(1, n))) ** n)
        assert e.perm.is_identity()
        assert e.pure.as_map() == {p: 1 for p in pairs(n)}
        assert e.comm.is_zero()


@criterion(5, "order-5 element; bare cycle element infinite; all 10 residue flips infinite")
def test_c05_order_five_and_flips():
    b1d5 = mul(comm_gen(5, (1, 2, 4)), delta(0, 5, 5))
    assert order(b1d5) == 5
    assert order(delta(0, 5, 5)) is None
    valid = [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]
    assert order(finite_order_element(5, valid)) == 5
    for i in range(2):
        for j in range(5):
            bumped = [row[:] for row in valid]
            bumped[i][j] += 1
            assert order(finite_order_element(5, bumped)) is None


@criterion(6, "orbit partitions match closed forms for n = 5..9; exact 5-strand chains")
def test_c06_orbit_partitions():
    expected_lengths = {
        5: [5, 5],
        6: [6, 6, 6, 2],
        7: [7] * 5,
        8: [8] * 7,
        9: [9] * 9 + [3],
    }
    for n, lengths in expected_lengths.items():
        basis = orbit_partition(n)
        assert list(basis.lengths()) == lengths, n
        assert all(s == 1 for orbit in basis.orbits for _, s in orbit)
    five = orbit_partition(5)
    assert [t for t, _ in five.orbits[0]] == [(1, 2, 3), (1, 2, 5), (1, 4, 5), (3, 4, 5), (2, 3, 4)]
    assert [t for t, _ in five.orbits[1]] == [(1, 2, 4), (1, 3, 5), (2, 4, 5), (1, 3, 4), (2, 3, 5)]


@criterion(7, "presentation suites report zero failures (n = 3, 4, 5; four subgroups)")
def test_c07_presentations():
    for n in (3, 4, 5):
        assert pure_presentation(n).passed
        assert braid_presentation(n).passed
    for subgroup in SUBGROUPS:
        assert subgroup_presentation(subgroup).passed


@criterion(8, "holonomy matrices match the reference pair, det +1; orientability holds")
def test_c08_holonomy():
    paper_pairs = ((1, 3), (2, 3), (1, 2))
    h1 = holonomy_matrix(sigma(3, 1), pair_basis=paper_pairs)
    assert combined_matrix(h1) == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
    assert h1.det == 1
    h2 = holonomy_matrix(collect(BraidWord(3, ((2, 1), (1, 1)))), pair_basis=paper_pairs)
    assert combined_matrix(h2) == ((0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))
    assert h2.det == 1
    generator_sets = {
        "trivial": [],
        "order2": [sigma(3, 1)],
        "order3": [collect(BraidWord(3, ((2, 1), (1, -1))))],
        "s3": [collect(BraidWord(3, ((2, 1), (1, 1)))), sigma(3, 1)],
    }
    for name, gens in generator_sets.items():
        assert orientability_check(3, gens), name


@criterion(9, "collection is a homomorphism on 1000 random word pairs per n in 3..6, < 30 s")
def test_c09_homomorphism_property():
    rng = random.Random(20240)
    t0 = time.perf_counter()
    for n in (3, 4, 5, 6):
        for _ in range(1000):
            w1, w2 = random_word(rng, n), random_word(rng, n)
            assert collect(w1 * w2) == mul(collect(w1), collect(w2))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"took {elapsed:.1f}s"


@criterion(10, "pure parts equal the strand-tracking oracle on 1000 random words per n <= 6")
def test_c10_pure_part_oracle():
    rng = random.Random(20241)
    for n in (2, 3, 4, 5, 6):
        for _ in range(1000):
            w = random_word(rng, n)
            e = collect(w)
            perm, pure = strand_tracking_normal_form(w)
            assert e.perm.image == perm
            assert e.pure.as_map() == pure


@criterion(11, "1000 sampled elements per n in 3..6 with 2- or 3-divisible permutation order are infinite")
def test_c11_no_small_torsion():
    rng = random.Random(20242)
    for n in (3, 4, 5, 6):
        checked = 0
        while checked < 1000:
            e = collect(random_word(rng, n, 25))
            q = e.perm.order()
            if q % 2 == 0 or q % 3 == 0:
                assert order(e) is None
                checked += 1


@criterion(12, "verified conjugacy witnesses (100 at n=5, 10 at n=7); spectrum at n=12 realised")
def test_c12_witnesses_and_spectrum():
    rng = random.Random(20243)
    a5 = finite_order_element(5, [[0] * 5, [1, 0, 0, 0, 0]])
    assert order(a5) == 5
    for _ in range(100):
        b = conj(collect(random_word(rng, 5, 30)), a5)
        g = conjugacy_witness(a5, b)
        assert conj(g, a5) == b
    a7 = element_with_cycle_type(7, [7])
    assert order(a7) == 7
    for _ in range(10):
        b = conj(collect(random_word(rng, 7, 30)), a7)
        g = conjugacy_witness(a7, b)
        assert conj(g, a7) == b

    # independent brute-force oracle: all partitions of every m <= 12, kept
    # when every part is 1 or coprime to 6, collecting lcms > 1
    def all_partitions(m, cap=None):
        cap = m if cap is None else cap
        if m == 0:
            yield ()
            return
        for first in range(min(m, cap), 0, -1):
            for rest in all_partitions(m - first, first):
                yield (first,) + rest

    oracle = set()
    for m in range(1, 13):
        for part in all_partitions(m):
            if all(p == 1 or (p >= 5 and math.gcd(p, 6) == 1) for p in part):
                value = math.lcm(*part)
                if value > 1:
                    oracle.add(value)
    assert sorted(oracle) == [5, 7, 11, 35]
    assert torsion_spectrum(12) == sorted(oracle)
    realisations = {5: [5], 7: [7], 11: [11], 35: [5, 7]}
    for tau, parts in realisations.items():
        assert order(element_with_cycle_type(12, parts)) == tau


@criterion(13, "rank integrality through n <= 12, q <= 10; interpolation predicts held-out ranks")
def test_c13_rank_integrality_and_degree():
    for n in range(2, 13):
        for q in range(1, 11):
            assert lcs_rank(n, q) >= 0  # raises on non-exact division
    for q in range(1, 7):
        start = 2
        fit = [lcs_rank(n, q) for n in range(start, start + q + 2)]
        for x in (start + q + 2, start + q + 3):
            assert newton_extrapolate(fit, start, x) == lcs_rank(x, q)
