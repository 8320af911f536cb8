"""Rank formulas, dimension tables, orbits, and holonomy matrices."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil import invariants
from braidnil.core import (
    BraidWord,
    DomainError,
    Permutation,
    collect,
    comm_gen,
    conj,
    mul,
    pairs,
    pure_gen,
    sigma,
    tits_lift,
)
from braidnil.invariants import (
    combined_matrix,
    dimension_table,
    hirsch_length,
    holonomy_matrix,
    lcs_rank,
    orientability_check,
)
from braidnil.orbits import orbit_partition
from conftest import counted, dense_holonomy, random_word, standard_transversal


def newton_extrapolate(samples: list[int], start: int, x: int) -> Fraction:
    """Exact polynomial extrapolation through samples at start, start+1, ...

    Independent oracle: Newton forward differences, evaluated at integer x
    with exact rational arithmetic.
    """
    diffs = [Fraction(v) for v in samples]
    coeffs = [diffs[0]]
    for level in range(1, len(samples)):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        coeffs.append(diffs[0])
    total = Fraction(0)
    binom = Fraction(1)
    for k, c in enumerate(coeffs):
        total += c * binom
        binom *= Fraction(x - start - k, k + 1)
    return total


class TestRanks:
    def test_level_one_is_pair_count(self):
        for n in range(3, 9):
            assert lcs_rank(n, 1) == n * (n - 1) // 2

    def test_level_two_is_triple_count(self):
        assert lcs_rank(5, 2) == 10 == math.comb(5, 3)
        for n in range(2, 10):
            assert lcs_rank(n, 2) == math.comb(n, 3)

    def test_level_three_closed_form(self):
        assert lcs_rank(5, 3) == 30 == 2 * math.comb(6, 4)
        assert lcs_rank(3, 3) == 2
        for n in range(2, 10):
            assert lcs_rank(n, 3) == 2 * math.comb(n + 1, 4)

    def test_exact_divisibility_sweep(self):
        # the Moebius sum is divisible by the level for the whole desk range;
        # lcs_rank raises if not
        for n in range(2, 13):
            for q in range(1, 11):
                assert lcs_rank(n, q) >= 0

    def test_polynomial_degree(self):
        # degree q+1 in n: fit on q+2 consecutive samples, predict two more
        for q in range(1, 7):
            start = 2
            fit = [lcs_rank(n, q) for n in range(start, start + q + 2)]
            for x in (start + q + 2, start + q + 3):
                assert newton_extrapolate(fit, start, x) == lcs_rank(x, q)

    def test_quartic_binomial_divides_rank_polynomial_in_stated_range(self):
        # for levels 3..10 the rank polynomial vanishes at the four roots of
        # the quartic binomial coefficient; tested only in that range
        for q in range(3, 11):
            start = 2
            fit = [lcs_rank(n, q) for n in range(start, start + q + 2)]
            for root in (-1, 0, 1, 2):
                assert newton_extrapolate(fit, start, root) == 0

    def test_preconditions(self):
        with pytest.raises(DomainError):
            lcs_rank(1, 1)
        with pytest.raises(DomainError):
            hirsch_length(3, 1)


class TestDimensions:
    def test_reference_values(self):
        assert hirsch_length(3, 3) == 4
        assert hirsch_length(4, 3) == 10
        assert hirsch_length(6, 5) == 336
        for n in range(3, 8):
            assert hirsch_length(n, 3) == math.comb(n, 2) + math.comb(n, 3)
            assert hirsch_length(n, 4) == math.comb(n, 2) + math.comb(n, 3) + 2 * math.comb(n + 1, 4)

    def test_reference_grid(self):
        t = dimension_table(6, 5)
        rows = {2: [3, 6, 10, 15], 3: [4, 10, 20, 35], 4: [6, 20, 50, 105], 5: [9, 41, 131, 336]}
        for k, expected in rows.items():
            assert [t.entry(n, k) for n in (3, 4, 5, 6)] == expected

    def test_each_cell_computes_one_rank(self, monkeypatch):
        calls = counted(monkeypatch, invariants, "lcs_rank")
        for n_max, k_max in ((3, 2), (6, 5), (9, 12)):
            start = calls[0]
            t = dimension_table(n_max, k_max)
            assert calls[0] - start == (n_max - 2) * (k_max - 1) == len(t.entries)
        assert [d for n, k, d in dimension_table(9, 12).entries] == \
            [hirsch_length(n, k) for n in range(3, 10) for k in range(2, 13)]

    def test_render_and_rows(self):
        t = dimension_table(4, 3)
        assert {"n": 3, "k": 2, "dim": 3} in t.to_rows()
        text = t.render_text()
        assert "336" not in text and "10" in text


class TestOrbits:
    def test_counts_and_lengths_match_closed_forms(self):
        for n in range(3, 10):
            basis = orbit_partition(n)
            if n % 3 == 0:
                assert basis.count == n * (n - 3) // 6 + 1
                assert sorted(basis.lengths()) == sorted([n] * (n * (n - 3) // 6) + [n // 3])
            else:
                assert basis.count == (n - 1) * (n - 2) // 6
                assert set(basis.lengths()) <= {n}

    def test_five_strand_chains(self):
        basis = orbit_partition(5)
        assert [t for t, _ in basis.orbits[0]] == [(1, 2, 3), (1, 2, 5), (1, 4, 5), (3, 4, 5), (2, 3, 4)]
        assert [t for t, _ in basis.orbits[1]] == [(1, 2, 4), (1, 3, 5), (2, 4, 5), (1, 3, 4), (2, 3, 5)]

    def test_six_strand_short_orbit(self):
        basis = orbit_partition(6)
        assert sorted(basis.lengths()) == [2, 6, 6, 6]
        assert basis.lengths()[-1] == 2
        assert {t for t, _ in basis.orbits[-1]} == {(1, 3, 5), (2, 4, 6)}

    def test_seven_strands(self):
        basis = orbit_partition(7)
        assert basis.lengths() == (7, 7, 7, 7, 7)

    def test_orbit_steps_are_engine_conjugates_with_positive_sign(self):
        for n in range(3, 10):
            d = collect(tits_lift(Permutation(tuple(range(2, n + 1)) + (1,))))  # a lift of the n-cycle
            basis = orbit_partition(n)
            for orbit in basis.orbits:
                for (t, s), (nxt, _) in zip(orbit, orbit[1:] + orbit[:1]):
                    assert s == 1
                    assert conj(d, comm_gen(n, t)) == comm_gen(n, nxt)

    def test_transversal_hits_each_orbit_once(self):
        for n in range(5, 10):
            basis = orbit_partition(n)
            orbit_of = {t: i for i, orbit in enumerate(basis.orbits) for t, _ in orbit}
            hits = [orbit_of[t] for t in standard_transversal(n)]
            assert sorted(hits) == list(range(basis.count))


class TestHolonomy:
    PAPER_PAIRS = ((1, 3), (2, 3), (1, 2))

    def test_identity_action(self):
        h = holonomy_matrix(pure_gen(3, 1, 2))
        assert h.det == 1
        assert all(h.pair_rows[i] == i for i in range(3))
        assert (h.triple_rows, h.triple_signs) == ((0,), (1,))

    def test_source_matrix_m1(self):
        h = holonomy_matrix(sigma(3, 1), pair_basis=self.PAPER_PAIRS)
        assert combined_matrix(h) == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
        assert h.det == 1

    def test_source_matrix_m2(self):
        g = collect(BraidWord(3, ((2, 1), (1, 1))))
        h = holonomy_matrix(g, pair_basis=self.PAPER_PAIRS)
        assert combined_matrix(h) == ((0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))
        assert h.det == 1

    def test_determinant_is_multiplicative(self):
        rng = random.Random(31)
        for n in (3, 4, 5):
            for _ in range(40):
                a = collect(random_word(rng, n, 12))
                b = collect(random_word(rng, n, 12))
                assert holonomy_matrix(mul(a, b)).det == holonomy_matrix(a).det * holonomy_matrix(b).det

    def test_kernel_acts_trivially(self):
        rng = random.Random(37)
        for _ in range(20):
            e = mul(pure_gen(4, rng.choice([1, 2]), 3),
                    comm_gen(4, (1, 2, rng.choice([3, 4]))))
            h = holonomy_matrix(e)
            assert all(h.pair_rows[i] == i for i in range(6))
            assert all(h.triple_rows[i] == i and h.triple_signs[i] == 1 for i in range(4))
            assert h.det == 1

    def test_orientability_of_three_strand_subgroups(self):
        gens = {
            "trivial": [],
            "order2": [sigma(3, 1)],
            "order3": [collect(BraidWord(3, ((2, 1), (1, -1))))],
            "s3": [collect(BraidWord(3, ((2, 1), (1, 1)))), sigma(3, 1)],
        }
        for name, gg in gens.items():
            assert orientability_check(3, gg), name

    def test_four_strand_generator_determinant(self):
        # hand check: the pair action of s1 is two 2-cycles (sign +1); the
        # triple action fixes (1,2,3) and (1,2,4) with sign -1 each and swaps
        # the other two basis vectors, so block2 has determinant -1
        h = holonomy_matrix(sigma(4, 1))
        assert h.det == -1
        assert not orientability_check(4, [sigma(4, 1)])

    def test_basis_validation(self):
        with pytest.raises(DomainError):
            holonomy_matrix(sigma(3, 1), pair_basis=((1, 2), (1, 3)))

    @pytest.mark.parametrize("bases", [
        # a repeated key with the right number of distinct keys
        {"pair_basis": ((1, 2), (1, 2), (1, 3), (2, 3))},
        # every pair once, but one written out of order
        {"pair_basis": ((2, 1), (1, 3), (2, 3))},
    ])
    def test_a_basis_that_is_no_rearrangement_of_the_keys_is_rejected(self, bases):
        with pytest.raises(DomainError, match="^the pair basis order must enumerate every pair exactly once$"):
            holonomy_matrix(sigma(3, 1), **bases)

    def test_combined_matrix_equals_the_dense_oracle(self):
        rng = random.Random(41)
        for n in range(2, 8):
            for _ in range(5):
                g = collect(random_word(rng, n, 30))
                pair_basis = list(pairs(n))
                rng.shuffle(pair_basis)
                h = holonomy_matrix(g, pair_basis=pair_basis)
                doc = dense_holonomy(g, pair_basis=pair_basis)
                p = len(doc["block1"])
                dense = combined_matrix(h)
                assert [list(r[:p]) for r in dense[:p]] == doc["block1"]
                assert [list(r[p:]) for r in dense[p:]] == doc["block2"]
                assert all(not any(r[p:]) for r in dense[:p]) and all(not any(r[:p]) for r in dense[p:])
                assert h.det == doc["det"]


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


@st.composite
def element_pairs(draw):
    n = draw(st.integers(2, 7))
    word = st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=40)
    return tuple(collect(BraidWord(n, tuple(draw(word)))) for _ in range(2))


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_holonomy_is_a_homomorphism_on_signed_permutations(case):
    a, b = case
    ha, hb, hab = holonomy_matrix(a), holonomy_matrix(b), holonomy_matrix(mul(a, b))
    # column c of M(a)M(b) goes to row rows_b[c] under M(b), then on under M(a)
    assert hab.pair_rows == tuple(ha.pair_rows[r] for r in hb.pair_rows)
    assert hab.triple_rows == tuple(ha.triple_rows[r] for r in hb.triple_rows)
    assert hab.triple_signs == tuple(s * ha.triple_signs[r] for r, s in zip(hb.triple_rows, hb.triple_signs))
    assert combined_matrix(hab) == _matmul(combined_matrix(ha), combined_matrix(hb))
    assert hab.det == ha.det * hb.det
