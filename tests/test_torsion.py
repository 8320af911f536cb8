"""Finite-order constructions, spectra, and conjugacy witnesses."""

from __future__ import annotations

import math
import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil import orbits, torsion
from braidnil.core import (
    BraidWord,
    CommPart,
    DomainError,
    collect,
    comm_gen,
    conj,
    identity,
    mul,
    order,
    power,
    pure_gen,
    sigma,
)
from braidnil.orbits import orbit_basis_of, orbit_partition
from braidnil.torsion import (
    compatible_residues,
    conjugacy_decide,
    conjugacy_witness,
    conjugating_permutation,
    delta,
    delta_power_coefficients,
    delta_word,
    element_with_cycle_type,
    finite_order_element,
    shift_embed,
    torsion_spectrum,
)
from conftest import counted, elements, random_word, satisfies


class TestDelta:
    def test_three_strand_word(self):
        assert delta_word(0, 3, 3).letters == ((2, 1), (1, -1))
        assert delta(0, 3, 3) == collect(BraidWord(3, ((2, 1), (1, -1))))

    def test_block_cycle_structure(self):
        assert delta(0, 5, 5).perm.cycle_type() == (5,)
        assert delta(1, 3, 5).perm.cycles()[1] == (2, 3, 4)

    def test_short_cycles_have_infinite_order(self):
        for n in range(3, 7):
            assert order(delta(0, 3, n)) is None

    def test_permutation_agrees_with_the_orbit_acting_element(self):
        for n in range(3, 12, 2):
            assert orbit_partition(n).orbits == orbit_basis_of(delta(0, n, n).perm, CommPart).orbits

    def test_preconditions(self):
        with pytest.raises(DomainError):
            delta(0, 4, 5)
        with pytest.raises(DomainError):
            delta(2, 5, 6)


class TestDeltaPower:
    def test_three_strands(self):
        _, comm, m = delta_power_coefficients(3)
        assert comm.as_map() == {(1, 2, 3): -1}
        assert m == [-1]

    def test_five_strands(self):
        _, comm, m = delta_power_coefficients(5)
        assert m == [0, -1]
        assert comm.as_map() == {t: -1 for t in ((1, 2, 4), (1, 3, 5), (2, 4, 5), (1, 3, 4), (2, 3, 5))}

    def test_constancy_along_orbits(self):
        for n in (3, 5, 7, 9):
            returned, comm, m = delta_power_coefficients(n)
            basis = orbit_partition(n)
            assert returned == basis
            cmap = comm.as_map()
            for constant, orbit in zip(m, basis.orbits):
                assert all(cmap.get(t, 0) == constant for t, _ in orbit)

    def test_even_strand_counts_rejected(self):
        with pytest.raises(DomainError):
            delta_power_coefficients(6)


class TestFiniteOrderConstruction:
    def test_reference_order_five_element(self):
        e = finite_order_element(5, [[0] * 5, [1, 0, 0, 0, 0]])
        assert e == mul(comm_gen(5, (1, 2, 4)), delta(0, 5, 5))
        assert order(e) == 5

    def test_zero_residues_give_infinite_order(self):
        assert order(finite_order_element(5, [[0] * 5, [0] * 5])) is None

    def test_compatibility_characterisation_five_strands(self):
        valid = compatible_residues(5)
        assert order(finite_order_element(5, valid)) == 5
        for i in range(2):
            for j in range(5):
                bumped = [row[:] for row in valid]
                bumped[i][j] += 1
                assert order(finite_order_element(5, bumped)) is None

    def test_compatibility_characterisation_seven_strands(self):
        valid = compatible_residues(7)
        assert order(finite_order_element(7, valid)) == 7
        rng = random.Random(41)
        for _ in range(6):
            i, j = rng.randrange(5), rng.randrange(7)
            bumped = [row[:] for row in valid]
            bumped[i][j] += 1
            assert order(finite_order_element(7, bumped)) is None
        # arbitrary integers per row are fine as long as the row sums hit target
        shuffled = [row[:] for row in valid]
        shuffled[0] = [3, -5, 1, 0, 2, -1, 0]
        assert sum(shuffled[0]) == sum(valid[0])
        assert order(finite_order_element(7, shuffled)) == 7

    def test_rejects_bad_strand_counts_and_shapes(self):
        with pytest.raises(DomainError):
            finite_order_element(6, [])
        with pytest.raises(DomainError):
            finite_order_element(5, [[0] * 5])

    def test_system_predicts_the_order_dichotomy(self):
        # random residue assignments have order n exactly when the row-sum
        # system is satisfied
        rng = random.Random(61)
        _, _, m = delta_power_coefficients(5)
        targets = tuple(-c for c in m)
        assert targets == (0, 1)
        for _ in range(25):
            residues = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(2)]
            e = finite_order_element(5, residues)
            if satisfies(targets, residues):
                assert order(e) == 5
            else:
                assert order(e) is None


class TestShiftEmbed:
    def test_identity_and_translation(self):
        assert shift_embed(identity(3), 2, 6) == identity(6)
        assert shift_embed(pure_gen(2, 1, 2), 3, 6) == pure_gen(6, 4, 5)
        moved = shift_embed(comm_gen(3, (1, 2, 3)), 1, 5)
        assert moved == comm_gen(5, (2, 3, 4))

    def test_is_a_homomorphism(self):
        rng = random.Random(43)
        for _ in range(40):
            a, b = collect(random_word(rng, 4, 15)), collect(random_word(rng, 4, 15))
            assert shift_embed(mul(a, b), 2, 7) == mul(shift_embed(a, 2, 7), shift_embed(b, 2, 7))

    def test_preserves_orders(self):
        e = finite_order_element(5, [[0] * 5, [1, 0, 0, 0, 0]])
        assert order(shift_embed(e, 0, 7)) == 5
        assert order(shift_embed(e, 2, 7)) == 5

    def test_range_checks(self):
        with pytest.raises(DomainError):
            shift_embed(identity(5), 3, 7)


class TestCycleTypes:
    def test_single_block(self):
        e = element_with_cycle_type(5, [5])
        assert order(e) == 5 and e.perm.cycle_type() == (5,)

    def test_two_blocks_lcm(self):
        e = element_with_cycle_type(12, [5, 7])
        assert order(e) == 35 and e.perm.cycle_type() == (7, 5)
        # the parts are read once, so a one-shot iterable gives the same element
        assert element_with_cycle_type(12, (p for p in [5, 7])) == e

    def test_repeated_blocks(self):
        e = element_with_cycle_type(10, [5, 5])
        assert order(e) == 5 and e.perm.cycle_type() == (5, 5)

    def test_fixed_points_allowed(self):
        e = element_with_cycle_type(7, [1, 5, 1])
        assert order(e) == 5 and e.perm.cycle_type() == (5, 1, 1)
        assert e.perm.image[0] == 1

    def test_commuting_blocks(self):
        # the two shifted order-5 blocks commute, and the subgroup they
        # generate consists of order-5 elements and the identity
        x = shift_embed(element_with_cycle_type(5, [5]), 0, 10)
        y = shift_embed(element_with_cycle_type(5, [5]), 5, 10)
        assert mul(x, y) == mul(y, x)
        for i in range(5):
            for j in range(5):
                e = mul(power(x, i), power(y, j))
                assert order(e) == (1 if i == j == 0 else 5)

    def test_a_block_builds_at_most_two_orbit_bases(self, monkeypatch):
        calls = counted(monkeypatch, orbits, "orbit_basis_of")
        assert order(element_with_cycle_type(11, [11])) == 11
        assert calls[0] <= 2

    def test_a_block_builds_one_orbit_basis(self, monkeypatch):
        calls = counted(monkeypatch, orbits, "orbit_basis_of")
        element_with_cycle_type(11, [11])
        assert calls[0] == 1

    def test_the_block_product_is_chained_on_one_state(self, monkeypatch):
        # each block's theta * delta is one product; the blocks are multiplied in with _times and frozen once
        expected = element_with_cycle_type(12, [5, 7])
        freezes, muls = counted(monkeypatch, torsion, "_freeze"), counted(monkeypatch, torsion, "mul")
        assert element_with_cycle_type(12, [5, 7]) == expected
        assert (freezes[0], muls[0]) == (1, 2)

    def test_a_first_column_residue_matrix_normalises_only_its_nonzero_cells(self, monkeypatch):
        calls = counted(monkeypatch, CommPart, "_norm")
        element_with_cycle_type(23, [23])
        assert calls[0] <= 30

    def test_invalid_parts(self):
        with pytest.raises(DomainError):
            element_with_cycle_type(10, [4])
        with pytest.raises(DomainError):
            element_with_cycle_type(9, [5, 5])


class TestSpectrum:
    def test_reference_values(self):
        assert torsion_spectrum(4) == []
        assert torsion_spectrum(5) == [5]
        assert torsion_spectrum(12) == [5, 7, 11, 35]

    def test_monotone_in_strands(self):
        for n in range(1, 14):
            assert set(torsion_spectrum(n)) <= set(torsion_spectrum(n + 1))

    def test_equals_brute_force_partition_search(self):
        # every multiset of admissible parts fitting in n strands, as the search was first written
        for n in range(1, 41):
            parts = [p for p in range(5, n + 1) if math.gcd(p, 6) == 1]
            found = {math.lcm(*combo) for size in range(1, n // 5 + 1)
                     for combo in combinations_with_replacement(parts, size) if sum(combo) <= n}
            assert torsion_spectrum(n) == sorted(found)

    def test_every_order_is_realised(self):
        for n in (5, 7, 11, 12, 13):
            for tau in torsion_spectrum(n):
                parts = _partition_with_lcm(n, tau)
                e = element_with_cycle_type(n, parts)
                assert order(e) == tau


def _partition_with_lcm(n: int, tau: int) -> list[int]:
    """Smallest-first search for admissible parts with the requested lcm."""
    admissible = [p for p in range(5, n + 1) if math.gcd(p, 6) == 1]

    def search(prefix, budget, last):
        if prefix and math.lcm(*prefix) == tau:
            return list(prefix)
        for p in admissible:
            if p < last or p > budget:
                continue
            found = search(prefix + [p], budget - p, p)
            if found:
                return found
        return None

    result = search([], n, 0)
    assert result is not None, (n, tau)
    return result


class TestNoSmallTorsion:
    def test_sampled_elements_with_even_or_triple_permutation_order(self):
        rng = random.Random(47)
        for n in (3, 4, 5, 6):
            checked = 0
            while checked < 120:
                e = collect(random_word(rng, n, 25))
                q = e.perm.order()
                if q % 2 == 0 or q % 3 == 0:
                    assert order(e) is None
                    checked += 1


class TestConjugacy:
    def test_decide_requires_finite_order(self):
        with pytest.raises(DomainError):
            conjugacy_decide(sigma(5, 1), sigma(5, 1))

    def test_decide_requires_matching_strands(self):
        with pytest.raises(DomainError):
            conjugacy_decide(identity(5), identity(6))

    def test_decide_by_cycle_type(self):
        a = element_with_cycle_type(10, [5])
        b = element_with_cycle_type(10, [5, 5])
        assert not conjugacy_decide(a, b)
        assert conjugacy_decide(a, conj(sigma(10, 7), a))

    def test_conjugating_permutation_convention(self):
        rng = random.Random(53)
        for _ in range(100):
            pa = collect(random_word(rng, 6, 20)).perm
            pbase = collect(random_word(rng, 6, 20)).perm
            pb = (pbase * pa) * pbase.inverse()
            rho = conjugating_permutation(pa, pb)
            assert (rho * pa) * rho.inverse() == pb

    def test_witness_identity_case(self):
        a = element_with_cycle_type(5, [5])
        g = conjugacy_witness(a, a)
        assert conj(g, a) == a

    def test_witness_random_round_trips(self):
        rng = random.Random(59)
        a = finite_order_element(5, [[0] * 5, [1, 0, 0, 0, 0]])
        for _ in range(25):
            g0 = collect(random_word(rng, 5, 25))
            b = conj(g0, a)
            g = conjugacy_witness(a, b)
            assert conj(g, a) == b

    def test_witness_between_independent_constructions(self):
        # different residue assignments with the same row sums give conjugate
        # order-5 elements; the witness must connect them
        a = finite_order_element(5, [[0] * 5, [1, 0, 0, 0, 0]])
        b = finite_order_element(5, [[2, -1, 0, -1, 0], [0, 0, 1, 0, 0]])
        assert order(a) == order(b) == 5
        g = conjugacy_witness(a, b)
        assert conj(g, a) == b

    def test_witness_mismatch_raises(self):
        a = element_with_cycle_type(10, [5])
        b = element_with_cycle_type(10, [5, 5])
        with pytest.raises(DomainError):
            conjugacy_witness(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_witness_conjugates_and_the_skipped_order_agrees(self, data):
        # every admissible cycle type on n <= 11 strands, its blocks after a random run of fixed points, and
        # conjugated by its own random element on each side, so either input may be the sparser
        cycles = data.draw(st.sampled_from(((), (5,), (7,), (11,), (5, 5))))
        n = data.draw(st.integers(max(sum(cycles), 1), 11))
        e = element_with_cycle_type(n, [1] * data.draw(st.integers(0, n - sum(cycles))) + list(cycles))
        a, b = (conj(data.draw(elements(n)), e) for _ in range(2))
        g = conjugacy_witness(a, b)
        assert conj(g, a) == b
        assert order(b) == order(a)
