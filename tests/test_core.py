"""Unit tests for the collection engine and its conjugation rules."""

from __future__ import annotations

import dataclasses
import json
import random
import re
from itertools import permutations as all_permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidnil import core
from braidnil.core import (
    BraidWord,
    CommPart,
    DomainError,
    NilElement,
    Permutation,
    PurePart,
    _lex_reduced_word,
    collect,
    comm_gen,
    comm_gen_word,
    commutator_word,
    conj,
    conjugation_step,
    dumps_canonical,
    element_from_dict,
    element_to_dict,
    identity,
    inv,
    mul,
    order,
    pairs,
    power,
    pure_gen,
    pure_gen_word,
    sigma,
    tits_lift,
    triples,
    word_from_dict,
    word_to_dict,
)
from braidnil.expr import Expression, parse
from braidnil.invariants import dimension_table, hirsch_length, holonomy_matrix, lcs_rank, orientability_check
from braidnil.orbits import orbit_partition
from braidnil.presentations import full_twist, pure_presentation
from braidnil.torsion import (
    compatible_residues,
    conjugacy_witness,
    conjugating_permutation,
    delta,
    delta_power_coefficients,
    element_with_cycle_type,
    finite_order_element,
    torsion_spectrum,
)
from conftest import (
    _bracket,
    _pair_action,
    _triple_action,
    coordinate_arguments,
    coordinates_before,
    counted,
    descent_greedy_word,
    element_documents,
    element_from_dict_before,
    elements,
    inversions,
    outcome,
    random_word,
    shift_embed,
    transposition,
    two_product_conj,
    word_permutation,
)


def delta5_word() -> BraidWord:
    return BraidWord(5, ((4, 1), (3, 1), (2, -1), (1, -1)))


class TestPermutation:
    def test_left_to_right_composition(self):
        p = Permutation((2, 1, 3))
        q = Permutation((1, 3, 2))
        assert (p * q).image[0] == q.image[p.image[0] - 1] == 3

    def test_word_permutation_is_a_homomorphism(self):
        w = BraidWord(3, ((1, 1), (2, 1)))
        assert word_permutation(w).image == collect(w).perm.image == (3, 1, 2)
        w = BraidWord(3, ((2, 1), (1, 1)))
        assert word_permutation(w).image == collect(w).perm.image == (2, 3, 1)

    def test_inverse_and_order(self):
        p = Permutation((2, 3, 4, 5, 1))
        assert (p * p.inverse()).is_identity()
        assert p.order() == 5
        assert Permutation((2, 1, 4, 5, 3)).cycle_type() == (3, 2)

    def test_rejects_non_bijections(self):
        with pytest.raises(DomainError):
            Permutation((1, 1, 3))


class TestTitsLift:
    def test_identity_lifts_to_empty_word(self):
        assert tits_lift(Permutation.identity(5)).letters == ()

    def test_transposition_lifts_to_single_letter(self):
        for n in (2, 3, 6):
            for k in range(1, n):
                assert tits_lift(transposition(n, k)).letters == ((k, 1),)

    def test_three_cycle_unique_reduced_word(self):
        # the 3-cycle 1->2->3->1 has exactly one reduced word under the
        # left-to-right convention, namely s2 s1
        lift = tits_lift(Permutation((2, 3, 1)))
        assert lift.letters == ((2, 1), (1, 1))
        assert collect(lift).perm.image == (2, 3, 1)

    @staticmethod
    def _reduced_words(perm: Permutation):
        # enumerate every reduced word by peeling position descents
        if perm.is_identity():
            yield ()
            return
        img = perm.image
        for k in range(1, perm.n):
            if img[k - 1] > img[k]:
                shorter = list(img)
                shorter[k - 1], shorter[k] = shorter[k], shorter[k - 1]
                for rest in TestTitsLift._reduced_words(Permutation(tuple(shorter))):
                    yield (k,) + rest

    def test_lift_is_lex_smallest_reduced_word(self):
        for n in (2, 3, 4):
            for image in all_permutations(range(1, n + 1)):
                perm = Permutation(image)
                words = sorted(self._reduced_words(perm))
                lift = tits_lift(perm)
                assert tuple(k for k, _ in lift.letters) == words[0]
                assert len(lift.letters) == inversions(perm.image)
                assert collect(lift).perm == perm

    def test_reduced_word_equals_the_descent_greedy_definition(self):
        # the section builds the greedy word as an insertion sort; the oracle backtracks through the descents
        rng = random.Random(1)
        images = [image for n in range(1, 8) for image in all_permutations(range(1, n + 1))]
        images += [tuple(rng.sample(range(1, 33), 32)) for _ in range(200)]
        for image in images:
            word = _lex_reduced_word(image)
            assert word == descent_greedy_word(image)
            assert len(word) == inversions(image)

    def test_all_reduced_words_collect_equally(self):
        # exchange-property invariance: the section does not depend on the word
        for image in all_permutations(range(1, 5)):
            perm = Permutation(image)
            elements = {
                collect(BraidWord(4, tuple((k, 1) for k in word)))
                for word in self._reduced_words(perm)
            }
            assert len(elements) == 1

    def test_multiplicative_on_length_additive_products(self):
        rng = random.Random(7)
        hits = 0
        while hits < 60:
            w = random_word(rng, 5, 10)
            p = word_permutation(w)
            q = word_permutation(random_word(rng, 5, 10))
            if inversions((p * q).image) == inversions(p.image) + inversions(q.image):
                hits += 1
                assert mul(collect(tits_lift(p)), collect(tits_lift(q))) == collect(tits_lift(p * q))


class TestCommStructure:
    def test_defining_bracket(self):
        assert _bracket((1, 2), (2, 3)) == ((1, 2, 3), 1)

    def test_shared_maximum_bracket_is_inverse(self):
        assert _bracket((1, 3), (2, 3)) == ((1, 2, 3), -1)

    def test_disjoint_pairs_commute(self):
        assert _bracket((1, 2), (3, 4)) is None
        assert _bracket((1, 2), (1, 2)) is None

    def test_antisymmetry(self):
        for p in pairs(5):
            for q in pairs(5):
                hit = _bracket(q, p)
                assert _bracket(p, q) == (None if hit is None else (hit[0], -hit[1]))

    def test_matches_collected_commutator_words(self):
        for p in pairs(4):
            for q in pairs(4):
                e = collect(commutator_word(pure_gen_word(4, *p), pure_gen_word(4, *q)))
                assert e.perm.is_identity() and e.pure.is_zero()
                hit = _bracket(p, q)
                assert e.comm == CommPart.from_map(4, [] if hit is None else [hit])

    def test_bilinearity_in_exponents(self):
        # [X^a, Y^b] carries coefficient a*b on the bracket of the generators
        for a, b in ((2, 3), (-1, 4), (-2, -5)):
            lhs = collect(BraidWord(5, ()))  # identity accumulator
            x = power(pure_gen(5, 1, 2), a)
            y = power(pure_gen(5, 2, 4), b)
            lhs = mul(mul(mul(x, y), inv(x)), inv(y))
            assert lhs.perm.is_identity() and lhs.pure.is_zero()
            assert lhs.comm.as_map() == {(1, 2, 4): a * b}


def level2(n: int, mapping) -> NilElement:
    return NilElement(n, Permutation.identity(n), PurePart.zero(n), CommPart.from_map(n, mapping))


@st.composite
def element_tuples(draw, count=2):
    """count elements collected from random words at one strand count, with extra graded noise."""
    n = draw(st.integers(2, 10))
    letters = st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=30)
    keys = list(pairs(n)) + list(triples(n))
    out = []
    for _ in range(count):
        noise = draw(st.dictionaries(st.sampled_from(keys), st.integers(-3, 3), max_size=12))
        graded = NilElement(n, Permutation.identity(n),
                            PurePart.from_map(n, {k: e for k, e in noise.items() if len(k) == 2}),
                            CommPart.from_map(n, {k: e for k, e in noise.items() if len(k) == 3}))
        out.append(mul(collect(BraidWord(n, tuple(draw(letters)))), graded))
    return tuple(out)


class TestGeneratorConjugation:
    def test_pair_rule_second_index_descends(self):
        assert _pair_action(1, 3, 2, 1) == ((1, 2), ((1, 2, 3), -1))
        assert conj(sigma(5, 2), pure_gen(5, 1, 3)) == mul(pure_gen(5, 1, 2), level2(5, {(1, 2, 3): -1}))

    def test_pair_rule_disjoint(self):
        assert _pair_action(1, 2, 3, 1) == ((1, 2), None)
        assert conj(sigma(5, 3), pure_gen(5, 1, 2)) == pure_gen(5, 1, 2)

    def test_pair_rule_inverse_direction_by_round_trip(self):
        # the derived eps=-1 value for ((1,3), k=2) is a plain relabelling
        assert _pair_action(1, 3, 2, -1) == ((1, 2), None)
        assert conj(sigma(5, 2, -1), pure_gen(5, 1, 3)) == pure_gen(5, 1, 2)

    def test_pair_round_trip_all_cases(self):
        # conjugating with (k, eps) then (k, -eps) must restore the input with
        # zero net correction; checked through the engine on generator elements
        for n in range(2, 7):
            for (i, j) in pairs(n):
                a = pure_gen(n, i, j)
                for k in range(1, n):
                    for eps in (1, -1):
                        s = sigma(n, k, eps)
                        assert conj(inv(s), conj(s, a)) == a
                        # and the oracle's rule matches the engine
                        p2, corr = _pair_action(i, j, k, eps)
                        assert conj(s, a) == mul(pure_gen(n, *p2), level2(n, [] if corr is None else [corr]))

    def test_triple_rule_examples(self):
        t = (1, 2, 3)
        assert conj(sigma(5, 3), comm_gen(5, t)) == conj(sigma(5, 3, -1), comm_gen(5, t))
        assert conjugation_step(transposition(5, 3), CommPart)(t) == ((1, 2, 4), 1)
        assert conjugation_step(transposition(5, 2), CommPart)(t) == ((1, 2, 3), -1)
        assert conjugation_step(transposition(5, 1), CommPart)((2, 3, 5)) == ((1, 3, 5), 1)

    def test_triple_round_trip_and_engine_agreement(self):
        for n in (3, 4, 5):
            for k in range(1, n):
                act = conjugation_step(transposition(n, k), CommPart)
                for t in triples(n):
                    u, s = act(t)
                    back, back_sign = act(u)
                    assert back == t and back_sign * s == 1
                    assert _triple_action(t, k) == (u, s)
                    for eps in (1, -1):
                        assert conj(sigma(n, k, eps), comm_gen(n, t)) == level2(n, {u: s})


def conj_pairs(n: int):
    """(g, x) on n strands: g general, pure (conjugacy witness stage 3), a bare section (stage 1), or x itself."""
    x = elements(n)
    section = st.permutations(range(1, n + 1)).map(lambda image: collect(tits_lift(Permutation(tuple(image)))))
    g = st.one_of(elements(n), elements(n, pure_only=True), section)
    return st.one_of(st.tuples(g, x), x.map(lambda e: (e, e)))


class TestGroupLaw:
    def test_two_letters_make_a_pure_generator(self):
        e = mul(mul(identity(2), sigma(2, 1)), sigma(2, 1))
        assert e == pure_gen(2, 1, 2)

    def test_single_letter_is_section_only(self):
        e = mul(identity(2), sigma(2, 1))
        assert e.perm.image == (2, 1) and e.pure.is_zero() and e.comm.is_zero()

    def test_empty_word_collects_to_identity(self):
        assert collect(BraidWord(5, ())) == identity(5)

    def test_collection_homomorphism_random(self):
        rng = random.Random(11)
        for n in (2, 3, 4, 5, 6):
            for _ in range(150):
                w1, w2 = random_word(rng, n), random_word(rng, n)
                assert collect(w1 * w2) == mul(collect(w1), collect(w2))

    def test_mul_identity_and_associativity(self):
        rng = random.Random(13)
        for _ in range(50):
            x = collect(random_word(rng, 5))
            y = collect(random_word(rng, 5))
            z = collect(random_word(rng, 5))
            assert mul(x, identity(5)) == x == mul(identity(5), x)
            assert mul(mul(x, y), z) == mul(x, mul(y, z))

    @settings(max_examples=100, deadline=None)
    @given(elements(pure_only=True))
    def test_a_pure_normal_form_is_its_level1_part_times_its_level2_part_in_either_order(self, a):
        # level 2 is central in the pure part; the conjugacy witness builds g3 g2 as one normal form by this
        n, ident = a.n, Permutation.identity(a.n)
        v, w = NilElement(n, ident, a.pure, CommPart.zero(n)), NilElement(n, ident, PurePart.zero(n), a.comm)
        assert mul(v, w) == a == mul(w, v)

    def test_mul_rejects_mismatched_strand_counts(self):
        with pytest.raises(DomainError):
            mul(identity(3), identity(4))

    def test_squared_generator_is_pure(self):
        assert mul(sigma(3, 1), sigma(3, 1)) == pure_gen(3, 1, 2)
        assert power(sigma(3, 1), 2) == pure_gen(3, 1, 2)

    def test_inverse_oracle_by_word_reversal(self):
        rng = random.Random(17)
        for n in (2, 3, 4, 5, 6):
            for _ in range(100):
                w = random_word(rng, n)
                e = collect(w)
                assert inv(e) == collect(w.inverse())
                assert mul(e, inv(e)).is_identity()
                assert mul(inv(e), e).is_identity()
                assert inv(inv(e)) == e

    def test_inverse_of_single_entry_pure_element(self):
        e = NilElement(4, Permutation.identity(4),
                       PurePart.from_map(4, {(2, 4): 3}),
                       CommPart.from_map(4, {(1, 2, 3): -2}))
        assert inv(e) == NilElement(4, Permutation.identity(4),
                                    PurePart.from_map(4, {(2, 4): -3}),
                                    CommPart.from_map(4, {(1, 2, 3): 2}))

    def test_power_agrees_with_repeated_multiplication(self):
        e = collect(delta5_word())
        assert power(e, 5) == collect(delta5_word() ** 5)
        assert power(e, -1) == inv(e)
        acc = identity(5)
        for m in range(7):
            assert power(e, m) == acc
            acc = mul(acc, e)

    def test_conj_is_a_left_action(self):
        rng = random.Random(19)
        for _ in range(40):
            g, h, x = (collect(random_word(rng, 5)) for _ in range(3))
            assert conj(g, conj(h, x)) == conj(mul(g, h), x)
            assert conj(identity(5), x) == x

    @settings(max_examples=60, deadline=None)
    @given(element_tuples(3))
    def test_conj_is_a_left_action_on_random_elements(self, ghx):
        g, h, x = ghx
        assert conj(g, conj(h, x)) == conj(mul(g, h), x)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8).flatmap(conj_pairs))
    def test_conj_agrees_with_two_products_and_an_inverse(self, gx):
        g, x = gx
        assert conj(g, x) == two_product_conj(g, x)
        assert mul(conj(g, x), g) == mul(g, x)  # a check that builds no inverse, so it does not share inv's code

    def test_conj_builds_neither_a_product_nor_an_inverse(self, monkeypatch):
        rng = random.Random(29)
        g, x = (collect(random_word(rng, 7)) for _ in range(2))
        expected = two_product_conj(g, x)
        muls, invs = counted(monkeypatch, core, "mul"), counted(monkeypatch, core, "inv")
        assert conj(g, x) == expected
        assert (muls[0], invs[0]) == (0, 0)

    def test_conjugation_of_basis_depends_only_on_permutation(self):
        rng = random.Random(23)
        for _ in range(30):
            g = collect(random_word(rng, 5))
            noise = NilElement(5, Permutation.identity(5),
                               PurePart.from_map(5, {(1, 4): rng.randint(-3, 3)}),
                               CommPart.from_map(5, {(2, 3, 5): rng.randint(-3, 3)}))
            h = mul(g, noise)
            assert g.perm == h.perm
            t = rng.choice(list(triples(5)))
            assert conj(g, comm_gen(5, t)) == conj(h, comm_gen(5, t))

    def test_cycle_element_shifts_triple_indices_down(self):
        d5 = collect(delta5_word())
        for t in triples(5):
            if t[0] >= 2:
                shifted = (t[0] - 1, t[1] - 1, t[2] - 1)
                assert conj(d5, comm_gen(5, t)) == comm_gen(5, shifted)


class TestOrder:
    def test_identity_has_order_one(self):
        assert order(identity(4)) == 1

    def test_generators_have_infinite_order(self):
        for n in (3, 4, 5, 6):
            assert order(sigma(n, 1)) is None

    def test_nontrivial_kernel_element_with_trivial_permutation(self):
        assert order(pure_gen(3, 1, 2)) is None
        assert order(comm_gen(4, (1, 2, 4))) is None

    def test_order_five_element(self):
        e = mul(comm_gen(5, (1, 2, 4)), collect(delta5_word()))
        assert order(e) == 5
        assert order(collect(delta5_word())) is None


class TestFaithfulness:
    def test_symmetric_group_acts_injectively_on_level_two(self):
        # exhaustive for 4 and 5 strands: only the identity fixes every
        # signed basis vector
        for n in (4, 5):
            trivial = []
            for image in all_permutations(range(1, n + 1)):
                perm = Permutation(image)
                act = conjugation_step(perm, CommPart)
                if all(act(t) == (t, 1) for t in triples(n)):
                    trivial.append(perm)
            assert trivial == [Permutation.identity(n)]


class TestJson:
    def test_element_round_trip(self):
        rng = random.Random(29)
        for _ in range(50):
            e = collect(random_word(rng, 5))
            assert element_from_dict(element_to_dict(e)) == e

    def test_word_round_trip(self):
        w = BraidWord(5, ((1, 1), (2, -1)))
        assert word_from_dict(word_to_dict(w)) == w
        assert word_to_dict(w) == {"n": 5, "word": [[1, 1], [2, -1]]}

    def test_canonical_dump_shape(self):
        e = mul(pure_gen(5, 1, 2), comm_gen(5, (1, 2, 4)))
        e = mul(e, inv(pure_gen(5, 3, 5)))
        e = mul(e, inv(pure_gen(5, 3, 5)))
        assert dumps_canonical(element_to_dict(e)) == (
            '{"comm":[[1,2,4,1]],"n":5,"perm":[1,2,3,4,5],"pure":[[1,2,1],[3,5,-2]]}'
        )

    @settings(max_examples=60, deadline=None)
    @given(element_tuples(1), st.integers(0, 40).map(lambda k: 10 ** k + 3), st.sampled_from((1, -1)))
    def test_element_json_round_trip(self, xs, big, sign):
        x = xs[0]
        for e in (x, mul(x, power(pure_gen(x.n, 1, 2), sign * big))):
            assert element_from_dict(json.loads(dumps_canonical(element_to_dict(e)))) == e

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 10).flatmap(lambda n: st.builds(
        BraidWord, st.just(n), st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))),
                                        max_size=30).map(tuple))))
    def test_word_json_round_trip(self, w):
        assert word_from_dict(json.loads(dumps_canonical(word_to_dict(w)))) == w

    def test_malformed_element_rejected(self):
        with pytest.raises(DomainError):
            element_from_dict({"n": 3, "perm": [1, 2]})

    @settings(max_examples=200, deadline=None)
    @given(element_documents())
    @example({"n": 3, "perm": [1, 2, 3], "pure": [[1, 3, 1]], "comm": []})  # the largest index is n
    @example({"n": 3, "perm": [1, 2, 3], "pure": [[1, 2, True]], "comm": []})  # true is no integer
    @example({"n": 4, "perm": [1, 2, 3, 4], "pure": [], "comm": [[1, 2, 4, 1], [1, 2, 3, -1]]})  # rows out of order
    def test_the_reader_gives_the_element_or_the_error_of_its_earlier_form(self, doc):
        expected = outcome(element_from_dict_before, doc)
        with pytest.MonkeyPatch.context() as mp:
            calls = [counted(mp, part, "from_map") for part in (PurePart, CommPart)]
            got = outcome(element_from_dict, doc)
        assert got == expected
        if got[0] == "value" and element_to_dict(got[1]) == doc:
            assert calls == [[0], [0]]  # canonical rows pass the column check, without from_map


class TestDegenerateStrandCounts:
    def test_one_strand(self):
        assert identity(1).is_identity()
        assert order(identity(1)) == 1
        with pytest.raises(DomainError):
            sigma(1, 1)

    def test_two_strands(self):
        s = sigma(2, 1)
        assert order(s) is None
        assert mul(s, s) == pure_gen(2, 1, 2)
        assert list(triples(2)) == []

    @pytest.mark.parametrize("n", [0, -1])
    def test_constructors_reject_fewer_than_one_strand(self, n):
        with pytest.raises(DomainError, match="^strand count must be at least 1$"):
            BraidWord(n, ())
        with pytest.raises(DomainError, match="^strand count must be at least 1$"):
            NilElement(n, Permutation.identity(n), PurePart.zero(n), CommPart.zero(n))
        with pytest.raises(DomainError, match="^strand count must be at least 1$"):
            identity(n)


class TestImmutability:
    def test_values_are_frozen(self):
        e = identity(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.n = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.perm.image = (1, 2, 3)


class TestCanonicalForm:
    """Outputs of the group law are canonical: sorted in-range keys, no zero, and stable round trips."""

    @staticmethod
    def assert_canonical(e: NilElement):
        n = e.n
        for part, width in ((e.pure, 2), (e.comm, 3)):
            keys = [row[:-1] for row in part.entries]
            assert all(len(key) == width and 1 <= key[0] and key[-1] <= n for key in keys)
            assert all(a < b for key in keys for a, b in zip(key, key[1:]))
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert all(row[-1] != 0 for row in part.entries)
            assert type(part).from_map(n, part.as_map()) == part
        assert element_from_dict(element_to_dict(e)) == e

    @settings(max_examples=80, deadline=None)
    @given(element_tuples(), st.integers(-4, 6))
    def test_group_law_outputs_are_canonical(self, xy, m):
        x, y = xy
        for e in (x, mul(x, y), inv(x), power(x, m), conj(y, x)):
            self.assert_canonical(e)

    def test_from_map_sums_repeated_keys_with_their_signs_and_drops_zeros(self):
        assert PurePart.from_map(5, [((2, 1), 3), ((1, 2), -3), ((4, 5), 0)]) == PurePart.zero(5)
        assert CommPart.from_map(5, [((1, 2, 3), 1), ((2, 1, 3), 1), ((1, 2, 4), 0)]) == CommPart.zero(5)
        assert CommPart.from_map(5, {(3, 1, 2): 2, (4, 2, 1): 1}).entries == ((1, 2, 3, 2), (1, 2, 4, -1))

    @pytest.mark.parametrize("part, key", [
        (PurePart, (1,)), (PurePart, (1, 2, 3)), (CommPart, (1, 2)), (CommPart, (1, 2, 3, 4)),
        (CommPart, (1, 1, 2, 3)),
    ])
    def test_wrong_width_keys_are_domain_errors(self, part, key):
        with pytest.raises(DomainError):
            part.from_map(5, {key: 1})
        with pytest.raises(DomainError):
            part.from_map(5, [(key, 1)])

    def test_constructors_reject_non_canonical_entries(self):
        with pytest.raises(DomainError):
            PurePart(3, ((9, 9, 1),))
        with pytest.raises(DomainError):
            NilElement(3, Permutation.identity(3), PurePart(3, ((1, 2, 0),)), CommPart.zero(3))
        with pytest.raises(DomainError):
            PurePart(3, ((2, 3, 1), (1, 2, 1)))
        with pytest.raises(DomainError):
            CommPart(4, ((1, 3, 2, 1),))
        with pytest.raises(DomainError):
            PurePart(3, [(1, 2, 1)])
        with pytest.raises(DomainError):
            NilElement(4, Permutation.identity(4), PurePart.zero(3), CommPart.zero(4))
        with pytest.raises(DomainError):
            NilElement(3, Permutation.identity(3), CommPart.zero(3), PurePart.zero(3))

    @settings(max_examples=200, deadline=None)
    @given(coordinate_arguments())
    @example((PurePart, 3, ((1, 3, 1),)))  # the largest index is n
    @example((PurePart, 3, ((1, 2, True),)))  # True is no int, though it compares as 1
    @example((CommPart, 4, ((1, 2, 4, 1), (1, 2, 3, -1))))  # rows out of order
    def test_a_constructor_gives_the_value_or_the_error_of_from_map_and_compare(self, args):
        assert outcome(*args) == outcome(coordinates_before, *args)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5), st.sampled_from((PurePart, CommPart)), st.data())
    def test_constructor_raises_or_equals_its_from_map_form(self, n, part, data):
        index = st.integers(0, n + 1)
        rows = data.draw(st.lists(st.tuples(*[index] * part.arity, st.integers(-2, 2)), max_size=6).map(tuple))
        try:
            canonical = part.from_map(n, [(row[:-1], row[-1]) for row in rows])
        except DomainError:
            canonical = None
        if canonical is None or canonical.entries != rows:
            with pytest.raises(DomainError):
                part(n, rows)
        else:
            assert part(n, rows) == canonical
            e = NilElement(n, Permutation.identity(n), *(
                (canonical, CommPart.zero(n)) if part is PurePart else (PurePart.zero(n), canonical)))
            assert e.is_identity() == (not rows)

    def test_the_group_law_runs_no_permutation_check(self, monkeypatch):
        # the fold keeps the image a permutation, so results are built unchecked
        rng = random.Random(67)
        word = random_word(rng, 6, 30)
        x, y = collect(random_word(rng, 6, 30)), collect(random_word(rng, 6, 30))
        expected = (collect(word), mul(x, y), inv(x))

        def checked(self):
            raise AssertionError(f"checked Permutation {self.image}")

        monkeypatch.setattr(Permutation, "__post_init__", checked)
        assert (collect(word), mul(x, y), inv(x)) == expected

    def test_comm_gen_rejects_a_pair(self):
        with pytest.raises(DomainError):
            comm_gen(5, (1, 2))

    @pytest.mark.parametrize("order", list(all_permutations((1, 2, 4))))
    def test_a_generator_word_carries_the_sign_of_its_order(self, order):
        assert collect(comm_gen_word(5, order)) == comm_gen(5, order)

    @pytest.mark.parametrize("triple", [(1, 2), (1, 1, 2), (1, 2, 9)])
    def test_a_bad_generator_word_key_names_its_triple(self, triple):
        with pytest.raises(DomainError, match=f"^invalid triple {re.escape(str(triple))} for n=5$"):
            comm_gen_word(5, triple)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: PurePart(3, ((1.0, 2, 1),)), id="float-index"),
        pytest.param(lambda: PurePart(3, ((True, 2, 1),)), id="bool-index"),
        pytest.param(lambda: PurePart(3, ((1, 2, True),)), id="bool-exponent"),
        pytest.param(lambda: PurePart.from_map(3, {(1, 2): 2.5}), id="from-map-float-exponent"),
        pytest.param(lambda: PurePart.from_map(3, {(1, 2): True}), id="from-map-bool-exponent"),
        pytest.param(lambda: CommPart.from_map(3, {(1, 2.0, 3): 1}), id="from-map-float-index"),
        pytest.param(lambda: Permutation((1.0, 2.0, 3.0)), id="float-image"),
        pytest.param(lambda: Permutation((True, 2)), id="bool-image"),
        pytest.param(lambda: collect(BraidWord(3, ((1.0, 1),))), id="word-float-index"),
        pytest.param(lambda: BraidWord(3, ((True, 1),)), id="word-bool-index"),
        pytest.param(lambda: BraidWord(3, ((1, True),)), id="word-bool-sign"),
        pytest.param(lambda: BraidWord(3, ((1, 1.0),)), id="word-float-sign"),
        pytest.param(lambda: BraidWord(True, ()), id="word-bool-strands"),
        pytest.param(lambda: NilElement(True, Permutation((1,)), PurePart(True, ()), CommPart(True, ())),
                     id="element-bool-strands"),
        pytest.param(lambda: NilElement(True, Permutation((1,)), PurePart(1, ()), CommPart(1, ())),
                     id="element-bool-strands-int-parts"),
        pytest.param(lambda: PurePart(3.5, ()), id="pure-float-strands"),
        pytest.param(lambda: CommPart.from_map(2.5, {}), id="from-map-float-strands"),
    ])
    def test_only_ints_cross_the_value_boundary(self, build):
        with pytest.raises(DomainError):
            build()

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: torsion_spectrum(True), "strand count must be an int, got True", id="spectrum-bool"),
        pytest.param(lambda: torsion_spectrum(5.0), "strand count must be an int, got 5.0", id="spectrum-float"),
        pytest.param(lambda: lcs_rank(5, 2.0), "q must be an int, got 2.0", id="rank-float-q"),
        pytest.param(lambda: lcs_rank(True, 2), "n must be an int, got True", id="rank-bool-n"),
        pytest.param(lambda: hirsch_length(5, 3.0), "k must be an int, got 3.0", id="hirsch-float-k"),
        pytest.param(lambda: dimension_table(4.0, 3), "n_max must be an int, got 4.0", id="table-float-nmax"),
        pytest.param(lambda: dimension_table(4, True), "k_max must be an int, got True", id="table-bool-kmax"),
        pytest.param(lambda: element_with_cycle_type(5, [True]), "cycle length must be an int, got True",
                     id="cycle-type-bool"),
        pytest.param(lambda: element_with_cycle_type(5, [5.0]), "cycle length must be an int, got 5.0",
                     id="cycle-type-float"),
        pytest.param(lambda: parse("s1", 3.0), "strand count must be an int, got 3.0", id="parse-float-n"),
        pytest.param(lambda: parse("", True), "strand count must be an int, got True", id="parse-bool-n"),
        pytest.param(lambda: identity(3.0), "strand count must be an int, got 3.0", id="identity-float"),
        pytest.param(lambda: Permutation.identity(3.0), "strand count must be an int, got 3.0",
                     id="permutation-identity-float"),
        pytest.param(lambda: pairs(3.0), "strand count must be an int, got 3.0", id="pairs-float"),
        pytest.param(lambda: triples(True), "strand count must be an int, got True", id="triples-bool"),
        pytest.param(lambda: pure_gen(3.0, 1, 2), "strand count must be an int, got 3.0", id="pure-gen-float"),
        pytest.param(lambda: comm_gen(3.0, (1, 2, 3)), "strand count must be an int, got 3.0", id="comm-gen-float"),
        pytest.param(lambda: orbit_partition(5.0), "strand count must be an int, got 5.0", id="orbits-float"),
        pytest.param(lambda: delta_power_coefficients(5.0), "strand count must be an int, got 5.0",
                     id="delta-pow-float"),
        pytest.param(lambda: compatible_residues(5.0), "strand count must be an int, got 5.0", id="residues-float"),
        pytest.param(lambda: finite_order_element(5.0, []), "strand count must be an int, got 5.0",
                     id="finite-order-float"),
        pytest.param(lambda: element_with_cycle_type(5.0, [5]), "strand count must be an int, got 5.0",
                     id="cycle-type-float-n"),
        pytest.param(lambda: delta(0, 5.0, 5), "cycle length must be an int, got 5.0", id="delta-float-k"),
        pytest.param(lambda: delta(True, 3, 5), "block offset must be an int, got True", id="delta-bool-r"),
        # shift_embed is the cycle-type oracle's helper in conftest, with the library's int checks
        pytest.param(lambda: shift_embed(sigma(3, 1), 1.0, 5), "offset must be an int, got 1.0",
                     id="shift-float-offset"),
        pytest.param(lambda: shift_embed(sigma(3, 1), True, 5), "offset must be an int, got True",
                     id="shift-bool-offset"),
        pytest.param(lambda: shift_embed(sigma(3, 1), 0, 5.0), "strand count must be an int, got 5.0",
                     id="shift-float-n"),
        pytest.param(lambda: full_twist(3.0), "strand count must be an int, got 3.0", id="full-twist-float"),
        pytest.param(lambda: pure_presentation(3.0), "strand count must be an int, got 3.0", id="pn3-float"),
        pytest.param(lambda: orientability_check(3.0, [sigma(3, 1)]), "strand count must be an int, got 3.0",
                     id="orientability-float"),
        # int inputs keep the messages the CLI prints
        pytest.param(lambda: torsion_spectrum(0), "strand count must be at least 1", id="spectrum-zero"),
        pytest.param(lambda: lcs_rank(1, 2), "need n >= 2 and q >= 1, got n=1, q=2", id="rank-small-n"),
        pytest.param(lambda: dimension_table(2, 2), "table bounds must be at least n=3, k=2", id="table-small"),
        pytest.param(lambda: parse("s1", 0), "generator index 1 out of range for n=0", id="parse-zero-n"),
        pytest.param(lambda: orbit_partition(2), "orbit partition needs at least 3 strands", id="orbits-small"),
        pytest.param(lambda: full_twist(1), "full twist needs at least 2 strands", id="full-twist-small"),
        pytest.param(lambda: delta(0, 4, 5), "cycle length must be odd and >= 3, got 4", id="delta-even-k"),
    ])
    def test_numeric_entry_points_take_only_ints(self, call, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: Permutation.identity(0), id="permutation-identity-zero"),
        pytest.param(lambda: Permutation(()), id="permutation-empty"),
        pytest.param(lambda: pairs(0), id="pairs-zero"),
        pytest.param(lambda: triples(-1), id="triples-negative"),
        pytest.param(lambda: orientability_check(0, []), id="orientability-zero"),
        pytest.param(lambda: orientability_check(-1, []), id="orientability-negative"),
        pytest.param(lambda: element_with_cycle_type(0, []), id="cycle-type-zero"),
        pytest.param(lambda: element_with_cycle_type(-1, []), id="cycle-type-negative"),
    ])
    def test_every_strand_count_is_at_least_one(self, call):
        with pytest.raises(DomainError, match="^strand count must be at least 1$"):
            call()

    @pytest.mark.parametrize("terms, message", [
        pytest.param(((("gen", 0, 1), 1),), "generator index 0 out of range for n=3", id="index-zero"),
        pytest.param(((("gen", 3, 1), 1),), "generator index 3 out of range for n=3", id="index-past-n"),
        pytest.param(((("gen", 1, 5), 1),), "letter sign must be +1 or -1, got 5", id="sign-five"),
        pytest.param(((("gen", 1, True), 1),), "letter sign must be +1 or -1, got True", id="bool-sign"),
        pytest.param(((("gen", 1.0, 1), 1),), "generator index 1.0 out of range for n=3", id="float-index"),
        pytest.param(((("A", (1, True)), 1),), "invalid pair (1, True) for n=3", id="bool-key"),
        pytest.param(((("gen", 1, 1), 2.0),), "exponent must be an int, got 2.0", id="float-exponent"),
        pytest.param(((("B", (1, 2)), 1),), "unknown or malformed atom ('B', (1, 2))", id="unknown-kind"),
        pytest.param(((("A", 5), 1),), "unknown or malformed atom ('A', 5)", id="key-not-a-tuple"),
        pytest.param(((([], (1, 2)), 1),), "unknown or malformed atom ([], (1, 2))", id="unhashable-kind"),
        pytest.param(((("gen", 1, 1), 1), ((), 1)), "unknown or malformed atom ()", id="empty-atom"),
        pytest.param(((("gen", 1, 1),),), "a term is an (atom, exponent) pair, got (('gen', 1, 1),)",
                     id="no-exponent"),
        pytest.param([(("gen", 1, 1), 1)], "terms must be a tuple, got list", id="list-of-terms"),
        pytest.param(((("group", ((("gen", 1, -2), 1),)), 1),), "letter sign must be +1 or -1, got -2",
                     id="nested-sign"),
        # each distinct term object is checked once, and the first that fails is named
        pytest.param(((("gen", 1, 1), 1),) * 2 + ((("gen", 5, 1), 1), (("gen", 0, 1), 1)) * 2,
                     "generator index 5 out of range for n=3", id="shared-terms"),
    ])
    def test_an_expression_checks_its_own_terms(self, terms, message):
        # parse is not the only way in: an Expression built directly is checked as a parsed one is
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Expression(3, terms)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: conjugacy_witness(identity(5), identity(6)), "elements live on different strand counts",
                     id="witness-strands"),
        pytest.param(lambda: conjugating_permutation(Permutation((2, 1, 3)), Permutation((1, 2, 3))),
                     "permutations have different cycle types", id="conjugating-permutation"),
        pytest.param(lambda: orientability_check(4, [sigma(3, 1)]), "generator strand count mismatch",
                     id="orientability-strands"),
        pytest.param(lambda: dimension_table(4, 3).entry(9, 9), "no entry for (n=9, k=9)", id="table-entry"),
        pytest.param(lambda: Permutation((1, 2)) * Permutation((1, 2, 3)),
                     "cannot compose permutations of different sizes", id="permutation-sizes"),
        pytest.param(lambda: BraidWord(3, ()) * BraidWord(4, ()),
                     "cannot concatenate words on different strand counts", id="word-strands"),
        pytest.param(lambda: PurePart(3, ((),)), "invalid entry () for n=3", id="empty-entry"),
        pytest.param(lambda: conj(identity(5), identity(6)), "cannot multiply elements on different strand counts",
                     id="conj-strands"),
        # a pair basis that is no rearrangement of the pair keys: lists, not tuples; no iterable; a float index
        pytest.param(lambda: holonomy_matrix(identity(3), [[1, 3], [2, 3], [1, 2]]),
                     "the pair basis order must enumerate every pair exactly once", id="holonomy-list-keys"),
        pytest.param(lambda: holonomy_matrix(identity(3), 5),
                     "the pair basis order must enumerate every pair exactly once", id="holonomy-not-iterable"),
        pytest.param(lambda: holonomy_matrix(identity(3), ((1, 3), (2, 3), (1, 2.0))),
                     "the pair basis order must enumerate every pair exactly once", id="holonomy-float-key"),
        # from_map on a key that is no iterable, an item that is no (key, exponent) pair, a mapping that is neither
        pytest.param(lambda: PurePart.from_map(3, [(5, 1)]), "invalid pair 5 for n=3", id="from-map-int-key"),
        pytest.param(lambda: PurePart.from_map(3, [(1, 2, 3)]),
                     "a pair map item must be a (key, exponent) pair, got (1, 2, 3)", id="from-map-triple-item"),
        pytest.param(lambda: CommPart.from_map(3, 7),
                     "a triple map must be a dict or an iterable of (key, exponent) pairs, got int",
                     id="from-map-int-mapping"),
    ])
    def test_mismatched_arguments_are_domain_errors(self, call, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("letters", [[(1, 1)], ((1,),), ((1, 1, 1),), (1, 1)], ids=repr)
    def test_a_word_is_a_tuple_of_letter_pairs(self, letters):
        with pytest.raises(DomainError, match="tuple of \\(generator, sign\\) pairs"):
            BraidWord(3, letters)

    def test_derived_words_run_no_letter_check(self, monkeypatch):
        # a word's letters are checked once, when it is built from outside the word type
        w = BraidWord(4, ((1, 1), (3, -1), (2, 1)))
        expected = (w * w, w.inverse(), w ** -3, w ** 2)

        def checked(self):
            raise AssertionError(f"checked BraidWord {self.letters}")

        monkeypatch.setattr(BraidWord, "__post_init__", checked)
        assert (w * w, w.inverse(), w ** -3, w ** 2) == expected
        assert w.inverse().letters == ((2, -1), (3, 1), (1, -1))
        assert (w ** -3).letters == w.inverse().letters * 3
