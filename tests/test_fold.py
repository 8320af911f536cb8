"""The lazy-frame letter fold against the eager letter-by-letter oracle."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil.core import (
    BraidWord,
    CommPart,
    Permutation,
    PurePart,
    _fold,
    _freeze,
    _lex_reduced_word,
    _thaw,
    collect,
    conjugation_map,
    mul,
    pairs,
    triples,
)
from conftest import _pair_action, _triple_action, adjacency, eager_fold, pair_dict, random_word


def letters(n: int, max_size: int):
    return st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=max_size)


@st.composite
def states_and_letters(draw):
    """A state collected from a random word, and a random word to fold into it."""
    n = draw(st.integers(2, 12))
    state = collect(BraidWord(n, tuple(draw(letters(n, 60)))))
    return state, tuple(draw(letters(n, 30)))


def eager(state, word):
    image, nbr, comm = _thaw(state)
    pure = pair_dict(nbr)
    for k, eps in word:
        image = eager_fold(image, pure, comm, k, eps)
    return _freeze(state.n, image, adjacency(state.n, pure), comm)


@settings(max_examples=300, deadline=None)
@given(states_and_letters())
def test_fold_equals_eager_fold(case):
    state, word = case
    assert _freeze(state.n, *_fold(*_thaw(state), word)) == eager(state, word)


def test_single_letters_of_both_signs_and_both_section_cases():
    rng = random.Random(5)
    seen = set()
    for n in range(2, 9):
        for _ in range(20):
            state = collect(random_word(rng, n, 60))
            where = state.perm.inverse().image
            for k in range(1, n):
                for eps in (1, -1):
                    seen.add((eps, where[k - 1] < where[k]))
                    assert _freeze(n, *_fold(*_thaw(state), ((k, eps),))) == eager(state, ((k, eps),))
    assert seen == {(1, True), (1, False), (-1, True), (-1, False)}


def test_collect_is_a_homomorphism_on_long_words():
    rng = random.Random(17)
    for n in (24, 32):
        u, v = (BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(1000)))
                for _ in range(2))
        assert mul(collect(u), collect(v)) == collect(u * v)


def test_conjugation_map_equals_the_generator_fold_at_both_levels():
    """Both levels fold the per-generator rules along the reversed lex reduced word.

    A pair's level-2 correction is dropped, since the map is the action on the
    graded piece; every pair sign is +1.
    """
    rng = random.Random(23)
    for n in range(3, 13):
        for _ in range(4):
            image = list(range(1, n + 1))
            rng.shuffle(image)
            perm = Permutation(tuple(image))
            word = _lex_reduced_word(perm.image)
            pact, act = conjugation_map(perm, PurePart), conjugation_map(perm, CommPart)
            for p in pairs(n):
                cur = p
                for k in reversed(word):
                    cur, _ = _pair_action(*cur, k, 1)
                assert pact[p] == (cur, 1)
            for t in triples(n):
                cur, sign = t, 1
                for k in reversed(word):
                    cur, s = _triple_action(cur, k)
                    sign *= s
                assert act[t] == (cur, sign)


def test_reduced_word_cache_is_bounded():
    assert _lex_reduced_word.cache_info().maxsize is not None
