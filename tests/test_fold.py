"""The lazy-frame letter fold against the eager letter-by-letter oracle."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil import core, expr
from braidnil.core import (
    BraidWord,
    CommPart,
    NilElement,
    Permutation,
    PurePart,
    _fold,
    _fold_framed,
    _freeze,
    _lex_reduced_word,
    _merge_pure_block,
    _origin,
    _thaw,
    collect,
    conj,
    conjugation_step,
    inv,
    mul,
    pairs,
    pure_gen,
    triples,
)
from conftest import (adjacency, counted, eager_fold, elements, generator_action, pair_dict, random_word,
                      scan_merge_pure_block, word_permutation)


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


@st.composite
def dense_states_and_letters(draw):
    """A state with an exponent in {-2, -1, 1, 2} on most pairs, and a random word to fold into it.

    A letter's level-2 correction at a strand is e*(e' - 1), e and e' that strand's exponents with the
    letter's two strands; on these states e' = 1 is common, which collected short words rarely give.
    """
    n = draw(st.integers(3, 9))
    image = tuple(draw(st.permutations(range(1, n + 1))))
    keys = list(pairs(n))
    exponents = draw(st.lists(st.sampled_from((0, -2, -1, 1, 2)), min_size=len(keys), max_size=len(keys)))
    comm = draw(st.dictionaries(st.sampled_from(list(triples(n))), st.integers(-3, 3), max_size=12))
    state = NilElement(n, Permutation(image), PurePart.from_map(n, zip(keys, exponents)), CommPart.from_map(n, comm))
    return state, tuple(draw(letters(n, 40)))


@settings(max_examples=300, deadline=None)
@given(dense_states_and_letters())
def test_fold_equals_eager_fold_on_dense_states(case):
    state, word = case
    folded = _freeze(state.n, *_fold(*_thaw(state), word))
    assert folded == eager(state, word)
    assert _freeze(state.n, *_fold_framed(*_thaw(state), word)) == folded


@settings(max_examples=100, deadline=None)
@given(dense_states_and_letters(), st.data())
def test_the_starting_labelling_on_empty_one_letter_and_identity_words(case, data):
    # _fold renames the state to the labels its letters carry to slot order; for a word whose permutation is the
    # identity that rename is a no-op, and the framed fold ends on the identity frame with the same state
    state, word = case
    n = state.n
    k = data.draw(st.integers(1, n - 1))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=len(word), max_size=len(word)))
    back = tuple((k2, eps) for (k2, _), eps in zip(reversed(word), signs))
    for w in ((), ((k, data.draw(st.sampled_from((1, -1)))),), ((k, 1), (k, 1)), word + back):
        folded = _fold(*_thaw(state), w)
        assert _freeze(n, *folded) == _freeze(n, *_fold_framed(*_thaw(state), w)) == eager(state, w)
        if w and word_permutation(BraidWord(n, w)).is_identity():
            image, nbr, comm, pos = _fold_framed(*_thaw(state), w)
            assert pos == list(range(n + 1))
            assert (image, nbr, comm) == folded


# The row of strand 3 has e' = 1 at strand 6 (above the letter), the row of strand 4 at strand 1 (below it); both
# rows have neighbours on both sides of slots 3 and 4, and the level-2 entries include the triples a letter writes.
DENSE_PURE = {(1, 3): 2, (1, 4): 1, (2, 3): -1, (2, 4): 2, (3, 4): 1, (3, 5): -2, (4, 5): 2,
              (3, 6): -2, (4, 6): 1, (5, 6): 1, (1, 5): -1}
DENSE_COMM = {(1, 3, 4): 2, (2, 3, 4): -1, (3, 4, 5): 1, (3, 4, 6): -3, (1, 2, 5): 1}


@pytest.mark.parametrize("eps", (1, -1))
@pytest.mark.parametrize("deposit", (False, True))
def test_one_letter_in_each_case_against_the_eager_fold(eps, deposit):
    # s_3^eps on 6 strands: the letter deposits exactly when eps = +1 meets strands 3 and 4 already crossed
    crossed = deposit == (eps == 1)
    image = (1, 2, 4, 3, 5, 6) if crossed else (1, 2, 3, 4, 5, 6)
    state = NilElement(6, Permutation(image), PurePart.from_map(6, DENSE_PURE), CommPart.from_map(6, DENSE_COMM))
    word = ((3, eps),)
    folded = _freeze(6, *_fold(*_thaw(state), word))
    assert folded == eager(state, word)
    assert _freeze(6, *_fold_framed(*_thaw(state), word)) == folded
    # the letter swaps strands 3 and 4, so A[3,4] keeps its key; a deposit adds eps to it
    assert folded.pure.as_map().get((3, 4), 0) == DENSE_PURE[3, 4] + (eps if deposit else 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(st.just(n), *(letters(n, 30).map(tuple) for _ in range(3)))))
def test_a_folded_prefix_continues_from_copies_of_its_state(case):
    # the verify suites fold a shared prefix once and continue each relation from a copy of its state
    n, u, v, w = case
    shared = _fold(*_origin(n), u)
    before = copy.deepcopy(shared)
    for rest in (v, w):
        image, nbr, comm = shared
        continued = _freeze(n, *_fold(image, [dict(row) for row in nbr], dict(comm), rest))
        assert continued == collect(BraidWord(n, u + rest))
        assert _freeze(n, *_fold_framed(image, [dict(row) for row in nbr], dict(comm), rest)) == continued
    assert shared == before


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(elements), st.data())
def test_freezing_through_the_fold_frame_equals_freezing_the_relabelled_state(a, data):
    n = a.n
    word = tuple(data.draw(letters(n, 30))) if n > 1 else ()
    # explicit zero level-2 entries, which no writer of the group law leaves but _freeze drops all the same
    zeros = data.draw(st.sets(st.sampled_from(list(triples(n))), max_size=6)) if n > 2 else set()

    def state():
        image, nbr, comm = _thaw(a)
        return image, nbr, {**dict.fromkeys(zeros, 0), **comm}

    for w in ((), word):
        framed = _freeze(n, *_fold_framed(*state(), w))
        image, nbr, comm = _fold(*state(), w)
        assert framed == _freeze(n, image, nbr, comm)
        assert framed == NilElement(n, Permutation(tuple(image)), PurePart.from_map(n, pair_dict(nbr)),
                                    CommPart.from_map(n, comm))


def test_only_a_fold_that_a_merge_follows_relabels_its_state(monkeypatch):
    # a fold that ends a product freezes through its frame; conj relabels once, for x's section, as mul does
    rng = random.Random(29)
    word = random_word(rng, 7, 40)
    g, x = mul(collect(word), pure_gen(7, 2, 5)), mul(collect(random_word(rng, 7, 40)), pure_gen(7, 1, 6))
    assert not g.perm.is_identity() and not x.perm.is_identity()
    cases = [(collect, (word,), 0), (inv, (g,), 0), (conj, (g, x), 1), (mul, (g, x), 1),
             (expr.Expression.element, (expr.parse("s1 S3 s6 s2^3 s5", 7),), 0)]
    results = [fn(*args) for fn, args, _ in cases]
    relabels = counted(monkeypatch, core, "_fold")
    expression_relabels = counted(monkeypatch, expr, "_fold")
    for (fn, args, count), result in zip(cases, results):
        relabels[0] = expression_relabels[0] = 0
        assert fn(*args) == result
        assert relabels[0] + expression_relabels[0] == count


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


def test_conjugation_step_equals_the_generator_fold_at_both_levels():
    """The engine's one-key step against the per-generator rules folded along a word of the permutation."""
    rng = random.Random(23)
    for n in range(3, 13):
        for _ in range(4):
            image = list(range(1, n + 1))
            rng.shuffle(image)
            perm = Permutation(tuple(image))
            for cls in (PurePart, CommPart):
                step = conjugation_step(perm, cls)
                assert {key: step(key) for key in cls.keys(n)} == generator_action(perm, cls)


def test_reduced_word_cache_is_bounded():
    assert _lex_reduced_word.cache_info().maxsize is not None


class CountedRow(dict):
    """A strand row that counts, across all rows, the entries its .items() yields, its lookups (.get calls and `in`
    tests) and the scans it starts: .items() calls."""

    tally = [0, 0, 0]

    def items(self):
        self.tally[2] += 1
        return self._entries()

    def _entries(self):
        for item in super().items():
            self.tally[0] += 1
            yield item

    def get(self, key, default=None):
        self.tally[1] += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.tally[1] += 1
        return super().__contains__(key)


class CountedComm(CountedRow):
    """A level-2 dict that counts as CountedRow does, apart from the rows."""

    tally = [0, 0, 0]


@st.composite
def dense_adjacencies_and_letters(draw):
    """A permutation and a strand adjacency with an exponent in {-2, -1, 1, 2} on 30, 60 or 90% of the pairs, at
    n <= 32, and a random word to fold into them."""
    n = draw(st.integers(3, 32))
    rng, density = random.Random(draw(st.integers(0, 2**32))), draw(st.sampled_from((0.3, 0.6, 0.9)))
    image = list(range(1, n + 1))
    rng.shuffle(image)
    pure = {p: rng.choice((-2, -1, 1, 2)) for p in pairs(n) if rng.random() < density}
    return n, image, adjacency(n, pure), tuple(draw(letters(n, 60)))


@st.composite
def sparse_adjacencies_and_letters(draw):
    """A permutation and a strand adjacency with 0 to 3 pure entries, exponents in {-2, -1, 1, 2}, at n <= 12, and a
    random word to fold into them."""
    n = draw(st.integers(2, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    image = list(range(1, n + 1))
    rng.shuffle(image)
    chosen = rng.sample(list(pairs(n)), min(draw(st.integers(0, 3)), n * (n - 1) // 2))
    pure = {p: rng.choice((-2, -1, 1, 2)) for p in chosen}
    return n, image, adjacency(n, pure), tuple(draw(letters(n, 40)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(dense_adjacencies_and_letters(), sparse_adjacencies_and_letters()))
def test_a_letter_scans_at_most_the_rows_of_its_two_strands(case):
    # an absorbed letter iterates the row `one`, of lab[k] for eps = +1, of lab[k+1] for eps = -1, and starts no scan
    # when that row is empty, even if the other is not; a deposit iterates both rows, and one more lookup for A[k,k+1];
    # each scanned entry takes at most one lookup in the other row, so on two empty rows a letter reads no entry and
    # makes no lookup but a deposit's own
    n, start, adj, word = case
    image, nbr, comm = list(start), [CountedRow(row) for row in adj], {}
    lab, pos = list(range(n + 1)), list(range(n + 1))
    for k, eps in word:
        deposit = (eps == 1) != (image.index(k) < image.index(k + 1))
        deg_a, deg_b = len(nbr[lab[k]]), len(nbr[lab[k + 1]])
        CountedRow.tally[:] = [0, 0, 0]
        image, nbr, comm, pos = _fold_framed(image, nbr, comm, ((k, eps),), (list(lab), list(pos)))
        lab = sorted(range(n + 1), key=pos.__getitem__)
        entries, gets, scans = CountedRow.tally
        assert entries <= (deg_a + deg_b if deposit else deg_a if eps == 1 else deg_b)
        assert gets <= entries + deposit
        assert scans <= (2 if deposit else 1)
        if not deposit and not (deg_a if eps == 1 else deg_b):
            assert scans == 0
        if not deg_a and not deg_b:
            assert (entries, gets, scans) == (0, int(deposit), 0)
    whole = _fold_framed(list(start), [dict(row) for row in adj], {}, word)
    assert _freeze(n, image, nbr, comm, pos) == _freeze(n, *whole)


@st.composite
def dense_adjacencies_and_blocks(draw):
    """A pure part with an exponent in {-2, -1, 1, 2} on 30, 60 or 90% of the pairs, at n <= 32, and a lex-ordered
    block of up to 40 pure factors onto it, where a third of those on a resident pair cancel it."""
    n = draw(st.integers(3, 32))
    rng, density = random.Random(draw(st.integers(0, 2**32))), draw(st.sampled_from((0.3, 0.6, 0.9)))
    pure = {p: rng.choice((-2, -1, 1, 2)) for p in pairs(n) if rng.random() < density}
    block = sorted(rng.sample(list(pairs(n)), min(40, n * (n - 1) // 2)))
    return n, pure, [(i, j, -pure[i, j] if (i, j) in pure and rng.random() < 1 / 3 else rng.choice((-3, -1, 1, 2)))
                     for i, j in block]


@settings(max_examples=100, deadline=None)
@given(dense_adjacencies_and_blocks())
def test_a_merged_factor_scans_at_most_the_rows_of_its_two_indices(case):
    # A[i,j]^e iterates the row of i and the row of j, each entry with at most one lookup in the other row, and
    # looks up its own exponent once
    n, pure, block = case
    nbr, comm = [CountedRow(row) for row in adjacency(n, pure)], {}
    for i, j, e in block:
        deg_i, deg_j = len(nbr[i]), len(nbr[j])
        CountedRow.tally[:] = [0, 0, 0]
        _merge_pure_block(nbr, comm, [(i, j, e)])
        entries, lookups, _ = CountedRow.tally
        assert entries <= deg_i + deg_j
        assert lookups <= entries + 1
    expected_pure, expected_comm = dict(pure), {}
    scan_merge_pure_block(expected_pure, expected_comm, [((i, j), e) for i, j, e in block])
    assert (pair_dict(nbr), comm) == (expected_pure, expected_comm)


@settings(max_examples=100, deadline=None)
@given(dense_adjacencies_and_letters(), st.integers(0, 2**32))
def test_the_rename_reads_each_starting_entry_once_and_the_letters_fold_its_copy(case, seed):
    # _fold renames nbr and comm into new dicts before its letters: one pass over each row's entries and over comm's,
    # no lookup, and the letters neither read nor write the objects it was given
    n, image, adj, word = case
    nbr = [CountedRow(row) for row in adj]
    rng = random.Random(seed)
    comm = CountedComm({t: rng.choice((-2, -1, 1, 2)) for t in triples(n) if rng.random() < 0.3})
    start = [dict(row) for row in adj], dict(comm)
    CountedRow.tally[:], CountedComm.tally[:] = [0, 0, 0], [0, 0, 0]
    state = _fold(list(image), nbr, comm, word)
    assert CountedRow.tally == ([sum(map(len, adj)), 0, n + 1] if word else [0, 0, 0])
    assert CountedComm.tally == ([len(comm), 0, 1] if word else [0, 0, 0])
    assert ([dict(row) for row in nbr], dict(comm)) == start
    assert _freeze(n, *state) == _freeze(n, *_fold_framed(list(image), *copy.deepcopy(start), word))
