"""The level-1 working state of the group law: the strand adjacency from thaw to freeze."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil.core import (
    BraidWord,
    CommPart,
    NilElement,
    Permutation,
    PurePart,
    _fold,
    _freeze,
    _merge_pure_block,
    _thaw,
    collect,
    mul,
    pairs,
)
from conftest import elements, pair_dict


def letters(n: int, max_size: int):
    if n < 2:
        return st.just([])
    return st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=max_size)


def assert_adjacency(n: int, nbr: list[dict[int, int]]) -> None:
    """Rows 0..n, row 0 empty, every exponent nonzero, off the diagonal and stored both ways."""
    assert len(nbr) == n + 1 and not nbr[0]
    for u, row in enumerate(nbr):
        for v, e in row.items():
            assert 1 <= v <= n and v != u and e != 0 and nbr[v].get(u) == e


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(elements), st.data())
def test_thaw_freeze_round_trip_and_the_adjacency_after_fold_and_merge(a, data):
    n = a.n
    assert _freeze(n, *_thaw(a)) == a
    word = tuple(data.draw(letters(n, 30)))
    image, nbr, comm = _fold(*_thaw(a), word)
    assert_adjacency(n, nbr)
    folded = _freeze(n, image, nbr, comm)
    assert folded == mul(a, collect(BraidWord(n, word)))
    # a lex-ordered block that cancels some residents exactly and adds new factors
    resident = pair_dict(nbr)
    cancel = data.draw(st.sets(st.sampled_from(sorted(resident)))) if resident else set()
    exponents = st.sampled_from((-3, -2, -1, 1, 2, 3))
    fresh = data.draw(st.dictionaries(st.sampled_from(list(pairs(n))), exponents, max_size=20)) if n > 1 else {}
    block = {**fresh, **{p: -resident[p] for p in cancel}}
    _merge_pure_block(nbr, comm, [(i, j, e) for (i, j), e in sorted(block.items())])
    assert_adjacency(n, nbr)
    assert not cancel & pair_dict(nbr).keys()
    merged = _freeze(n, image, nbr, comm)
    assert merged == mul(folded, NilElement(n, Permutation.identity(n), PurePart.from_map(n, block), CommPart.zero(n)))
    assert _freeze(n, *_thaw(merged)) == merged
