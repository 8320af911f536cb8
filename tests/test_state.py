"""The level-1 working state of the group law: the strand adjacency from thaw to freeze."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil import core, torsion
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
    power,
)
from braidnil.expr import parse
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


def test_no_state_is_frozen_with_a_zero_level2_entry(monkeypatch):
    # the fold, the merge, the level-2 add of a product and power's closed form each delete a sum that cancels
    frozen = []
    for owner in (core, torsion):
        def spy(n, image, nbr, comm, pos=None, freeze=owner._freeze):
            frozen.append(list(comm.values()))
            return freeze(n, image, nbr, comm, pos)
        monkeypatch.setattr(owner, "_freeze", spy)
    torsion.element_with_cycle_type(23, [5, 7, 11])
    x = parse("(s1 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 s12 s13 s14)^3 (s2 s4^-1 s6 s8^-1 s10 s12^-1)^5"
              " A[1,16]^2 a[3,7,11]", 16).element()
    power(x, 999983)
    assert len(frozen) > 2 and sum(map(len, frozen)) > 0
    assert all(all(values) for values in frozen)
