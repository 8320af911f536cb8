"""The closed-form pure-block merge against the bracket-table scan oracle."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil.core import BraidWord, _merge_pure_block, collect, identity, inv, mul, pairs, triples
from conftest import adjacency, pair_dict, scan_merge_pure_block

EXPONENTS = st.sampled_from((-3, -2, -1, 1, 2, 3))


def merged(merge, pure, comm, block):
    pure, comm = dict(pure), dict(comm)
    merge(pure, comm, block)
    return pure, comm


def adjacency_merge(n: int):
    """_merge_pure_block on the adjacency of a pair dict, written back in the oracle's pair-dict form."""
    def merge(pure, comm, block):
        nbr = adjacency(n, pure)
        _merge_pure_block(nbr, comm, [(i, j, e) for (i, j), e in block])
        pure.clear()
        pure.update(pair_dict(nbr))
    return merge


@st.composite
def merge_cases(draw):
    """(n, resident pure, comm, block, pure keys that must cancel, whether comm must cancel).

    The block is lex-ordered onto random residents (the mul case), or a
    lex-ordered pure part reversed and negated onto no residents (the inv
    case).  Cancellation is forced by negating residents in the block, and by
    starting comm at minus the corrections the block brings.
    """
    n = draw(st.integers(2, 12))
    keys = st.sampled_from(list(pairs(n)))
    if draw(st.booleans()):
        pure = draw(st.dictionaries(keys, EXPONENTS, max_size=40))
        block = draw(st.dictionaries(keys, EXPONENTS, max_size=40))
        cancel = draw(st.sets(st.sampled_from(sorted(pure)))) if pure else set()
        block.update({p: -pure[p] for p in cancel})
        block = sorted(block.items())
    else:
        pure, cancel = {}, set()
        block = [(p, -e) for p, e in reversed(sorted(draw(st.dictionaries(keys, EXPONENTS, max_size=60)).items()))]
    comm_cancels = draw(st.booleans())
    if comm_cancels:
        comm = {t: -c for t, c in merged(scan_merge_pure_block, pure, {}, block)[1].items()}
    elif n >= 3:
        comm = draw(st.dictionaries(st.sampled_from(list(triples(n))), EXPONENTS, max_size=20))
    else:
        comm = {}
    return n, pure, comm, block, cancel, comm_cancels


@settings(max_examples=400, deadline=None)
@given(merge_cases())
def test_closed_form_merge_equals_scan_oracle(case):
    n, pure, comm, block, cancel, comm_cancels = case
    got = merged(adjacency_merge(n), pure, comm, block)
    assert got == merged(scan_merge_pure_block, pure, comm, block)
    assert not cancel & got[0].keys()
    assert not (comm_cancels and got[1])


def test_cancellation_to_zero_in_pure_and_comm():
    # A[1,2] moves left past A[2,3]: [A[2,3], A[1,2]] = a[1,2,3]^-1 meets the resident a[1,2,3]
    for merge in (scan_merge_pure_block, adjacency_merge(4)):
        assert merged(merge, {(1, 2): -1, (2, 3): 1}, {(1, 2, 3): 1}, [((1, 2), 1)]) == ({(2, 3): 1}, {})


def test_every_bracket_family_is_met():
    # A[2,4] moves past A[3,4], A[2,5], A[4,5] with a bracket and past A[3,5] without;
    # A[1,4], A[2,3], A[1,5] precede it, so it does not move past them
    pure = {(3, 4): 5, (2, 5): 7, (4, 5): 11, (1, 4): 13, (2, 3): 17, (1, 5): 19, (3, 5): 23}
    got = merged(adjacency_merge(5), pure, {}, [((2, 4), 2)])
    assert got == merged(scan_merge_pure_block, pure, {}, [((2, 4), 2)])
    assert got[1] == {(2, 3, 4): 2 * 5, (2, 4, 5): 2 * (7 - 11)}


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.data())
def test_mul_and_inv_equal_collected_words(n, data):
    letters = st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=80)
    u, v = (BraidWord(n, tuple(data.draw(letters))) for _ in range(2))
    a = collect(u)
    assert mul(a, collect(v)) == collect(u * v)
    assert inv(a) == collect(u.inverse())
    assert mul(a, inv(a)) == identity(n)
