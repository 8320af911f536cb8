"""The presentation suites must verify cleanly, with stable bookkeeping."""

from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil import presentations
from braidnil.core import (BraidWord, DomainError, collect, comm_gen_word, commutator_word, identity, pairs,
                           pure_gen_word, triples)
from braidnil.presentations import (
    SUBGROUPS,
    _braid_relations,
    _pure_relations,
    _run,
    braid_presentation,
    full_twist,
    pure_presentation,
    subgroup_presentation,
)
from conftest import run_before, whole_word_report


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pure_presentation_passes(n):
    report = pure_presentation(n)
    assert report.passed, report.failures[:3]


def letters_folded(relations):
    return sum(len(prefix.letters) + len(rest.letters) + len(rhs.letters) for _, prefix, rest, rhs in relations)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pure_presentation_relation_count(n):
    # centrality: triple-triple and triple-pair pairs; case table: all ordered
    # pair-pair instances
    b, p = math.comb(n, 3), math.comb(n, 2)
    report = pure_presentation(n)
    assert report.total == math.comb(b, 2) + b * p + p * p
    assert letters_folded(_pure_relations(n)) == {3: 208, 4: 1600, 5: 7680, 6: 27720}[n]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_braid_presentation_passes(n):
    report = braid_presentation(n)
    assert report.passed, report.failures[:3]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_braid_presentation_relation_count(n):
    commuting = (n - 1) * (n - 2) // 2 - (n - 2)
    braid = n - 2
    actions = (n - 1) * (math.comb(n, 2) + math.comb(n, 3))
    assert braid_presentation(n).total == commuting + braid + actions
    assert letters_folded(_braid_relations(n)) == {3: 102, 4: 492, 5: 1598, 6: 4138}[n]


def test_a_wrong_generator_word_fails_exactly_the_relations_that_use_it(monkeypatch):
    # each suite takes a[1,2,3] from its one generator table: a wrong sign on it
    # breaks exactly the relations that read its sign, and no central relation
    right = presentations.comm_gen_word

    def planted(n, triple):
        word = right(n, triple)
        return word.inverse() if triple == (1, 2, 3) else word

    monkeypatch.setattr(presentations, "comm_gen_word", planted)
    pn3 = pure_presentation(4)
    assert sorted(rid for rid, _, _ in pn3.failures) == sorted(
        f"pair-table[A{p},A{q}]" for p in ((1, 2), (1, 3), (2, 3)) for q in ((1, 2), (1, 3), (2, 3)) if p != q)
    assert [rid for rid, _, _ in braid_presentation(4).failures] == [
        "action-pair[k=1,A(2,3)]", "action-pair[k=2,A(1,3)]",
        "action-triple[k=3,a(1, 2, 3)]", "action-triple[k=3,a(1, 2, 4)]",
    ]


def test_a_wrong_prefix_word_fails_only_its_own_relations(monkeypatch):
    # A(1,3) is the shared prefix of a run of relations: the run's other relations
    # must still pass, each from its own copy of the folded prefix
    right = presentations.pure_gen_word

    def planted(n, i, j):
        word = right(n, i, j)
        return word.inverse() if (i, j) == (1, 3) else word

    monkeypatch.setattr(presentations, "pure_gen_word", planted)
    assert sorted(rid for rid, _, _ in pure_presentation(4).failures) == sorted(
        f"pair-table[A{p},A{q}]" for p, q in [
            ((1, 2), (1, 3)), ((1, 3), (1, 2)), ((1, 3), (1, 4)), ((1, 3), (2, 3)),
            ((1, 3), (3, 4)), ((1, 4), (1, 3)), ((2, 3), (1, 3)), ((3, 4), (1, 3))])
    assert [rid for rid, _, _ in braid_presentation(4).failures] == [
        "action-pair[k=1,A(1,3)]", "action-pair[k=1,A(2,3)]", "action-pair[k=2,A(1,2)]",
        "action-pair[k=2,A(1,3)]", "action-pair[k=3,A(1,3)]", "action-pair[k=3,A(1,4)]",
    ]


def _suite_cases():
    for n in (3, 4, 5, 6):
        yield pytest.param(pure_presentation, n, id=f"pn3-{n}")
        yield pytest.param(braid_presentation, n, id=f"bn3-{n}")
    for subgroup in SUBGROUPS:
        yield pytest.param(subgroup_presentation, subgroup, id=f"b3-{subgroup}")


@pytest.mark.parametrize("suite, arg", _suite_cases())
def test_the_prefix_fold_reports_as_whole_words_do(monkeypatch, suite, arg):
    folded = suite(arg).to_dict()
    monkeypatch.setattr(presentations, "_run", whole_word_report)
    assert suite(arg).to_dict() == folded


def relators(n: int) -> list[BraidWord]:
    """Words that collect to the identity: the commuting and braid relators and the centrality of a[1,2,3]."""
    s = lambda k, e=1: BraidWord(n, ((k, e),))
    found = [commutator_word(s(i), s(j)) for i in range(1, n - 1) for j in range(i + 2, n)]
    found += [s(i + 1) * s(i) * s(i + 1) * s(i, -1) * s(i + 1, -1) * s(i, -1) for i in range(1, n - 1)]
    if n > 2:
        found.append(commutator_word(comm_gen_word(n, (1, 2, 3)), pure_gen_word(n, 1, n)))
    return found


def misses(n: int) -> list[BraidWord]:
    """Words that miss the identity at one level: a letter (the permutation), a square (the pure part only), the
    commutator of two pure generators that share one index (level 2 only)."""
    found = [BraidWord(n, ((k, e),) * m) for k in range(1, n) for e in (1, -1) for m in (1, 2)]
    return found + [commutator_word(pure_gen_word(n, i, j), pure_gen_word(n, j, k)) for i, j, k in triples(n)]


@st.composite
def relation_runs(draw):
    """Relations at n <= 6 in runs that share a prefix object.  Each lhs is the prefix times a rest that undoes it
    around an inserted relator (lhs = 1) or an inserted miss (lhs a conjugate of the miss, != 1), or a random rest;
    the rhs is the shared empty word, an empty word of its own, the lhs's letters, or a random word."""
    n = draw(st.integers(2, 6))
    words = st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=12).map(
        lambda letters: BraidWord(n, tuple(letters)))
    one, inserts = BraidWord(n, ()), relators(n) + misses(n)
    relations = []
    for _ in range(draw(st.integers(1, 4))):
        prefix = draw(words)
        for _ in range(draw(st.integers(1, 5))):
            if draw(st.integers(0, 3)):
                back = prefix.inverse().letters
                cut = draw(st.integers(0, len(back)))
                rest = BraidWord(n, back[:cut] + draw(st.sampled_from(inserts)).letters + back[cut:])
            else:
                rest = draw(words)
            lhs = BraidWord(n, prefix.letters + rest.letters)
            rhs = draw(st.sampled_from((one, BraidWord(n, ()), lhs, lhs, draw(words))))
            relations.append((f"r{len(relations)}", prefix, rest, rhs))
    return n, relations


@settings(max_examples=100, deadline=None)
@given(relation_runs())
def test_an_identity_relation_decided_on_its_state_reports_as_the_full_check(case):
    n, relations = case
    assert _run("mixed", n, relations) == run_before("mixed", n, relations)


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("name, rest, level", [
    pytest.param("s1", lambda n: BraidWord(n, ((1, 1),)), "perm", id="s1"),
    pytest.param("s1 s1", lambda n: BraidWord(n, ((1, 1), (1, 1))), "pure", id="s1s1"),
    pytest.param("[A[1,2], A[2,3]]", lambda n: commutator_word(pure_gen_word(n, 1, 2), pure_gen_word(n, 2, 3)),
                 "comm", id="A12-A23"),
])
def test_a_failing_identity_relation_reports_its_lhs_and_the_identity(n, name, rest, level):
    # each lhs misses the identity at one level only, so each of the image, row and level-2 tests decides one
    one, prefix = BraidWord(n, ()), BraidWord(n, ((2, 1), (1, -1), (2, 1)))
    miss = rest(n)
    lhs = collect(miss)
    assert [not lhs.perm.is_identity(), not lhs.pure.is_zero(), not lhs.comm.is_zero()] == [
        level == "perm", level == "pure", level == "comm"]
    relations = [("passes", one, one, one), (name, one, miss, one), ("passes after", prefix, prefix.inverse(), one),
                 (f"{name} after", prefix, prefix.inverse() * miss, BraidWord(n, ()))]
    report = _run("misses", n, relations)
    assert report.total == 4
    assert report.failures == ((name, lhs, identity(n)), (f"{name} after", lhs, identity(n)))
    assert report == run_before("misses", n, relations)


@pytest.mark.parametrize("n", range(2, 9))
def test_the_full_twist_reports_as_whole_words_do(n):
    one = BraidWord(n, ())
    twist = BraidWord(n, tuple((k, 1) for k in range(1, n))) ** n
    product = BraidWord(n, tuple(x for p in pairs(n) for x in pure_gen_word(n, *p).letters))
    relation = (f"(s1..s{n-1})^{n}=prod A[i,j]", one, twist, product)
    assert full_twist(n).to_dict() == whole_word_report("fulltwist", n, [relation]).to_dict()


def test_the_full_twist_reports_a_failed_relation_or_else_a_wrong_shape(monkeypatch):
    right = presentations.pure_gen_word
    monkeypatch.setattr(presentations, "pure_gen_word",
                        lambda n, i, j: right(n, i, j).inverse() if (i, j) == (1, 3) else right(n, i, j))
    assert [rid for rid, _, _ in full_twist(4).failures] == ["(s1..s3)^4=prod A[i,j]"]
    # both sides equal, but not to the full twist's shape
    monkeypatch.setattr(presentations, "collect", lambda word: identity(word.n))
    report = full_twist(4)
    assert (report.total, report.failures) == (1, (("full twist shape at n=4", identity(4), identity(4)),))


@pytest.mark.parametrize("suite, n", [(pure_presentation, 6), (braid_presentation, 9)])
def test_suites_hold_one_relation_at_a_time(suite, n):
    # building all 715 and 988 relations before collecting any peaked at 2.2 and 2.3 MiB
    tracemalloc.start()
    try:
        report = suite(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and peak < 2**20


@pytest.mark.parametrize("subgroup", SUBGROUPS)
def test_subgroup_presentations_pass(subgroup):
    report = subgroup_presentation(subgroup)
    assert report.passed, report.failures
    assert report.total == {"trivial": 6, "order2": 11, "order3": 11, "s3": 17}[subgroup]


def test_unknown_subgroup_rejected():
    with pytest.raises(DomainError):
        subgroup_presentation("order7")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_full_twist_identity(n):
    assert full_twist(n).passed


@pytest.mark.parametrize("n", [3, 4, 5])
def test_braid_relators_collect_to_identity(n):
    # canonicity in relator form: lhs * rhs^-1 collects to the identity for
    # the commuting and braid relations
    from braidnil.core import BraidWord, collect

    for i in range(1, n - 1):
        for j in range(i + 2, n):
            w = BraidWord(n, ((i, 1), (j, 1), (i, -1), (j, -1)))
            assert collect(w).is_identity()
    for i in range(1, n - 1):
        w = BraidWord(n, ((i + 1, 1), (i, 1), (i + 1, 1), (i, -1), (i + 1, -1), (i, -1)))
        assert collect(w).is_identity()


def test_report_serialisation():
    d = subgroup_presentation("order3").to_dict()
    assert d["passed"] is True and d["failed"] == 0 and d["total"] == 11
    assert d["suite"] == "b3-order3"
