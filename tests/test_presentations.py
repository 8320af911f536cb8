"""The presentation suites must verify cleanly, with stable bookkeeping."""

from __future__ import annotations

import math
import re
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil import core, presentations
from braidnil.core import (BraidWord, DomainError, collect, comm_gen_word, commutator_word, identity, pairs,
                           pure_gen_word, triples)
from braidnil.presentations import (
    SUBGROUPS,
    _braid_relations,
    _inverse,
    _pure_relations,
    _run,
    _spell,
    _subgroup_relations,
    braid_presentation,
    full_twist,
    pure_presentation,
    subgroup_presentation,
)
from conftest import counted, run_before, whole_word_report


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pure_presentation_passes(n):
    report = pure_presentation(n)
    assert report.passed, report.failures[:3]


def letters_folded(relations):
    return sum(len(prefix) + len(rest) + len(rhs) for _, prefix, rest, rhs in relations)


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


B3_IDS = {
    "trivial": ["[b,a]=d", "[c,a]=d^-1", "[c,b]=d", "[d,a]=1", "[d,b]=1", "[d,c]=1"],
    "order2": ["alpha^2=c", "alpha d alpha^-1=d^-1", "alpha a alpha^-1=b", "alpha b alpha^-1=ad^-1",
               "alpha c alpha^-1=c"],
    "order3": ["alpha^3=d^-1", "alpha d alpha^-1=d", "alpha a alpha^-1=bd", "alpha b alpha^-1=cd^-1",
               "alpha c alpha^-1=a"],
    "s3": ["alpha^3=abc", "beta^2=c", "alpha d alpha^-1=d", "beta d beta^-1=d^-1", "alpha a alpha^-1=b",
           "alpha b alpha^-1=c", "alpha c alpha^-1=a", "beta a beta^-1=b", "beta b beta^-1=ad^-1", "beta c beta^-1=c",
           "beta alpha beta^-1=b^-1 alpha^2"],
}


def spelled_ids(suite: str, arg) -> list[str]:
    """Each relation's id in suite order, spelled by f-strings over the index tuples as reports have always read."""
    if suite == "b3":
        return B3_IDS["trivial"] + ([] if arg == "trivial" else B3_IDS[arg])
    A, a = list(pairs(arg)), list(triples(arg))
    if suite == "pn3":
        return ([f"central[a{t},a{u}]" for t, u in combinations(a, 2)] + [f"central[a{t},A{p}]" for t in a for p in A]
                + [f"pair-table[A{p},A{q}]" for p in A for q in A])
    return ([f"commuting[{i},{j}]" for i in range(1, arg - 1) for j in range(i + 2, arg)]
            + [f"braid[{i}]" for i in range(1, arg - 1)]
            + [rid for k in range(1, arg) for rid in [f"action-pair[k={k},A({i},{j})]" for i, j in A]
               + [f"action-triple[k={k},a{t}]" for t in a]])


def _relation_cases():
    for n in (3, 4, 5, 6):
        yield pytest.param("pn3", n, _pure_relations, id=f"pn3-{n}")
        yield pytest.param("bn3", n, _braid_relations, id=f"bn3-{n}")
    for subgroup in SUBGROUPS:
        yield pytest.param("b3", subgroup, _subgroup_relations, id=f"b3-{subgroup}")


@pytest.mark.parametrize("suite, arg, relations", _relation_cases())
def test_each_relation_id_is_spelled_as_reports_have_always_read(suite, arg, relations):
    assert [_spell(rid) for rid, *_ in relations(arg)] == spelled_ids(suite, arg)


def test_the_ids_spell_index_tuples_as_their_reprs():
    assert "central[a(1, 2, 3),A(1, 4)]" in map(_spell, (rid for rid, *_ in _pure_relations(4)))
    assert "action-triple[k=3,a(1, 2, 3)]" in map(_spell, (rid for rid, *_ in _braid_relations(4)))


@pytest.mark.parametrize("suite, arg, relations", _relation_cases())
def test_a_planted_failure_reports_its_relation_by_its_id(suite, arg, relations):
    # a letter s1 appended to a rest breaks that relation alone: the first and the last of each family, the ids that
    # differ only in their digits (each relation of a b3 suite is its own), and the first with an empty rhs and with
    # another, so that both comparisons fail one; every other relation of the suite still passes
    listed, ids = list(relations(arg)), spelled_ids(suite, arg)
    family = [re.sub(r"\d", "", rid) for rid in ids]
    kind = [bool(rhs) for *_, rhs in listed]
    planted = sorted({family.index(f) for f in family} | {len(family) - 1 - family[::-1].index(f) for f in family}
                     | {kind.index(k) for k in kind})
    for i in planted:
        rid, prefix, rest, rhs = listed[i]
        listed[i] = rid, prefix, rest + ((1, 1),), rhs
    n = 3 if suite == "b3" else arg
    report = _run(suite, n, listed)
    assert [rid for rid, _, _ in report.failures] == [ids[i] for i in planted]
    assert report == whole_word_report(suite, n, listed)


@pytest.mark.parametrize("suite, relations", [(pure_presentation, _pure_relations),
                                              (braid_presentation, _braid_relations)])
def test_a_suite_folds_each_prefix_run_once_and_builds_no_normal_form_that_passes(monkeypatch, suite, relations):
    # per run of one prefix one _fold; per relation one _fold_framed of its rest, and one more per distinct rhs; the
    # canonical rows of each lhs that has a rhs and of each distinct rhs; no normal form for a passing relation
    listed = list(relations(5))
    runs = 1 + sum(x[1] is not y[1] for x, y in zip(listed, listed[1:]))
    rhs = [r for *_, r in listed if r]
    folds, framed = counted(monkeypatch, presentations, "_fold"), counted(monkeypatch, presentations, "_fold_framed")
    rows, forms = counted(monkeypatch, presentations, "_rows"), counted(monkeypatch, presentations, "_normal_form")
    freezes = counted(monkeypatch, core, "_freeze")
    assert suite(5).passed
    assert (folds[0], framed[0]) == (runs, len(listed) + len(set(rhs)))
    assert (rows[0], forms[0], freezes[0]) == (len(rhs) + len(set(rhs)), 0, 0)
    assert (runs, len(listed), len(rhs), len(set(rhs))) == {pure_presentation: (29, 245, 60, 20),
                                                            braid_presentation: (8, 86, 86, 47)}[suite]


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
    the rhs is the empty word, the lhs's letters, or a random word.  Each run ends in a relation that leaves entries
    in the state it folds, a failing identity relation or one with a rhs, and then in identity relations that pass,
    so a state that is not emptied before the next rest folds on it shows."""
    n = draw(st.integers(2, 6))
    words = st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=12).map(tuple)
    found, missed = [()] + [w.letters for w in relators(n)], [w.letters for w in misses(n)]  # () for n = 2
    relations = []

    def add(prefix, rest, rhs):
        relations.append((("r{}", len(relations)), prefix, rest, rhs))

    for _ in range(draw(st.integers(1, 4))):
        prefix = draw(words)
        back = _inverse(prefix)

        def around(inserts):
            cut = draw(st.integers(0, len(back)))
            return back[:cut] + draw(st.sampled_from(inserts)) + back[cut:]

        for _ in range(draw(st.integers(0, 4))):
            rest = around(found + missed) if draw(st.integers(0, 3)) else draw(words)
            add(prefix, rest, draw(st.sampled_from(((), (), prefix + rest, prefix + rest, draw(words)))))
        rest = around(missed) if draw(st.booleans()) else draw(words)
        add(prefix, rest, draw(st.sampled_from(((), prefix + rest, draw(words)))))
        for _ in range(draw(st.integers(1, 3))):
            add(prefix, around(found), ())
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
    prefix, miss = ((2, 1), (1, -1), (2, 1)), rest(n)
    lhs = collect(miss)
    assert [not lhs.perm.is_identity(), not lhs.pure.is_zero(), not lhs.comm.is_zero()] == [
        level == "perm", level == "pure", level == "comm"]
    relations = [(("passes",), (), (), ()), ((name,), (), miss.letters, ()),
                 (("passes after",), prefix, _inverse(prefix), ()),
                 (("{} after", name), prefix, _inverse(prefix) + miss.letters, ())]
    report = _run("misses", n, relations)
    assert report.total == 4
    assert report.failures == ((name, lhs, identity(n)), (f"{name} after", lhs, identity(n)))
    assert report == run_before("misses", n, relations)


@pytest.mark.parametrize("n", range(2, 9))
def test_the_full_twist_reports_as_whole_words_do(n):
    twist = BraidWord(n, tuple((k, 1) for k in range(1, n))) ** n
    product = BraidWord(n, tuple(x for p in pairs(n) for x in pure_gen_word(n, *p).letters))
    relation = ((f"(s1..s{n-1})^{n}=prod A[i,j]",), (), twist.letters, product.letters)
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
