"""The presentation suites must verify cleanly, with stable bookkeeping."""

from __future__ import annotations

import math
import tracemalloc

import pytest

from braidnil.core import DomainError
from braidnil.presentations import (
    SUBGROUPS,
    braid_presentation,
    full_twist,
    pure_presentation,
    subgroup_presentation,
)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pure_presentation_passes(n):
    report = pure_presentation(n)
    assert report.passed, report.failures[:3]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pure_presentation_relation_count(n):
    # centrality: triple-triple and triple-pair pairs; case table: all ordered
    # pair-pair instances
    b, p = math.comb(n, 3), math.comb(n, 2)
    report = pure_presentation(n)
    assert report.total == math.comb(b, 2) + b * p + p * p


@pytest.mark.parametrize("n", [3, 4, 5])
def test_braid_presentation_passes(n):
    report = braid_presentation(n)
    assert report.passed, report.failures[:3]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_braid_presentation_relation_count(n):
    commuting = (n - 1) * (n - 2) // 2 - (n - 2)
    braid = n - 2
    actions = (n - 1) * (math.comb(n, 2) + math.comb(n, 3))
    assert braid_presentation(n).total == commuting + braid + actions


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
