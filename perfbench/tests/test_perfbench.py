"""The benchmark's own tests, at smoke sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    lines = out.getvalue().splitlines()
    assert "meta" in json.loads(lines[-2])
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--scale", "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = bench("--workload", "cli", "--seed", "3", "--seconds", "0.2", "--scale", "tiny", "--trace", "1")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert result["correct"]
    assert metrics["trace.self_s_total"] <= metrics["trace.wall_s"]
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) <= metrics["trace.wall_s"]
    assert metrics["core.mul.calls"] > 0 and metrics["presentations.b3.relations"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    first = workloads.fingerprint(workloads.setup(workload, 11, run.SRC, "tiny"))
    assert workloads.fingerprint(workloads.setup(workload, 11, run.SRC, "tiny")) == first
    if workload != "verify":  # verify's suites do not depend on the seed, only its words
        assert workloads.fingerprint(workloads.setup(workload, 12, run.SRC, "tiny")) != first


def _corrupt(core, out):
    """A plausible wrong answer of the same type as the right one."""
    if isinstance(out, core.NilElement):
        d = core.element_to_dict(out)
        d["comm"] = d["comm"] + [[1, 2, 3, 1]]  # central, so only a level-2 comparison sees it
        return core.element_from_dict(d)
    if isinstance(out, tuple):  # a CLI (exit code, stdout) pair
        return out[0], out[1].replace(",", ", ", 1)
    if out is None or isinstance(out, int):  # an order
        return 7
    return SimpleNamespace(passed=out.passed, total=out.total + 1)  # a suite report


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_results_count_as_failures(workload):
    plan = workloads.setup(workload, 5, run.SRC, "tiny")
    core = sys.modules["braidnil.core"]
    ops = plan.make_round(0) + plan.tour
    for op in ops:
        op.run = (lambda run_op: lambda: _corrupt(core, run_op()))(op.run)
    result = run.Pass()
    for op in ops:
        run.execute(op, "round", result)
    assert result.attempted == len(ops)
    assert result.failed == len(ops)


def test_a_cli_repeat_with_other_bytes_fails():
    plan = workloads.setup("cli", 5, run.SRC, "tiny")
    op = next(op for op in plan.make_round(0) if op.kind == "collect")
    result = run.Pass()
    run.execute(op, "round", result)
    right = op.run
    op.run = lambda: (lambda code, text: (code, text.replace("1", "2", 1)))(*right())
    run.execute(op, "round", result)
    op.run = right
    run.execute(op, "round", result)
    assert (result.attempted, result.failed) == (3, 1)


def test_checks_accept_right_answers():
    plan = workloads.setup("grouplaw", 5, run.SRC, "tiny")
    result = run.Pass()
    for op in plan.make_round(0):
        run.execute(op, "round", result)
    assert result.failed == 0 and all(audit() for audit in plan.audits)


def test_closed_form_relation_counts():
    assert workloads.suite_total("pn3", 9) == 7806
    assert workloads.suite_total("bn3", 9) == 988
    assert workloads.suite_total("b3") == 45
