"""
Benchmark runner for braidnil.

    python3 perfbench/run.py --workload grouplaw --seed 1 --seconds 10 --trace 0

Runs one workload in a closed loop (one client, one process, one thread):
whole rounds until their timed operations add up to --seconds, tour passes
spread among them, then the audits.  Every operation's output is
checked, untimed.  With --trace 0 it sets up three times (the median is setup_s)
and prints the end-to-end metrics.  With --trace 1 it runs the first round
and the tour twice, untraced and then traced, so that every count repeats
exactly for a seed, and prints the per-layer metrics.  The last
line of stdout is the result object; the line before it is the metadata
record.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TOUR_REPEATS = 6
# Median time of reference_kernel() in a fast phase of a 2-vCPU Intel Xeon VM
# with Python 3.11; every reported time is scaled to this reference speed.
KERNEL_S = 0.0015
# Median wall time of `python -c pass` on the same VM: the scale of cli_cold_ms.
BARE_S = 0.055


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python dict-relabelling loop, the host-speed probe.

    The host's speed drifts by up to 2x within seconds while CPU time equals
    wall time, so each timed operation is bracketed by this probe (see
    SpeedProbe).  The loop does the kind of work the collection engine does:
    rebuild a dict keyed by index triples.
    """
    start = time.perf_counter()
    d = {(i, i + 1, i + 2): i for i in range(1, 1000)}
    for k in range(8):
        d = {((a, c, b) if b == k else (a, b, c)): (-v if a & 1 else v) for (a, b, c), v in d.items()}
    return time.perf_counter() - start


class SpeedProbe:
    """Samples host speed around and during timed calls, and scales their times to reference speed.

    Each call is bracketed by reference_kernel(), and an interval timer runs
    it every PERIOD_S inside the call as well; that time is taken out of the
    call's own.  An interval's scale is KERNEL_S over the median sample taken
    within it or by its bracketing probes, so a long call is scaled by the
    speed over its whole span and a short one by the speed right around it.
    """

    PERIOD_S = 0.2
    WINDOW_S = 0.05

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time the probe ended, its seconds)
        self._paused = 0.0

    def probe(self) -> None:
        d = reference_kernel()
        self.samples.append((time.perf_counter(), d))

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probe()
        self._paused += time.perf_counter() - start

    def timed(self, fn):
        """(fn(), start, end, seconds of fn itself), probed before, during and after.

        The cyclic garbage collector is off meanwhile, as in timeit: a
        collection started by one call's garbage would otherwise land in a
        later call at random.  It runs again, untimed, once re-enabled.
        """
        collecting = gc.isenabled()
        gc.disable()
        self.probe()
        self._paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()
            if collecting:
                gc.enable()
        return out, start, end, end - start - self._paused

    def scaled(self, start: float, end: float, seconds: float) -> float:
        near = [d for t, d in self.samples if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        return seconds * KERNEL_S / statistics.median(near)


class Pass:
    """What one pass over a workload recorded: per-operation intervals, and failures."""

    def __init__(self):
        self.speed = SpeedProbe()
        self.records: list[tuple] = []  # (phase, kind, start, end, raw seconds, letters, relations, case)
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.counts: dict[str, int] = {}
        self._scaled: list[float] = []

    def timed(self, phase: str) -> list[tuple[str, float, int, int, object]]:
        """(kind, seconds at reference speed, letters, relations, case) of each operation in a phase."""
        if len(self._scaled) != len(self.records):
            self._scaled = [self.speed.scaled(t0, t1, raw) for _, _, t0, t1, raw, *_ in self.records]
        return [(k, dt, le, re, c) for (p, k, _, _, _, le, re, c), dt in zip(self.records, self._scaled)
                if p == phase]

    def raw_seconds(self) -> float:
        return sum(r[4] for r in self.records)

    def wall_seconds(self) -> float:
        return sum(r[3] - r[2] for r in self.records)


def execute(op: workloads.Op, phase: str, result: Pass, tracer=None) -> float:
    """Time op.run(), then check its output untimed; failures are counted, not raised."""
    def guarded():
        if tracer is not None:
            tracer.enabled = True
        try:
            return True, op.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False, None
        finally:
            if tracer is not None:
                tracer.enabled = False

    (ok, out), start, end, raw = result.speed.timed(guarded)
    if ok:
        try:
            ok = bool(op.check(out))
        except Exception:
            ok = False
            traceback.print_exc(file=sys.stderr)
    if not ok:
        print(f"wrong or failed {phase} operation: {op.kind}", file=sys.stderr)
    result.attempted += 1
    result.failed += not ok
    result.counts[op.kind] = result.counts.get(op.kind, 0) + 1
    result.records.append((phase, op.kind, start, end, raw, op.letters, op.relations, op.case))
    return raw


def run_pass(plan: workloads.Plan, seconds: float, rounds: int | None = None, tracer=None) -> Pass:
    """Whole rounds until their timed operations reach `seconds` (or exactly `rounds`), then audits.

    A tour pass, with its share of the cold starts, runs each time the timed
    operations have spent another 1/TOUR_REPEATS of `seconds`, so that tour
    samples spread over the run whatever a round's length; passes still owed
    run after the last round.
    """
    result = Pass()
    spent = 0.0
    tours = 0
    per_tour = -(-len(plan.cold) // TOUR_REPEATS)
    interval = seconds / TOUR_REPEATS

    def tour():
        for op in plan.tour + plan.cold[tours * per_tour:(tours + 1) * per_tour]:
            execute(op, "tour", result, tracer)

    while (spent < seconds or result.rounds < plan.min_rounds) if rounds is None else result.rounds < rounds:
        for op in plan.make_round(result.rounds):
            spent += execute(op, "round", result, tracer)
            if tours < TOUR_REPEATS and spent >= (tours + 0.5) * interval:
                tour()
                tours += 1
        result.rounds += 1
    while tours < TOUR_REPEATS:
        tour()
        tours += 1
    for audit in plan.audits:
        result.attempted += 1
        try:
            ok = audit()
        except Exception:
            ok = False
            traceback.print_exc(file=sys.stderr)
        if not ok:
            print("letter-fold audit failed", file=sys.stderr)
            result.failed += 1
    return result


def _kind(result: Pass, kind: str) -> list[tuple[str, float, int, int, object]]:
    """The workload's own operations of this kind, or the tour's when its mix has none."""
    own = [r for r in result.timed("round") if r[0] == kind]
    return own or [r for r in result.timed("tour") if r[0] == kind]


def cold_start_ms(result: Pass) -> float:
    """Median cold start, each scaled by BARE_S over the bare interpreter start just before it.

    Process creation drifts on the host in ways the in-process probe does not
    see; the bare start does, so the ratio keeps only what braidnil adds.
    """
    starts = [(r[1], r[4]) for r in result.records if r[1] in ("bare", "cold")]
    pairs = [(b, c) for (kb, b), (kc, c) in zip(starts[::2], starts[1::2]) if (kb, kc) == ("bare", "cold")]
    return statistics.median(c * BARE_S / b for b, c in pairs) * 1000


def end_to_end(result: Pass, setup_times: list[float]) -> dict[str, tuple[float, str]]:
    lat = [r[1] for r in result.timed("round")]
    p50 = statistics.median(lat)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]

    def by_case(kind) -> list[tuple[float, list]]:
        """(median seconds, one row) for each input case of this kind.

        A median over the repeats of one case drops the host's outliers.
        """
        cases: dict[object, list] = {}
        for r in _kind(result, kind):
            cases.setdefault(r[4], []).append(r)
        return [(statistics.median(r[1] for r in rows), rows[0]) for rows in cases.values()]

    def mean_ms(kind):
        """The geometric mean over input cases of each case's median time.

        It weighs every case alike, so the largest case's few repeats do not
        set the whole figure; a change that speeds every case by a factor
        moves it by the same factor.
        """
        return statistics.geometric_mean(t for t, _ in by_case(kind)) * 1000

    def rate(kind, weight):
        """Work per second over one pass of every case at its median time."""
        cases = by_case(kind)
        return sum(weight(row) for _, row in cases) / sum(t for t, _ in cases)

    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (p50 * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "ok_ratio": (1 - result.failed / result.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "mul_per_s": (rate("mul", lambda r: 1), "1/s"),
        "power_ms": (mean_ms("power"), "ms"),
        "order_ms": (mean_ms("order"), "ms"),
        "letters_per_s": (rate("collect", lambda r: r[2]), "1/s"),
        "relations_per_s": (rate("suite", lambda r: r[3]), "1/s"),
        "witness_ms": (mean_ms("witness"), "ms"),
        "holonomy_ms": (mean_ms("holonomy"), "ms"),
        "cli_cold_ms": (cold_start_ms(result), "ms"),
    }


def metadata(args, plan: workloads.Plan, passes: list[Pass]) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    counts: dict[str, int] = {}
    for p in passes:
        for k, v in p.counts.items():
            counts[k] = counts.get(k, 0) + v
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "n_grid": plan.grid,
        "rounds": [p.rounds for p in passes],
        "raw_over_reference": [p.raw_seconds() / sum(r[1] for r in p.timed("round") + p.timed("tour"))
                               for p in passes],
        "op_counts": counts,
        "src_lines": sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py"))),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed operation time per pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test sizes for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "braidnil" / "__init__.py").is_file():
        print(f"braidnil sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.trace == 0:
        speed = SpeedProbe()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            plan, start, end, raw = speed.timed(lambda: workloads.setup(args.workload, args.seed, SRC, args.scale))
            setup_times.append(speed.scaled(start, end, raw))
        result = run_pass(plan, args.seconds)
        passes = [result]
        metrics = end_to_end(result, setup_times)
    else:
        plan = workloads.setup(args.workload, args.seed, SRC, args.scale)
        plain = run_pass(plan, 0, rounds=1)
        plan = workloads.setup(args.workload, args.seed, SRC, args.scale)
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = False
        try:
            traced = run_pass(plan, 0, rounds=1, tracer=tracer)
        finally:
            tracer.uninstall()
        passes = [plain, traced]
        metrics = tracing.layer_metrics(tracer.spans)
        scaled = [sum(r[1] for r in p.timed("round") + p.timed("tour")) for p in (plain, traced)]
        metrics["trace.overhead_ratio"] = (scaled[1] / scaled[0], "ratio")
        metrics["trace.self_s_total"] = (sum(tracing.self_times(tracer.spans)), "s")
        metrics["trace.wall_s"] = (traced.wall_seconds(), "s")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"meta": metadata(args, plan, passes)}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
