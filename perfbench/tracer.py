"""
Span tracing of braidnil from outside the package.

`Tracer.install()` replaces every public function of every braidnil module,
in every module namespace that binds it, by a wrapper that records a span
(name, start, end, parent) and, for a few functions, a cheap tuple of inputs
and outputs from which counts are derived after the run.  Nothing in `src/`
is edited; `uninstall()` puts the original objects back.

Counts are derived from inputs and outputs only, never from timings, so they
repeat exactly for the same seed.
"""

from __future__ import annotations

import sys
import time
from types import FunctionType

from workloads import MODULES as LAYERS

SUITES = {
    "pure_presentation": "pn3",
    "braid_presentation": "bn3",
    "subgroup_presentation": "b3",
    "full_twist": "fulltwist",
}


def _entries(e) -> int:
    return len(e.pure.entries) + len(e.comm.entries)


def _count_terms(terms) -> int:
    return sum(1 + (_count_terms(atom[1]) if atom[0] == "group" else 0) for atom, _ in terms)


# per-span notes, taken after the call returns; each must stay O(1) or close
_NOTES = {
    "core.mul": lambda args, result: (_entries(args[0]), args[1].perm.image),
    "core.collect": lambda args, result: len(args[0].letters),
    "expr.parse": lambda args, result: len(args[0].encode()),
    "expr.Expression.element": lambda args, result: _count_terms(args[0].terms),
    "core.dumps_canonical": lambda args, result: len(result.encode()),
    "invariants.holonomy_matrix": lambda args, result: len(result.pair_basis) ** 2 + len(result.triple_basis) ** 2,
    **{f"presentations.{fn}": (lambda args, result: result.total) for fn in SUITES},
}


class Tracer:
    """Records spans of wrapped braidnil functions in memory, one thread."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, note]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.enabled = True

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)
        spans, stack = self.spans, self._stack
        stdout_note = name == "cli.main"

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            pos = sys.stdout.tell() if stdout_note else 0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            elif stdout_note:
                span[4] = sys.stdout.tell() - pos
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of each layer module of the imported braidnil wherever they are bound."""
        modules = [sys.modules["braidnil"]] + [sys.modules[f"braidnil.{m}"] for m in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"braidnil.{layer}"]
            for attr, obj in vars(mod).items():
                if isinstance(obj, FunctionType) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        expression = sys.modules["braidnil.expr"].Expression
        self._patched.append((expression, "element", expression.element))
        expression.element = self._wrap("expr.Expression.element", expression.element)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Derive the per-layer metrics named in BENCHMARK.json from recorded spans."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    notes: dict[str, list] = {}
    for (name, _, _, _, note), s in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + s
        if note is not None:
            notes.setdefault(name, []).append(note)

    out: dict[str, tuple[float, str]] = {}

    def both(name):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (busy.get(name, 0.0), "s")

    for fn in ("mul", "inv", "conj", "power", "order", "collect", "comm_conjugation_map"):
        both(f"core.{fn}")
    inversions: dict[tuple, int] = {}
    section_letters = relabels = repeats = 0
    for left_entries, image in notes.get("core.mul", []):
        if image in inversions:
            repeats += 1
        else:
            inversions[image] = sum(1 for i in range(len(image)) for j in range(i + 1, len(image))
                                    if image[i] > image[j])
        section_letters += inversions[image]
        relabels += inversions[image] * left_entries
    mul_calls = calls.get("core.mul", 0)
    out["core.mul.section_letters"] = (section_letters, "count")
    out["core.mul.relabels"] = (relabels, "count")
    out["core.mul.perm_repeat_ratio"] = (repeats / mul_calls if mul_calls else 0.0, "ratio")
    out["core.collect.letters"] = (sum(notes.get("core.collect", [])), "count")
    for fn, suite in SUITES.items():
        name = f"presentations.{fn}"
        out[f"presentations.{suite}.self_s"] = (busy.get(name, 0.0), "s")
        out[f"presentations.{suite}.relations"] = (sum(notes.get(name, [])), "count")
    for name in ("orbits.orbit_basis_of", "orbits.orbit_partition", "torsion.conjugacy_witness",
                 "torsion.finite_order_element", "torsion.delta_power_coefficients",
                 "torsion.element_with_cycle_type", "invariants.holonomy_matrix", "expr.parse",
                 "cli.main"):
        both(name)
    out["invariants.holonomy_matrix.cells"] = (sum(notes.get("invariants.holonomy_matrix", [])), "count")
    out["expr.parse.bytes"] = (sum(notes.get("expr.parse", [])), "B")
    out["expr.Expression.element.self_s"] = (busy.get("expr.Expression.element", 0.0), "s")
    out["expr.Expression.element.terms"] = (sum(notes.get("expr.Expression.element", [])), "count")
    out["cli.main.stdout_bytes"] = (sum(notes.get("cli.main", [])), "B")
    out["core.dumps_canonical.self_s"] = (busy.get("core.dumps_canonical", 0.0), "s")
    out["core.dumps_canonical.bytes"] = (sum(notes.get("core.dumps_canonical", [])), "B")
    return out
