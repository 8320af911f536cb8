"""
The three workloads: inputs made from a seed, the operations they time, and
the check each operation's output must pass.

Every workload is a closed loop of one client: the next operation starts when
the previous one has returned.  A workload is a list of *rounds*; round r is
built from the seed and r alone, so a run and its traced replay do the same
work.  Besides its rounds, every workload runs a short *tour*: small CLI
requests of every operation kind its rounds lack and a few cold
`python -m braidnil.cli` starts, with inputs that do not depend on the seed,
so that every metric and every layer is measured on every workload.  Tour
operations are excluded from `ops_per_s` and the latency percentiles.

Checks run outside the timed span.  They are written against the inputs, not
against a second call of the same function, so a fast wrong answer fails.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

MODULES = ("core", "expr", "torsion", "orbits", "invariants", "presentations", "cli")


@dataclass
class Op:
    """One timed operation: `run` is timed, `check(result)` is not."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    letters: int = 0
    relations: int = 0
    case: object = 0  # which input of its kind (its n, mostly); the repeats of a case are summarised by a median


@dataclass
class Plan:
    """A workload after set-up: its rounds, tour, audits and metadata."""

    make_round: Callable[[int], list[Op]]
    tour: list[Op]
    cold: list[Op]
    audits: list[Callable[[], bool]]
    grid: dict
    inputs: object  # JSON-able description of the generated inputs
    min_rounds: int = 1


def fresh_import(src: Path) -> SimpleNamespace:
    """Import braidnil from `src` anew, so that import time and empty caches are measured."""
    for name in [m for m in sys.modules if m == "braidnil" or m.startswith("braidnil.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return SimpleNamespace(src=src, **{m: importlib.import_module(f"braidnil.{m}") for m in MODULES})


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def random_word(core, rng: random.Random, n: int, length: int):
    return core.BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)))


def random_image(rng: random.Random, n: int) -> list[int]:
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return image


def dense_element(core, rng: random.Random, n: int, target: int = 0):
    """A random word of 2n letters raised to a power in 20..80, then moved to a uniformly random permutation.

    With a target, the one of three such elements whose level-2 entry count is
    closest to it is kept, so that the cost of a product varies little by seed.
    """
    def draw():
        x = core.power(core.collect(random_word(core, rng, n, 2 * n)), rng.randint(20, 80))
        return core.mul(x, core.collect(core.tits_lift(core.Permutation(tuple(random_image(rng, n))))))

    return min((draw() for _ in range(3 if target else 1)), key=lambda c: abs(len(c.comm.entries) - target))


def power_exponent(rng: random.Random, limit: int = 10 ** 6) -> int:
    """An exponent just below the limit with half its bits set, so every power costs the same number of products."""
    bits = limit.bit_length() - 1
    while True:
        m = (1 << bits) | sum(1 << b for b in rng.sample(range(bits), bits // 2))
        if m <= limit:
            return m


def relabel(core, x, tau: list[int]):
    """The normal form with every strand index i renamed tau[i-1].

    This is a syntactic renaming, not a conjugation: it gives a valid element
    of the same density with a fresh permutation, at O(entries) cost.
    """
    n = x.n
    image = [0] * n
    for i, v in enumerate(x.perm.image):
        image[tau[i] - 1] = tau[v - 1]
    t = tau.__getitem__
    return core.NilElement(
        n,
        core.Permutation(tuple(image)),
        core.PurePart.from_map(n, [((t(i - 1), t(j - 1)), e) for i, j, e in x.pure.entries]),
        core.CommPart.from_map(n, [((t(i - 1), t(j - 1), t(k - 1)), c) for i, j, k, c in x.comm.entries]),
    )


def with_cycle_type(core, rng: random.Random, x, length: int):
    """x times the section that makes its permutation a random cycle of this length.

    Squaring keeps an odd-length cycle a full cycle, so every product inside
    power() moves the graded part through a long section, whatever the seed.
    """
    n = x.n
    points = random_image(rng, n)[:length]
    target = list(range(1, n + 1))
    for a, b in zip(points, points[1:] + points[:1]):
        target[a - 1] = b
    fix = x.perm.inverse() * core.Permutation(tuple(target))
    return core.mul(x, core.collect(core.tits_lift(fix)))


def element_json(core, x) -> str:
    return json.dumps(core.element_to_dict(x), separators=(",", ":"))


def word_expression(word) -> str:
    return " ".join(f"s{k}" if eps == 1 else f"S{k}" for k, eps in word.letters)


def suite_total(suite: str, n: int = 3) -> int:
    """Closed-form relation counts of the verify suites."""
    p, t = math.comb(n, 2), math.comb(n, 3)
    return {
        "pn3": math.comb(t, 2) + t * p + p * p,
        "bn3": (n - 2) * (n - 3) // 2 + (n - 2) + (n - 1) * (p + t),
        "b3": 6 * 4 + 5 + 5 + 11,
        "fulltwist": 1,
    }[suite]


def strand_tracking(word) -> tuple[tuple[int, ...], dict]:
    """Independent level-1 oracle: permutation and pure exponents by following strands.

    Signed crossing counts per strand pair, minus the one positive crossing
    the section puts on each inverted pair, halved.
    """
    n = word.n
    line = list(range(1, n + 1))
    cross: dict[tuple[int, int], int] = {}
    for k, eps in word.letters:
        u, v = line[k - 1], line[k]
        key = (u, v) if u < v else (v, u)
        cross[key] = cross.get(key, 0) + eps
        line[k - 1], line[k] = v, u
    final = {strand: pos + 1 for pos, strand in enumerate(line)}
    image = tuple(final[i] for i in range(1, n + 1))
    inv_of = {v: i + 1 for i, v in enumerate(image)}
    pure = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            i, j = inv_of[a], inv_of[b]
            c = cross.get((min(i, j), max(i, j)), 0) - (1 if i > j else 0)
            if c % 2:
                return image, {"odd": (a, b)}
            if c:
                pure[(a, b)] = c // 2
    return image, pure


# ---------------------------------------------------------------------------
# Checks on group-law results
# ---------------------------------------------------------------------------

def check_mul(core, a_inverse: Callable, b):
    """a^-1 r == b, for r = a b; a_inverse() gives a^-1, so that callers may cache it."""
    return lambda r: core.mul(a_inverse(), r) == b


def check_inv(core, a):
    return lambda r: core.mul(a, r).is_identity()


def check_conj(core, g, x):
    return lambda r: core.mul(r, g) == core.mul(g, x)


def check_power(core, x, m):
    """x^m = x^(m-1) x: a different squaring chain, and the level-2 part is compared too."""
    return lambda r: core.mul(core.power(x, m - 1), x) == r


def check_order(core, x, expected: int):
    """The known order is met, and order(x) = q gives x^q = 1."""
    return lambda q: q == expected and core.power(x, q).is_identity()


def check_collect(core, word, cut: int):
    """Level 1 by strand tracking; all levels by folding the word in two parts and multiplying."""
    image, pure = strand_tracking(word)
    u, v = core.BraidWord(word.n, word.letters[:cut]), core.BraidWord(word.n, word.letters[cut:])
    return lambda e: (e.perm.image == image and e.pure.as_map() == pure
                      and core.mul(core.collect(u), core.collect(v)) == e)


def check_report(suite: str, n: int):
    return lambda rep: rep.passed and rep.total == suite_total(suite, n)


def letter_fold_audit(core, rng: random.Random, n: int, length: int):
    """mul(collect(u), collect(v)) == collect(u v) for fresh random words."""
    u, v = random_word(core, rng, n, length), random_word(core, rng, n, length)
    return lambda: core.mul(core.collect(u), core.collect(v)) == core.collect(u * v)


# ---------------------------------------------------------------------------
# CLI requests
# ---------------------------------------------------------------------------

def cli_call(bn, argv: list[str]) -> tuple[int, str]:
    """braidnil.cli.main in this process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = bn.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _signed_permutation_matrix(rows, signed: bool) -> bool:
    """Square, one nonzero per row and per column, each +1 (or -1 when signed)."""
    size = len(rows)
    cols = set()
    for row in rows:
        if len(row) != size or row.count(0) != size - 1:
            return False
        if 1 in row:
            cols.add(row.index(1))
        elif signed and -1 in row:
            cols.add(row.index(-1))
        else:
            return False
    return len(cols) == size


class CliChecks:
    """Checks shared by all CLI requests: exit 0, canonical JSON, same bytes on repeat.

    A repeated argv must give the bytes of its first answer; once those bytes
    have passed the request's own check, a repeat that matches them is not
    checked again.
    """

    def __init__(self, bn):
        self.bn = bn
        self.seen: dict[tuple[str, ...], str] = {}
        self.passed: set[tuple[str, ...]] = set()

    def op(self, kind: str, argv: list[str], check: Callable[[dict], bool] = lambda doc: True,
           **counts) -> Op:
        bn = self.bn
        key = tuple(argv)

        def full_check(result) -> bool:
            code, text = result
            if code != 0:
                return False
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.seen.setdefault(key, digest) != digest:
                return False
            if key in self.passed:
                return True
            doc = json.loads(text)
            if text != bn.core.dumps_canonical(doc) + "\n" or not check(doc):
                return False
            self.passed.add(key)
            return True

        return Op(kind, lambda: cli_call(bn, argv), full_check, **counts)


def cli_requests(bn, rng: random.Random, size: dict, checks: CliChecks) -> tuple[list[Op], list]:
    """CLI requests as a user scripts them, with expressions and element JSON as input."""
    core, torsion = bn.core, bn.torsion
    ops: list[Op] = []
    inputs: list = []

    def add(kind, argv, check=lambda doc: True, **counts):
        ops.append(checks.op(kind, argv, check, **counts))
        inputs.append(argv)

    def elem(doc_part):
        return core.element_from_dict(doc_part)

    # a witness's cost hangs on the conjugator drawn, so most n take two: each input is a case
    for i, n in enumerate(size["witness"]):
        a = torsion.element_with_cycle_type(n, [n])
        g = core.collect(random_word(core, rng, n, 60))
        b = core.conj(g, a)
        add("witness", ["conjugacy", "witness", "--n", str(n), element_json(core, a), element_json(core, b)],
            lambda doc, a=a, b=b: core.conj(elem(doc["witness"]), a) == b, case=i)
    for n in size["holonomy"]:
        word = random_word(core, rng, n, 3 * n)
        add("holonomy", ["holonomy", "--n", str(n), word_expression(word)],
            lambda doc: doc["det"] in (1, -1)
            and _signed_permutation_matrix(doc["block1"], signed=False)
            and _signed_permutation_matrix(doc["block2"], signed=True), case=n)
    for n, length in size["collect"]:
        word = random_word(core, rng, n, length)
        add("collect", ["collect", "--n", str(n), word_expression(word)],
            lambda doc, word=word: elem(doc) == core.collect(word), letters=length, case=(n, length))
    fixed_pool = random.Random("cli-pool")  # as in grouplaw, the seed renames a fixed dense element
    for n in size["group_n"]:
        base = dense_element(core, fixed_pool, n, math.comb(n, 3) // 4)
        x, y, x2, y2 = (relabel(core, base, random_image(rng, n)) for _ in range(4))
        y, y2 = with_cycle_type(core, rng, y, n - 1), with_cycle_type(core, rng, y2, n - 1)
        # a product is quick, and its cost hangs on the permutations drawn: five of them, from two pairs
        for j, (u, v) in enumerate(((x, y), (y, x), (x, x), (x2, y2), (y2, x2))):
            add("mul", ["mul", "--n", str(n), element_json(core, u), element_json(core, v)],
                lambda doc, u=u, v=v: check_mul(core, lambda: core.inv(u), v)(elem(doc)), case=(n, j))
        add("inv", ["inv", "--n", str(n), element_json(core, x)], lambda doc, x=x: check_inv(core, x)(elem(doc)),
            case=n)
        add("conj", ["conj", "--n", str(n), element_json(core, x), element_json(core, y)],
            lambda doc, x=x, y=y: check_conj(core, x, y)(elem(doc)), case=n)
        # a power's cost hangs on its base's cycle, so two bases: y, and x moved to a long cycle
        for j, z in enumerate((y, with_cycle_type(core, rng, x, n - 1))):
            m = power_exponent(rng)
            add("power", ["pow", "--n", str(n), element_json(core, z), str(m)],
                lambda doc, z=z, m=m: check_power(core, z, m)(elem(doc)), case=(n, j))
    fixed = random.Random("cli-order")  # as in grouplaw, order inputs do not depend on the seed
    for n, parts in size["cycle_type"]:
        q = math.lcm(*parts)
        g = core.collect(random_word(core, fixed, n, 60))
        z = core.conj(g, torsion.element_with_cycle_type(n, list(parts)))
        add("order", ["order", "--n", str(n), element_json(core, z)], lambda doc, q=q: doc["order"] == q, case=n)
        add("torsion", ["torsion", "--n", str(n), "--cycle-type", ",".join(map(str, parts))],
            lambda doc, parts=parts, q=q: doc["order"] == q
            and sorted(p for p in elem(doc["element"]).perm.cycle_type() if p > 1) == sorted(parts), case=n)
    n = size["residues"]
    rows = torsion.compatible_residues(n)
    for row in rows:  # a zero-sum perturbation keeps the order-n condition
        shift = [rng.randint(-3, 3) for _ in row[1:]]
        row[0] -= sum(shift)
        row[1:] = [r + s for r, s in zip(row[1:], shift)]
    add("torsion", ["torsion", "--n", str(n), "--residues", json.dumps({"n": n, "residues": rows})],
        lambda doc, n=n: doc["order"] == n, case=n)
    for n in size["orbits"]:
        add("orbits", ["orbits", "--n", str(n)],
            lambda doc, n=n: sorted(t for o in doc["orbits"] for t in map(tuple, o["triples"]))
            == list(core.triples(n)), case=n)
    for n in size["delta_pow"]:
        add("delta-pow", ["delta-pow", "--n", str(n)],
            lambda doc: len(doc["orbit_constants"]) == len(doc["orbit_representatives"]), case=n)
    for suite, n in size["verify"]:
        argv = ["verify", "--suite", suite] + ([] if suite == "b3" else ["--n", str(n)])
        total = suite_total(suite, n)
        add("suite", argv,
            lambda doc, total=total: all(r["passed"] for r in doc["reports"])
            and sum(r["total"] for r in doc["reports"]) == total, relations=total, case=(suite, n))
    return ops, inputs


def cold_starts(bn, count: int) -> list[Op]:
    """One-at-a-time `python -m braidnil.cli` processes, each right after a bare `python -c pass`.

    The wall time of a cold start includes interpreter start-up; the bare
    start beside it measures what process creation costs on the host just then.
    """
    argv = ["collect", "--n", "5", "(s4 s3 s2^-1 s1^-1)^5"]
    env = dict(os.environ, PYTHONPATH=str(bn.src))
    expected = {}

    def run(args):
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout

    def check(result):
        if "out" not in expected:
            expected["out"] = cli_call(bn, argv)
        return result == expected["out"]

    bare = Op("bare", lambda: run(["-c", "pass"]), lambda result: result == (0, ""))
    cold = Op("cold", lambda: run(["-m", "braidnil.cli", *argv]), check)
    return [bare, cold] * count


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

TOUR_SIZE = {
    "witness": (11, 13), "holonomy": (12, 14), "collect": ((8, 300), (12, 300)), "group_n": (10, 11),
    "cycle_type": ((12, (5, 7)), (11, (11,))), "residues": 7, "orbits": (9,), "delta_pow": (11,),
    "verify": (("pn3", 5), ("bn3", 5), ("b3", 3), ("fulltwist", 8)),
}
TINY_TOUR_SIZE = {
    "witness": (5,), "holonomy": (4,), "collect": ((4, 20),), "group_n": (5,),
    "cycle_type": ((5, (5,)),), "residues": 5, "orbits": (5,), "delta_pow": (5,),
    "verify": (("pn3", 3), ("bn3", 3), ("b3", 3), ("fulltwist", 3)),
}

SIZES = {
    "grouplaw": {
        "full": {"n": (16, 24, 32), "power_n": 16, "pool": 4, "audit_len": 300,
                 "entries": {16: 100, 24: 220, 32: 420}, "conjs": {16: 0, 24: 0, 32: 3},
                 "cycle_types": ((5, 7), (5, 11), (7, 7), (13,))},
        "tiny": {"n": (5, 6, 7), "power_n": 5, "pool": 2, "audit_len": 20,
                 "entries": {5: 4, 6: 8, 7: 12}, "conjs": {5: 1, 6: 1, 7: 1},
                 "cycle_types": ((5,),)},
    },
    "verify": {
        "full": {"pn3": (6, 7, 8, 9), "bn3": (6, 7, 8, 9), "fulltwist": (12, 14, 16),
                 "collect": ((8, 2600),) * 5 + ((8, 5000), (12, 4000), (16, 3500), (24, 2500), (32, 2000)),
                 "audit_len": 300},
        "tiny": {"pn3": (4,), "bn3": (4,), "fulltwist": (4,), "collect": ((4, 30),), "audit_len": 20},
    },
    "cli": {
        "full": {"witness": (11, 11, 13, 13, 17, 17, 19, 23), "holonomy": (12, 20, 28),
                 "collect": ((8, 3000), (12, 1500), (16, 1000)), "group_n": (12, 14),
                 "cycle_type": ((13, (13,)), (17, (5, 11)), (19, (7, 11)), (23, (5, 7, 11))), "residues": 11,
                 "orbits": (15, 21), "delta_pow": (13, 17),
                 "verify": (("pn3", 6), ("bn3", 7), ("b3", 3), ("fulltwist", 12)), "audit_len": 300},
        "tiny": dict(TINY_TOUR_SIZE, audit_len=20),
    },
}
COLD_STARTS = {"full": 6, "tiny": 1}


def _grouplaw(bn, rng: random.Random, seed: int, s: dict):
    core, torsion = bn.core, bn.torsion
    # what a product costs hangs on the level-2 entry count of its left factor, so that count
    # does not depend on the seed: at each n the pool is one fixed dense element, renamed by
    # permutations drawn from the seed
    fixed_pool = random.Random("grouplaw-pool")
    pool = {}
    for n in s["n"]:
        base = dense_element(core, fixed_pool, n, s["entries"][n])
        pool[n] = [relabel(core, base, random_image(rng, n)) for _ in range(s["pool"])]
    pn = s["power_n"]
    # the order() inputs do not depend on the seed: their cost hangs on the
    # conjugator's permutation, and order_ms should measure the engine, not the draw
    fixed = random.Random("grouplaw-order")
    finite = [(core.conj(dense_element(core, fixed, pn, s["entries"][pn]),
                         torsion.element_with_cycle_type(pn, list(parts))),
               math.lcm(*parts)) for parts in s["cycle_types"]]
    inverses = {}  # pool inverses for the checks, computed on first use

    def pool_inverse(i, n):
        if (n, i) not in inverses:
            inverses[(n, i)] = core.inv(pool[n][i])
        return inverses[(n, i)]

    def make_round(r: int) -> list[Op]:
        rr = random.Random(f"grouplaw:{seed}:{r}")
        ops = []
        for n in s["n"]:
            xs = pool[n]

            def fresh():
                return relabel(core, rr.choice(xs), random_image(rr, n))

            for i in range(len(xs)):  # every pool element is a left factor once per round
                b = fresh()
                ops.append(Op("mul", lambda a=xs[i], b=b: bn.core.mul(a, b),
                              check_mul(core, lambda i=i, n=n: pool_inverse(i, n), b), case=n))
            a = fresh()
            ops.append(Op("inv", lambda a=a: bn.core.inv(a), check_inv(core, a), case=n))
            for _ in range(s["conjs"][n]):
                g, x = fresh(), rr.choice(xs)
                ops.append(Op("conj", lambda g=g, x=x: bn.core.conj(g, x), check_conj(core, g, x), case=n))
        x, m = with_cycle_type(core, rr, rr.choice(pool[pn]), pn - 1), power_exponent(rr)
        ops.append(Op("power", lambda x=x, m=m: bn.core.power(x, m), check_power(core, x, m), case=pn))
        for y, q in finite:
            ops.append(Op("order", lambda y=y: bn.core.order(y), check_order(core, y, q), case=q))
        return ops

    inputs = {str(n): [core.element_to_dict(x) for x in xs] for n, xs in pool.items()}
    inputs["finite"] = [[core.element_to_dict(y), q] for y, q in finite]
    grid = {"mul": s["n"], "inv": s["n"], "conj": s["n"], "power": [pn], "order": [pn],
            "level2_entries": {str(n): [len(x.comm.entries) for x in xs] for n, xs in pool.items()}}
    return make_round, inputs, grid, s["n"]


def _verify(bn, seed: int, s: dict):
    core, pres = bn.core, bn.presentations
    suites = ([("pn3", n, pres.pure_presentation) for n in s["pn3"]]
              + [("bn3", n, pres.braid_presentation) for n in s["bn3"]]
              + [("fulltwist", n, pres.full_twist) for n in s["fulltwist"]])

    def b3():
        reports = [bn.presentations.subgroup_presentation(name) for name in pres.SUBGROUPS]
        return SimpleNamespace(passed=all(r.passed for r in reports), total=sum(r.total for r in reports))

    def make_round(r: int) -> list[Op]:
        rr = random.Random(f"verify:{seed}:{r}")
        ops = []
        for suite, n, fn in suites:
            name = fn.__name__
            ops.append(Op("suite", lambda name=name, n=n: getattr(bn.presentations, name)(n),
                          check_report(suite, n), relations=suite_total(suite, n), case=(suite, n)))
        ops.append(Op("suite", b3, check_report("b3", 3), relations=suite_total("b3"), case=("b3", 3)))
        for n, length in s["collect"]:
            w = random_word(core, rr, n, length)
            ops.append(Op("collect", lambda w=w: bn.core.collect(w), check_collect(core, w, rr.randint(1, length)),
                          letters=length, case=(n, length)))
        return ops

    inputs = [core.word_to_dict(w) for w in
              (random_word(core, random.Random(f"verify:{seed}:0"), n, length) for n, length in s["collect"])]
    grid = {"pn3": s["pn3"], "bn3": s["bn3"], "fulltwist": s["fulltwist"],
            "collect": [list(c) for c in s["collect"]]}
    return make_round, inputs, grid, tuple(sorted({n for n, _ in s["collect"]}))


def setup(workload: str, seed: int, src: Path, scale: str = "full") -> Plan:
    """Import braidnil afresh and build the workload's inputs from the seed."""
    bn = fresh_import(src)
    rng = random.Random(f"{workload}:{seed}")
    s = SIZES[workload][scale]
    checks = CliChecks(bn)
    # the tour's inputs do not depend on the seed: it measures the same requests in every run
    tour, tour_inputs = cli_requests(bn, random.Random("tour"), TOUR_SIZE if scale == "full" else TINY_TOUR_SIZE,
                                     checks)
    min_rounds = 1
    if workload == "grouplaw":
        make_round, inputs, grid, audit_n = _grouplaw(bn, rng, seed, s)
        own = {"mul", "inv", "conj", "power", "order"}
        min_rounds = 3  # the latency percentiles sit in bands of a few operations a round
    elif workload == "verify":
        make_round, inputs, grid, audit_n = _verify(bn, seed, s)
        own = {"suite", "collect"}
    elif workload == "cli":
        ops, inputs = cli_requests(bn, rng, s, checks)
        make_round = lambda r: ops  # the same argv every round: repeats must give the same bytes
        grid = {k: v for k, v in s.items() if k != "audit_len"}
        audit_n = tuple(n for n, _ in s["collect"])
        own = {op.kind for op in ops}
        min_rounds = 2
    else:
        raise ValueError(f"unknown workload {workload!r}")
    audits = [letter_fold_audit(bn.core, rng, n, s["audit_len"]) for n in audit_n]
    # the tour stands in only for the kinds of operation that the workload's own rounds lack
    tour = [op for op in tour if op.kind not in own]
    return Plan(make_round, tour, cold_starts(bn, COLD_STARTS[scale]), audits, grid,
                {"workload": inputs, "tour": tour_inputs}, min_rounds)


WORKLOADS = ("grouplaw", "verify", "cli")


def fingerprint(plan: Plan) -> str:
    """A digest of the generated inputs, for checking that a seed reproduces them."""
    return hashlib.sha256(json.dumps(plan.inputs, sort_keys=True, default=list).encode()).hexdigest()
