"""Command-line interface behaviour: outputs, determinism, exit codes."""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidnil
from braidnil import invariants, orbits, presentations, torsion
from braidnil.cli import _COMMANDS, _int_option, build_parser, main, respond
from braidnil.core import (
    DomainError,
    Permutation,
    PurePart,
    collect,
    comm_gen,
    conjugation_step,
    dumps_canonical,
    element_from_dict,
    element_to_dict,
    identity,
    inv,
    mul,
    power,
    pure_gen,
    sigma,
    triples,
)
from braidnil.expr import _MAX_NESTING
from braidnil.invariants import lcs_rank, power_sum
from braidnil.orbits import OrbitBasis, orbit_partition, signed_orbits
from braidnil.torsion import (
    SPECTRUM_MAX_N,
    delta,
    delta_power_coefficients,
    element_with_cycle_type,
    finite_order_element,
)
from conftest import counted, dense_holonomy, holonomy_json, holonomy_pretty, peak_in_child, random_word


def run(*argv):
    """respond(argv) with its own buffers: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    return respond(list(argv), out, err), out.getvalue(), err.getvalue()


def test_collect_outputs_canonical_json():
    code, out, _ = run("collect", "--n", "5", "(s4 s3 s2^-1 s1^-1)^5")
    assert code == 0
    assert out == ('{"comm":[[1,2,4,-1],[1,3,4,-1],[1,3,5,-1],[2,3,5,-1],[2,4,5,-1]],'
                   '"n":5,"perm":[1,2,3,4,5],"pure":[]}\n')


def test_identical_invocations_are_byte_identical():
    first = run("table", "--nmax", "6", "--kmax", "5")
    second = run("table", "--nmax", "6", "--kmax", "5")
    assert first == second


def test_order_subcommand():
    code, out, _ = run("order", "--n", "5", "a[1,2,4] (s4 s3 s2^-1 s1^-1)")
    assert code == 0 and json.loads(out) == {"n": 5, "order": 5}
    code, out, _ = run("order", "--n", "5", "s1")
    assert code == 0 and json.loads(out) == {"n": 5, "order": "infinite"}


def test_table_grid_values():
    code, out, _ = run("table", "--nmax", "6", "--kmax", "5")
    rows = {(r["n"], r["k"]): r["dim"] for r in json.loads(out)["rows"]}
    assert code == 0
    assert [rows[(n, 5)] for n in (3, 4, 5, 6)] == [9, 41, 131, 336]


def test_element_json_round_trip_through_cli():
    code, out, _ = run("collect", "--n", "5", "A[1,2]^2 a[1,3,5]^-1 s1")
    assert code == 0
    code2, out2, _ = run("collect", "--n", "5", out.strip())
    assert code2 == 0 and out2 == out


def test_word_json_input():
    word = json.dumps({"n": 5, "word": [[4, 1], [3, 1], [2, -1], [1, -1]]})
    code, out, _ = run("pow", "--n", "5", word, "5")
    assert code == 0
    assert json.loads(out)["comm"] == [[1, 2, 4, -1], [1, 3, 4, -1], [1, 3, 5, -1],
                                       [2, 3, 5, -1], [2, 4, 5, -1]]


def test_mul_inv_pow_conj():
    code, out, _ = run("mul", "--n", "3", "s1", "s1")
    assert json.loads(out)["pure"] == [[1, 2, 1]]
    code, out, _ = run("inv", "--n", "3", "s1 s2")
    e = element_from_dict(json.loads(out))
    code, out, _ = run("pow", "--n", "3", "s1 s2", "-1")
    assert element_from_dict(json.loads(out)) == e
    code, out, _ = run("conj", "--n", "3", "s1", "A[1,3]")
    got = element_from_dict(json.loads(out))
    assert got == element_from_dict({"n": 3, "perm": [1, 2, 3], "pure": [[2, 3, 1]], "comm": []})


def test_delta_and_delta_pow():
    code, out, _ = run("delta", "--n", "5", "--k", "5")
    assert element_from_dict(json.loads(out)) == delta(0, 5, 5)
    code, out, _ = run("delta-pow", "--n", "5")
    doc = json.loads(out)
    assert doc["orbit_constants"] == [0, -1]
    assert doc["orbit_representatives"] == [[1, 2, 3], [1, 2, 4]]


def test_orbits_and_ranks():
    code, out, _ = run("orbits", "--n", "6")
    doc = json.loads(out)
    assert [o["length"] for o in doc["orbits"]] == [6, 6, 6, 2]
    code, out, _ = run("ranks", "--n", "5", "--qmax", "3")
    assert json.loads(out)["ranks"] == [{"q": 1, "rank": 10}, {"q": 2, "rank": 10}, {"q": 3, "rank": 30}]
    code, out, _ = run("ranks", "--n", "5", "--q", "2")
    assert json.loads(out)["ranks"] == [{"q": 2, "rank": 10}]


def test_torsion_subcommands():
    code, out, _ = run("torsion", "--n", "12", "--spectrum")
    assert json.loads(out)["spectrum"] == [5, 7, 11, 35]
    code, out, _ = run("torsion", "--n", "12", "--cycle-type", "5,7")
    assert json.loads(out)["order"] == 35
    residues = json.dumps({"n": 5, "residues": [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]]})
    code, out, _ = run("torsion", "--n", "5", "--residues", residues)
    assert json.loads(out)["order"] == 5


@pytest.mark.parametrize("parts", ["", ","])
def test_an_empty_cycle_type_is_the_identity(parts):
    code, out, err = run("torsion", "--n", "5", "--cycle-type", parts)
    assert (code, err) == (0, "")
    assert out == '{"element":{"comm":[],"n":5,"perm":[1,2,3,4,5],"pure":[]},"n":5,"order":1,"parts":[]}\n'


@pytest.mark.parametrize("residues, stderr", [
    pytest.param('{"n":7,"residues":[]}', "residue matrix strand count disagrees with --n", id="strand-count"),
    pytest.param('{"n":5}', "bad residue JSON: 'residues'", id="missing-key"),
    pytest.param('{"n":5,"residues":7}', "bad residue JSON: 'int' object is not iterable", id="not-a-list"),
])
def test_bad_residue_json_exits_3(residues, stderr):
    code, out, err = run("torsion", "--n", "5", "--residues", residues)
    assert (code, out, err) == (3, "", f"domain error: {stderr}\n")


def test_torsion_spectrum_at_80_strands_is_fast():
    start = time.perf_counter()
    code, out, _ = run("torsion", "--n", "80", "--spectrum")
    assert time.perf_counter() - start < 1.0
    spectrum = json.loads(out)["spectrum"]
    assert code == 0 and len(spectrum) == 634 and spectrum[:4] == [5, 7, 11, 13]


def test_torsion_spectrum_past_its_bound_exits_3_at_once():
    start = time.perf_counter()
    code, out, err = run("torsion", "--n", str(SPECTRUM_MAX_N + 1), "--spectrum")
    assert time.perf_counter() - start < 0.2
    assert code == 3 and out == "" and f"n <= {SPECTRUM_MAX_N}" in err


def test_conjugacy_cli():
    a = "a[1,2,4] (s4 s3 s2^-1 s1^-1)"
    b = f"s2 ({a}) s2^-1"
    code, out, _ = run("conjugacy", "decide", "--n", "5", a, b)
    assert code == 0 and json.loads(out)["conjugate"] is True
    code, out, _ = run("conjugacy", "witness", "--n", "5", a, b)
    doc = json.loads(out)
    assert code == 0 and "witness" in doc
    g = element_from_dict(doc["witness"])
    from braidnil.core import conj
    from braidnil.expr import parse
    assert conj(g, parse(a, 5).element()) == parse(b, 5).element()


def test_small_n_conjugacy_is_flagged():
    code, out, err = run("conjugacy", "decide", "--n", "3", "", "")
    assert code == 0
    assert json.loads(out)["proven_range"] is False
    assert "proven range" in err


def test_witness_of_different_cycle_types_exits_3():
    a, b = (dumps_canonical(element_to_dict(element_with_cycle_type(10, parts))) for parts in ([5], [5, 5]))
    code, out, err = run("conjugacy", "witness", "--n", "10", a, b)
    assert (code, out, err) == (3, "", "domain error: witness requires conjugate inputs (equal cycle types)\n")


def test_witness_of_infinite_order_inputs_exits_3():
    code, out, err = run("conjugacy", "witness", "--n", "5", "s1", "s1")
    assert (code, out, err) == (3, "", "domain error: conjugacy decision requires finite-order inputs\n")


_ORDER_FIVE = "a[1,2,4] (s4 s3 s2^-1 s1^-1)"


# the witness computes the sparser input's order first and the other's only when a stage fails
@pytest.mark.parametrize("left, right", [
    pytest.param(_ORDER_FIVE, f"A[1,2] {_ORDER_FIVE}", id="finite-then-infinite-same-permutation"),
    pytest.param(f"A[1,2] {_ORDER_FIVE}", _ORDER_FIVE, id="infinite-then-finite-same-permutation"),
    pytest.param("s1", _ORDER_FIVE, id="infinite-then-finite-other-cycle-type"),
    pytest.param(_ORDER_FIVE, "s1", id="finite-then-infinite-other-cycle-type"),
])
def test_an_infinite_order_witness_input_exits_3_as_the_decision(left, right):
    code, out, err = run("conjugacy", "witness", "--n", "5", left, right)
    assert (code, out, err) == (3, "", "domain error: conjugacy decision requires finite-order inputs\n")


def test_small_n_witness_is_flagged():
    code, out, err = run("conjugacy", "witness", "--n", "3", "", "")
    assert code == 0
    assert err == "note: conjugacy criterion is outside its proven range for n < 5\n"
    assert out == ('{"conjugate":true,"cycle_types":[[1,1,1],[1,1,1]],"n":3,"proven_range":false,'
                   '"witness":{"comm":[],"n":3,"perm":[1,2,3],"pure":[]}}\n')


@pytest.mark.parametrize("module, name, fake, stage", [
    # the aligning conjugator is the identity, so a keeps its permutation
    pytest.param(torsion, "conjugating_permutation", lambda pa, pb: Permutation.identity(pa.n),
                 "witness permutation alignment failed: got [2, 3, 4, 5, 1], want [3, 4, 2, 5, 1]",
                 id="alignment"),
    # every pair, and at level 2 every triple, is its own orbit, so a row sum is a bare coefficient difference
    pytest.param(orbits, "conjugation_step", lambda perm, cls: lambda k: (k, 1),
                 "witness level 1 (pair orbits) failed: orbit 0 at (1, 2) has row sum -1", id="level-1-row-sum"),
    pytest.param(torsion, "orbit_basis_of",
                 lambda perm, cls: orbits.orbit_basis_of(perm, cls) if cls is PurePart
                 else OrbitBasis(perm.n, tuple(((t, 1),) for t in triples(perm.n))),
                 "witness level 2 (triple orbits) failed: orbit 1 at (1, 2, 4) has row sum -3",
                 id="level-2-row-sum"),
    # every triple is fixed with sign -1, so no triple orbit closes
    pytest.param(orbits, "conjugation_step",
                 lambda perm, cls: conjugation_step(perm, cls) if cls is PurePart else lambda t: (t, -1),
                 "witness level 2 (triple orbits) failed: orbit of (1, 2, 3) closes with sign -1",
                 id="level-2-sign-closure"),
    # the product drops the level-1 and permutation factors
    pytest.param(torsion, "mul", lambda x, y: x, "witness final check failed: conj(g, a) differs from b",
                 id="final-check"),
])
def test_a_failed_witness_stage_exits_3_naming_it(monkeypatch, module, name, fake, stage):
    monkeypatch.setattr(module, name, fake)
    a = "a[1,2,4] (s4 s3 s2^-1 s1^-1)"
    code, out, err = run("conjugacy", "witness", "--n", "5", a, f"A[1,2] s2 ({a}) s2^-1 A[1,2]^-1")
    assert (code, out, err) == (3, "", f"domain error: {stage}\n")


def _two_sign_flips(perm, cls):
    """The true step with the signs of the first two steps of each orbit flipped, so every orbit closes with +1."""
    step = conjugation_step(perm, cls)
    flipped = {orbit[j][0] for orbit in signed_orbits(cls.keys(perm.n), step) for j in (0, 1)}
    return lambda key: (step(key)[0], -step(key)[1] if key in flipped else step(key)[1])


# each self-check stands between a broken engine step and a wrong answer: with the step faked, the library raises
# the check's message and the CLI request exits 3 with that one line
@pytest.mark.parametrize("module, name, fake, call, argv, message", [
    # a power sum one too large at r = 2 leaves the level-2 Moebius sum 91 - 21 = 70 odd
    pytest.param(invariants, "power_sum", lambda r, n: power_sum(r, n) + (r == 2), lambda: lcs_rank(7, 2),
                 ["ranks", "--n", "7", "--q", "2"], "Moebius sum 71 not divisible by 2 at n=7",
                 id="lcs-rank-divisibility"),
    # every triple is fixed, so the 5 orbits of length 7 become 35 of length 1
    pytest.param(orbits, "conjugation_step", lambda perm, cls: lambda k: (k, 1), lambda: orbit_partition(7),
                 ["orbits", "--n", "7"], f"orbit lengths {[1] * 35} differ from closed form {[7] * 5}",
                 id="orbit-partition-closed-form"),
    pytest.param(orbits, "conjugation_step", _two_sign_flips, lambda: orbit_partition(7), ["orbits", "--n", "7"],
                 "cycle-element orbits must have all signs +1", id="orbit-partition-signs"),
    # the seventh power of the cycle element is the cycle element itself
    pytest.param(torsion, "power", lambda a, m: a, lambda: delta_power_coefficients(7), ["delta-pow", "--n", "7"],
                 "cycle element power left the level-2 kernel; engine inconsistency", id="delta-power-kernel"),
    # a[1,2,3] more on orbit 0, whose constant is 0
    pytest.param(torsion, "power", lambda a, m: mul(power(a, m), comm_gen(a.n, (1, 2, 3))),
                 lambda: delta_power_coefficients(7), ["delta-pow", "--n", "7"],
                 "orbit 0 coefficients [1, 0, 0, 0, 0, 0, 0] are not constant", id="delta-power-constant"),
])
def test_a_self_check_raises_in_the_library_and_exits_3_in_the_cli(monkeypatch, module, name, fake, call, argv,
                                                                   message):
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
    assert run(*argv) == (3, "", f"domain error: {message}\n")


def test_a_witness_request_decides_conjugacy_once(monkeypatch):
    # a verified witness needs one order; a failed stage needs the other to name the failure
    calls = counted(monkeypatch, braidnil.torsion, "order")
    code, out, _ = run("conjugacy", "witness", "--n", "5", _ORDER_FIVE, f"s2 ({_ORDER_FIVE}) s2^-1")
    assert code == 0 and "witness" in json.loads(out)
    assert calls[0] == 1
    code, _, _ = run("conjugacy", "witness", "--n", "5", _ORDER_FIVE, f"A[1,2] {_ORDER_FIVE}")
    assert code == 3
    assert calls[0] == 1 + 2


def test_delta_pow_builds_one_orbit_basis(monkeypatch):
    calls = counted(monkeypatch, braidnil.orbits, "orbit_basis_of")
    code, out, _ = run("delta-pow", "--n", "7")
    assert code == 0 and len(json.loads(out)["orbit_representatives"]) == 5
    assert calls[0] == 1


def test_holonomy_paper_basis():
    code, out, _ = run("holonomy", "--n", "3", "s1", "--paper-basis")
    doc = json.loads(out)
    assert doc["block1"] == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert doc["block2"] == [[-1]]
    assert doc["det"] == 1


@pytest.mark.parametrize("n", range(1, 13))
def test_holonomy_output_equals_the_dense_oracle(n):
    # both blocks are empty at n = 1, and the triple block at n = 2
    rng = random.Random(n)
    for _ in range(3):
        g = collect(random_word(rng, n))
        doc = dense_holonomy(g)
        arg = json.dumps(element_to_dict(g))
        assert run("holonomy", "--n", str(n), arg) == (0, holonomy_json(doc), "")
        assert run("holonomy", "--n", str(n), arg, "--pretty") == (0, holonomy_pretty(doc), "")


def test_holonomy_paper_basis_equals_the_dense_oracle():
    paper_pairs = ((1, 3), (2, 3), (1, 2))
    for expr in ("", "s1", "s2 s1", "s1 s2 s1^-1", "A[1,2] s2"):
        doc = dense_holonomy(braidnil.parse(expr, 3).element(), pair_basis=paper_pairs)
        assert run("holonomy", "--n", "3", expr, "--paper-basis") == (0, holonomy_json(doc), "")
        assert run("holonomy", "--n", "3", expr, "--paper-basis", "--pretty") == (0, holonomy_pretty(doc), "")


def test_paper_basis_off_three_strands_exits_3():
    code, out, err = run("holonomy", "--n", "4", "s1", "--paper-basis")
    assert (code, out, err) == (3, "", "domain error: --paper-basis is only defined for n=3\n")


class _Pieces:
    """A stdout that keeps each written piece."""

    def __init__(self):
        self.pieces: list[str] = []

    def write(self, text: str) -> int:
        self.pieces.append(text)
        return len(text)


@pytest.mark.parametrize("pretty", [False, True], ids=["json", "pretty"])
@pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
def test_a_holonomy_row_is_two_writes_of_at_most_one_template(n, pretty):
    # a row is one slice of its block's template, which runs from one row's nonzero cell to the next row's, and
    # one entry; a writer that encodes cell by cell writes more pieces, and one that builds a block writes longer ones
    g = collect(random_word(random.Random(n), n))
    doc = dense_holonomy(g)
    stdout = _Pieces()
    argv = ["holonomy", "--n", str(n), json.dumps(element_to_dict(g))] + ["--pretty"] * pretty
    assert respond(argv, stdout, io.StringIO()) == 0
    pieces = stdout.pieces
    assert "".join(pieces) == (holonomy_pretty if pretty else holonomy_json)(doc)
    p, t = len(doc["block1"]), len(doc["block2"])
    assert len(pieces) <= 2 * (p + t) + 2 * 2 + 1  # two per row, two per block, and the keys after the blocks
    step, between, widths = (3, "\n", (p + t, p + t)) if pretty else (2, "],[", (p, t))
    gap = max(2 * step * width + len(between) for width in widths)
    heads = ("{\"block1\":[", "],\"block2\":[")
    assert all(len(piece) <= gap for piece in pieces[:-1] if pretty or piece not in heads)


@pytest.mark.parametrize("pretty", [False, True], ids=["json", "pretty"])
def test_holonomy_memory_stays_bounded(pretty):
    # dense n=28 blocks would take over 200 MB; the signed permutations and one row template take well under 1 MB
    argv = ["holonomy", "--n", "28", "s1 s2 s5 S27"] + (["--pretty"] if pretty else [])
    code, hwm_kb = peak_in_child("from braidnil.cli import main\nresult = main(sys.argv[1:])", *argv)
    assert code == 0
    assert hwm_kb < 64 * 1024


def test_verify_suites_exit_zero():
    for args in (("verify", "--suite", "pn3", "--n", "4"),
                 ("verify", "--suite", "bn3", "--n", "4"),
                 ("verify", "--suite", "b3"),
                 ("verify", "--suite", "fulltwist", "--n", "5")):
        code, out, _ = run(*args)
        assert code == 0
        assert all(r["passed"] for r in json.loads(out)["reports"])


def test_verify_failure_exits_one(monkeypatch):
    bad = presentations.RelationReport("pn3", 3, 1, (("fake", identity(3), comm_gen(3, (1, 2, 3))),))
    monkeypatch.setattr(presentations, "pure_presentation", lambda n: bad)
    code, out, _ = run("verify", "--suite", "pn3", "--n", "3")
    assert code == 1
    assert json.loads(out)["reports"][0]["failed"] == 1


@pytest.mark.parametrize("suite", ["pn3", "bn3", "fulltwist"])
def test_verify_without_n_exits_3(suite):
    code, out, err = run("verify", "--suite", suite)
    assert (code, out, err) == (3, "", f"domain error: --n is required for suite {suite}\n")


def test_collect_pretty():
    code, out, err = run("collect", "--n", "3", "--pretty", "s1 A[1,3] a[1,2,3]")
    assert (code, out, err) == (0, "perm=[2, 1, 3] A[1,3]^1 a[1,2,3]^1\n", "")


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("command, arg", [
    pytest.param("collect", '{{"n":{n},"word":[]}}', id="word"),
    pytest.param("order", '{{"n":{n},"perm":[]}}', id="element"),
])
def test_json_on_fewer_than_one_strand_exits_3(n, command, arg):
    code, out, err = run(command, "--n", n, arg.format(n=n))
    assert (code, out, err) == (3, "", "domain error: strand count must be at least 1\n")


@pytest.mark.parametrize("argv, stderr", [
    pytest.param(["collect", "--n", "4", '{"n":3,"word":[[1,1]]}'], "word is on 3 strands, expected 4",
                 id="word-strands"),
    pytest.param(["collect", "--n", "3", '{"n":3}'], "malformed element JSON: 'perm'", id="element-no-perm"),
    # the permutation checks its own strand count before the element compares the counts of its parts
    pytest.param(["collect", "--n", "1", '{"n":1,"perm":[]}'], "strand count must be at least 1",
                 id="element-empty-perm"),
    pytest.param(["collect", "--n", "3", '{"word":[[1,1]]}'], "malformed word JSON: 'n'", id="word-no-n"),
    # a key outside each JSON form's set is named, not ignored
    pytest.param(["collect", "--n", "3", '{"n":3,"perm":[1,2,3],"pur":[[1,2,1]]}'],
                 "unknown key 'pur' in element JSON", id="element-unknown-key"),
    pytest.param(["collect", "--n", "3", '{"n":3,"word":[[1,1]],"comm":[[1,2,3,5]]}'],
                 "unknown key 'comm' in word JSON", id="word-unknown-key"),
    pytest.param(["torsion", "--n", "5", "--residues", '{"n":5,"residues":[[1,1,1,1,1]],"rows":[]}'],
                 "unknown key 'rows' in residue JSON", id="residue-unknown-key"),
    pytest.param(["verify", "--suite", "pn3", "--n", "2"], "pure presentation needs at least 3 strands", id="pn3"),
    pytest.param(["verify", "--suite", "bn3", "--n", "2"], "braid presentation needs at least 3 strands", id="bn3"),
    pytest.param(["verify", "--suite", "fulltwist", "--n", "1"], "full twist needs at least 2 strands",
                 id="fulltwist"),
    pytest.param(["orbits", "--n", "2"], "orbit partition needs at least 3 strands", id="orbits"),
    pytest.param(["verify", "--suite", "b3", "--n", "7"], "--n is not used by suite b3", id="b3-n"),
    pytest.param(["verify", "--suite", "pn3", "--n", "4", "--subgroup", "s3"],
                 "--subgroup is only defined for suite b3", id="pn3-subgroup"),
    # an empty level range would compute no rank, so it would never check --n
    pytest.param(["ranks", "--n", "-5", "--qmax", "0"], "need n >= 2 and qmax >= 1, got n=-5, qmax=0",
                 id="ranks-no-level"),
    pytest.param(["ranks", "--n", "5", "--qmax", "0"], "need n >= 2 and qmax >= 1, got n=5, qmax=0",
                 id="ranks-qmax"),
    pytest.param(["ranks", "--n", "5", "--q", "2", "--qmax", "3"], "--qmax is not used with --q", id="ranks-q-qmax"),
    # a cycle-type part is an ASCII integer, as an option's value is
    pytest.param(["torsion", "--n", "12", "--cycle-type", "٣"],
                 "bad cycle type: invalid literal for int() with base 10: '٣'", id="cycle-type-arabic-indic"),
    pytest.param(["torsion", "--n", "12", "--cycle-type", "5,1_1"],
                 "bad cycle type: invalid literal for int() with base 10: '1_1'", id="cycle-type-underscore"),
])
def test_a_domain_error_prints_its_one_line(argv, stderr):
    code, out, err = run(*argv)
    assert (code, out, err) == (3, "", f"domain error: {stderr}\n")


@pytest.mark.parametrize("argv, option, text", [
    pytest.param(["collect", "--n", "٣", "s1"], "--n", "٣", id="arabic-indic-n"),
    pytest.param(["collect", "--n", "1_0", "s1"], "--n", "1_0", id="underscore-n"),
    pytest.param(["pow", "--n", "3", "s1", "٣"], "exponent", "٣", id="arabic-indic-exponent"),
    pytest.param(["delta", "--n", "7", "--k", "٥"], "--k", "٥", id="arabic-indic-k"),
    pytest.param(["table", "--nmax", "4", "--kmax", "³"], "--kmax", "³", id="superscript-kmax"),
])
def test_an_integer_option_is_an_ascii_integer(argv, option, text):
    # int() alone takes other scripts' digits and underscores; the CLI rejects them in argparse's words for int
    code, out, err = run(*argv)
    assert (code, out) == (2, "") and err.endswith(f": error: argument {option}: invalid int value: '{text}'\n")


@pytest.mark.parametrize("argv, same", [
    pytest.param(["collect", "--n", " 3 ", "s1"], ["collect", "--n", "3", "s1"], id="padded-n"),
    pytest.param(["pow", "--n", "+3", "s1", "-2"], ["pow", "--n", "3", "s1", "-2"], id="signs"),
    pytest.param(["torsion", "--n", "12", "--cycle-type", " 5 , +7"], ["torsion", "--n", "12", "--cycle-type", "5,7"],
                 id="padded-cycle-type"),
])
def test_an_integer_may_keep_its_sign_and_surrounding_whitespace(argv, same):
    assert run(*argv) == run(*same)


@pytest.mark.parametrize("text, value", [("\x1c3", 3), ("3\x1f", 3), ("\x1d-3 ", -3)])
def test_an_integer_option_takes_every_space_that_its_pattern_takes(text, value):
    # the pattern's \s takes the separators '\x1c'..'\x1f', which int() alone rejects
    assert _int_option(text) == value
    for space in (chr(i) for i in range(0x3001) if chr(i).isspace()):
        assert _int_option(space + text + space) == value


def test_parse_error_exit_code():
    code, _, err = run("collect", "--n", "5", "s4^")
    assert code == 2 and "parse error" in err


@pytest.mark.parametrize("expression, stderr", [
    ("A[1,1]", "invalid pair (1, 1) for n=3"),
    ("a[1,1,2]", "invalid triple (1, 1, 2) for n=3"),
])
def test_a_bad_key_is_named_in_one_format_at_both_levels(expression, stderr):
    code, out, err = run("collect", "--n", "3", expression)
    assert (code, out, err) == (3, "", f"domain error: {stderr}\n")


def test_domain_error_exit_code():
    code, _, err = run("collect", "--n", "5", "s9")
    assert code == 3 and "domain error" in err
    code, _, err = run("delta", "--n", "6", "--k", "4")
    assert code == 3
    code, _, err = run("mul", "--n", "4", '{"n":3,"perm":[1,2,3],"pure":[],"comm":[]}', "s1")
    assert code == 3


@pytest.mark.parametrize("argv", [
    pytest.param(["inv", "--n", "3", '{"n":3,"perm":[1,2,3],"pure":[[1,2,1.7]],"comm":[]}'], id="float-exponent"),
    pytest.param(["inv", "--n", "3", '{"n":3,"perm":[1,2,3],"pure":[[1,2,true]],"comm":[]}'], id="bool-exponent"),
    pytest.param(["inv", "--n", "3", '{"n":3,"perm":[1,2,"x"],"pure":[],"comm":[]}'], id="string-in-element"),
    pytest.param(["inv", "--n", "3", '{"n":3,"perm":[1,2,3],"pure":[[1,2]],"comm":[]}'], id="short-row"),
    pytest.param(["collect", "--n", "3", '{"n":3,"word":[[1,1.0]]}'], id="float-in-word"),
    pytest.param(["torsion", "--n", "5", "--residues", '{"n":5,"residues":[["x"]]}'], id="string-in-residues"),
    pytest.param(["torsion", "--n", "5", "--cycle-type", "x"], id="string-in-cycle-type"),
])
def test_non_integer_input_is_a_domain_error(argv):
    code, out, err = run(*argv)
    assert code == 3 and out == "" and "domain error" in err


def test_deep_nesting_is_a_parse_error():
    code, out, err = run("collect", "--n", "3", "(" * 3000 + "s1" + ")" * 3000)
    assert code == 2 and out == "" and "parse error" in err and "Traceback" not in err
    code, out, err = run("collect", "--n", "3", "(" * (_MAX_NESTING + 1) + "s1" + ")" * (_MAX_NESTING + 1))
    assert code == 2 and "nested deeper" in err


@pytest.mark.parametrize("depth", [1000, 100000])
@pytest.mark.parametrize("argv, wrap, what", [
    pytest.param(["collect", "--n", "3"], '{{"a":{}}}', "element", id="element"),
    pytest.param(["torsion", "--n", "5", "--residues"], '{{"residues":{}}}', "residue", id="residues"),
])
def test_deeply_nested_json_is_a_domain_error(depth, argv, wrap, what):
    code, out, err = run(*argv, wrap.format("[" * depth + "]" * depth))
    assert code == 3 and out == "" and err.startswith("domain error: ") and "Traceback" not in err
    if depth > 1000:  # past every interpreter's recursion limit, so the decoder itself gives up
        assert err.startswith(f"domain error: bad {what} JSON: ")


def test_nesting_at_the_cap_still_parses():
    expected = run("collect", "--n", "3", "s1")
    assert run("collect", "--n", "3", "(" * _MAX_NESTING + "s1" + ")" * _MAX_NESTING) == expected


@pytest.mark.parametrize("text", ["s²", "s1^²", "s٣"])
def test_non_ascii_digits_are_parse_errors(text):
    code, out, err = run("collect", "--n", "4", text)
    assert code == 2 and out == "" and "parse error" in err


@pytest.mark.parametrize("text, offset", [("s1\u3000s2 ü", 8), ("s1 \udcff", 3), ("(s1\u3000", 6)])
def test_parse_errors_give_utf8_byte_offsets(text, offset):
    # U+DCFF is how Python decodes the undecodable command-line byte 0xff
    code, out, err = run("collect", "--n", "3", text)
    assert code == 2 and out == "" and f"(at byte {offset})" in err


def lifted_digit_limit(fn):
    """fn() with CPython's 4300-digit str<->int conversion limit lifted, then restored."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn()
    finally:
        sys.set_int_max_str_digits(limit)


BIG = "7" * 5000  # past the 4300-digit limit
NINES = "9" * 2200  # a small enough exponent whose answer has a level-2 coefficient of 4401 digits


@pytest.mark.parametrize("argv, expected", [
    pytest.param(["collect", "--n", "3", f"s1^{BIG}"],
                 lambda: element_to_dict(power(sigma(3, 1), int(BIG))), id="expression-exponent"),
    pytest.param(["inv", "--n", "3", '{"n":3,"perm":[1,2,3],"pure":[[1,2,%s]],"comm":[]}' % BIG],
                 lambda: element_to_dict(inv(element_from_dict({"n": 3, "perm": [1, 2, 3],
                                                                "pure": [[1, 2, int(BIG)]]}))),
                 id="element-json"),
    pytest.param(["torsion", "--n", "5", "--residues", '{"n":5,"residues":[[%s,0,0,0,0],[0,0,0,0,0]]}' % BIG],
                 lambda: {"n": 5, "order": "infinite",
                          "element": element_to_dict(finite_order_element(5, [[int(BIG), 0, 0, 0, 0], [0] * 5]))},
                 id="residues-json"),
    pytest.param(["collect", "--n", "3", f"(A[1,2] A[2,3])^{NINES}"],
                 lambda: element_to_dict(power(mul(pure_gen(3, 1, 2), pure_gen(3, 2, 3)), int(NINES))),
                 id="printed-answer"),
])
def test_integers_past_the_digit_limit(argv, expected):
    limit = sys.get_int_max_str_digits()
    assert limit != 0
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit  # respond puts the caller's limit back
    assert lifted_digit_limit(lambda: json.loads(out) == expected())


# text from the grammar, and the same cut up and mixed with the expression alphabet, the digits
# str.isdigit() accepts but int() does not read as ASCII, and digit runs up to and past the 4300-digit
# str<->int limit (with small values, so evaluation stays cheap); indices 0 and 9 are out of range
_INDEX = st.sampled_from([1, 2, 3, 1, 2, 3, 4, 5, 0, 9])
_TERM = st.builds("{}{}".format, st.one_of(
    st.builds("{}{}".format, st.sampled_from("sS"), _INDEX),
    st.builds("A[{},{}]".format, _INDEX, _INDEX),
    st.builds("a[{},{},{}]".format, _INDEX, _INDEX, _INDEX),
), st.one_of(st.just(""), st.integers(-300, 300).map("^{}".format)))
_WELL_FORMED = st.recursive(_TERM, lambda inner: st.one_of(
    st.lists(inner, min_size=2, max_size=4).map(" ".join),
    st.builds("({})^{}".format, st.lists(inner, max_size=4).map(" ".join), st.integers(-9, 9)),
), max_leaves=12)
_DIGITS = st.one_of(
    st.sampled_from(["²", "٣", "1²", *"0123456789"]),
    st.text("0123456789", min_size=10, max_size=40),
    st.integers(4290, 4310).map(lambda k: "0" * k + "1"),
)
_JUNK = st.one_of(
    st.sampled_from(["s", "S", "A[", "a[", "]", ",", "(", ")", "^", "-", "+", " "]),
    _DIGITS,
    st.builds("{}{}".format, st.sampled_from(["s", "S", "^", "^-", "A[", "a[", ","]), _DIGITS),
)
_EXPRESSION_TEXT = st.one_of(_WELL_FORMED, st.lists(st.one_of(_WELL_FORMED, _JUNK), max_size=12).map("".join))


@settings(max_examples=120, deadline=None)
@given(command=st.sampled_from(["collect", "order"]), n=st.integers(1, 7), text=_EXPRESSION_TEXT)
def test_cli_fuzz_exits_with_an_answer_or_a_diagnostic(command, n, text):
    # argparse rejects an expression that reads as an option, e.g. "-s1", with exit 2
    code, out, err = run(command, "--n", str(n), text)
    assert code in (0, 2, 3)
    assert code == 0 or out == ""
    assert "Traceback" not in err


# one valid request per subcommand, after its name: each one runs to exit 0
_VALID = {
    "collect": ["--n", "5", "s1"], "mul": ["--n", "3", "s1", "s2"], "inv": ["--n", "3", "s1"],
    "pow": ["--n", "3", "s1", "3"], "conj": ["--n", "3", "s1", "s2"], "order": ["--n", "3", "s1"],
    "delta": ["--n", "5", "--k", "3"], "delta-pow": ["--n", "5"], "orbits": ["--n", "5"], "ranks": ["--n", "4"],
    "table": ["--nmax", "4", "--kmax", "3"], "torsion": ["--n", "5", "--spectrum"],
    "conjugacy": ["decide", "--n", "5", "a[1,2,4] (s4 s3 s2^-1 s1^-1)", "s1 a[1,2,4] (s4 s3 s2^-1 s1^-1) s1^-1"],
    "holonomy": ["--n", "3", "s1"], "verify": ["--suite", "b3"],
}


def parse_outcome(parser, argv):
    """The parsed namespace or exit code of parser.parse_args(argv), with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_every_subcommand_has_a_valid_request():
    assert list(_VALID) == list(_COMMANDS)


@pytest.mark.parametrize("name", list(_VALID))
def test_one_subcommand_parser_matches_the_full_parser(name):
    # compared in one interpreter, since argparse's wording changes between Python versions
    valid = [name, *_VALID[name]]
    n_flag = "--nmax" if name == "table" else "--n"
    argvs = [valid, [name, "--help"], valid + ["extra"], [name], [name, n_flag, "x"]]
    if name == "torsion":
        argvs.append(["torsion", "--n", "5", "--spectrum", "--cycle-type", "5"])
    for argv in argvs:
        outcome = parse_outcome(build_parser(), argv)
        assert parse_outcome(build_parser(name), argv) == outcome, argv
        if isinstance(outcome[0], int):  # --help or a usage error: respond returns argparse's exit code and text
            assert run(*argv) == outcome, argv


@pytest.mark.parametrize("name", list(_VALID))
def test_each_subcommand_runs_from_its_table_entry(name):
    code, out, err = run(name, *_VALID[name])
    assert (code, err) == (0, "")
    assert out.count("\n") == 1 and out == dumps_canonical(json.loads(out)) + "\n"


@pytest.mark.parametrize("name, command", [
    ("mul", "mul"), ("inv", "inv"), ("power", "pow"), ("conj", "conj"), ("order", "order"),
])
def test_a_run_calls_the_engine_through_the_cli_namespace(monkeypatch, name, command):
    # the call trace replaces engine functions in every module that binds them; a run must look its one up when called
    calls = counted(monkeypatch, braidnil.cli, name)
    assert run(command, *_VALID[command])[0] == 0
    assert calls[0] == 1


def test_main_builds_only_the_subparser_it_runs(monkeypatch):
    # each parser is built on first use and then kept for the process
    braidnil.cli._parser.cache_clear()
    calls = counted(monkeypatch, argparse._SubParsersAction, "add_parser")
    assert run("collect", "--n", "5", "s1")[0] == 0
    assert calls[0] == 1
    assert run("collect", "--n", "5", "s2")[0] == 0
    assert calls[0] == 1
    # an unknown name gets the full parser, with argparse's own name for the subcommand argument
    code, out, err = run("bogus")
    assert (code, out) == (2, "")
    assert calls[0] == 1 + len(_VALID)
    assert "error: argument command: invalid choice: 'bogus'" in err
    assert run("bogus") == (code, out, err)
    assert calls[0] == 1 + len(_VALID)


def interleaved_requests() -> list[list[str]]:
    """Each subcommand's valid request, its --help, an extra argument, the bare name and a non-integer strand
    option, then requests that get the full parser."""
    argvs = []
    for name, rest in _VALID.items():
        n_flag = "--nmax" if name == "table" else "--n"
        argvs += [[name, *rest], [name, "--help"], [name, *rest, "extra"], [name], [name, n_flag, "x"]]
    return argvs + [["bogus"], ["--help"], []]


def test_a_kept_parser_answers_as_a_fresh_one_in_any_order(monkeypatch):
    # a parse may leave no state on the parser that the next request gets; help and usage are wrapped to the width
    # when they are printed, not when the parser was built
    argvs = interleaved_requests()
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(braidnil.cli, "_parser", build_parser)
    fresh = {tuple(argv): run(*argv) for argv in argvs}
    monkeypatch.undo()
    braidnil.cli._parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "12")
    for argv in argvs:
        run(*argv)
    monkeypatch.setenv("COLUMNS", "80")
    for seed in range(3):
        random.Random(seed).shuffle(argvs)
        for argv in argvs:
            assert run(*argv) == fresh[tuple(argv)], argv


def test_main_writes_through_the_streams_it_finds_when_called(monkeypatch):
    # a caller that swaps sys.stdout and sys.stderr around main, as a benchmark or a tracer does, gets it all
    for argv in (["collect", "--n", "5", "s1"], ["collect", "--n", "5", "s9"], ["bogus"], ["collect", "--help"]):
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        code = main(argv)
        monkeypatch.undo()
        assert (code, out.getvalue(), err.getvalue()) == run(*argv), argv


def test_only_main_names_the_process_streams():
    # every other function writes through the out and err that respond hands it, so a caller's buffers get it all
    tree = ast.parse(Path(braidnil.cli.__file__).read_text(encoding="utf-8"))
    main_def = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main_def)}
    found = [
        node.lineno for node in ast.walk(tree) if id(node) not in in_main and (
            isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
            and isinstance(node.value, ast.Name) and node.value.id == "sys"
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print")
    ]
    assert found == []


def test_running_out_of_memory_in_a_run_exits_3_with_one_line(monkeypatch):
    # the in-process form of the capped child below: the handler's line, and the caller's digit limit put back
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(torsion, "delta_power_coefficients", exhausted)
    limit = sys.get_int_max_str_digits()
    assert run("delta-pow", "--n", "5") == (3, "", "resource error: out of memory\n")
    assert sys.get_int_max_str_digits() == limit


def test_running_out_of_memory_exits_3():
    # delta-pow at n=151 peaks near 137 MB of address space, more than twice the cap; the interpreter starts
    # in about 20 MB
    resource = pytest.importorskip("resource")
    cap = 60 * 1024 * 1024
    env = dict(os.environ, PYTHONPATH=str(Path(braidnil.__file__).parents[1]))

    def capped(n, *flags):
        return subprocess.run([sys.executable, *flags, "-m", "braidnil.cli", "delta-pow", "--n", str(n)],
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
                              capture_output=True, text=True, env=env, timeout=120)

    assert capped(5).returncode == 0  # the cap leaves room for a small request
    # -X dev runs the debug allocator, which leaves less room for writing the line
    for flags in ((), ("-X", "dev")):
        proc = capped(151, *flags)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "resource error: out of memory\n")


@pytest.mark.parametrize("argv, keep", [
    pytest.param(["holonomy", "--n", "28", "s1"], 10, id="while-writing"),
    pytest.param(["holonomy", "--n", "28", "s1"], 1, id="after-one-byte"),
    pytest.param(["holonomy", "--n", "28", "s1", "--pretty"], 1, id="pretty-after-one-byte"),
    pytest.param(["collect", "--n", "5", "s1"], 0, id="at-the-last-flush"),
])
def test_a_closed_stdout_exits_3_with_one_line(argv, keep):
    # the reader takes `keep` bytes and closes the pipe, one byte as `head -c 1` does; the 21 MB holonomy document,
    # in either form, fails while it is written, and the collect one sits in stdout's buffer until main flushes it
    env = dict(os.environ, PYTHONPATH=str(Path(braidnil.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    reader = os.fdopen(read, "rb")
    if not keep:  # closed before the child starts, so no write of the child can reach it
        reader.close()
    proc = subprocess.Popen([sys.executable, "-X", "dev", "-W", "error", "-m", "braidnil.cli", *argv],
                            stdout=write, stderr=subprocess.PIPE, env=env)
    os.close(write)
    if keep:
        reader.read(keep)
        reader.close()
    with proc:
        err = proc.stderr.read()
    assert (proc.returncode, err) == (3, b"resource error: stdout closed\n")


_FULL = "/dev/full"  # a device whose every write fails with ENOSPC
_NO_SPACE = b"resource error: cannot write stdout: No space left on device\n"


def child_with_streams(argv, stdout, stderr, unbuffered=False):
    """`python -X dev -W error -m braidnil.cli argv` with each of stdout and stderr "pipe", "full" (on _FULL) or
    "closed", as the shell's `>&-` leaves it; the exit code, stdout and stderr, a stream that is not a pipe read as b"".
    """
    full = "full" in (stdout, stderr)
    if full and not os.path.exists(_FULL):
        pytest.skip(f"no {_FULL}")
    env = dict(os.environ, PYTHONPATH=str(Path(braidnil.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    closed = [fd for fd, how in ((1, stdout), (2, stderr)) if how == "closed"]
    with open(_FULL if full else os.devnull, "wb") as sink:  # a closed stream is opened on the sink, then closed
        streams = [subprocess.PIPE if how == "pipe" else sink for how in (stdout, stderr)]
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "braidnil.cli", *argv],
                              stdout=streams[0], stderr=streams[1], env=env, timeout=120,
                              preexec_fn=(lambda: [os.close(fd) for fd in closed]) if closed else None)
    return proc.returncode, proc.stdout or b"", proc.stderr or b""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    pytest.param(["collect", "--n", "3", "s1"], id="collect"),  # buffered, it fails at main's flush
    pytest.param(["holonomy", "--n", "12", "s1"], id="holonomy"),  # a 109 kB document fails while it is written
])
def test_a_full_stdout_exits_3_with_one_line(argv, unbuffered):
    assert child_with_streams(argv, "full", "pipe", unbuffered) == (3, b"", _NO_SPACE)


def test_help_on_a_full_stdout_exits_3_with_one_line():
    # argparse drops its own write error; the text it leaves in stdout's buffer fails at main's flush
    assert child_with_streams(["collect", "--help"], "full", "pipe") == (3, b"", _NO_SPACE)


@pytest.mark.parametrize("argv", [["collect", "--n", "3", "s1"], ["collect", "--help"]], ids=["collect", "help"])
def test_a_stdout_closed_at_start_exits_3_with_one_line(argv):
    assert child_with_streams(argv, "closed", "pipe") == (3, b"", b"resource error: stdout closed\n")


@pytest.mark.parametrize("stderr", ["full", "closed"])
@pytest.mark.parametrize("argv, code", [
    pytest.param(["collect", "--n", "3", "s1 )"], 2, id="parse-error"),
    pytest.param(["collect", "--n", "3", "s9"], 3, id="domain-error"),
    pytest.param(["bogus"], 2, id="usage-error"),
])
def test_a_stderr_that_cannot_be_written_keeps_the_exit_code(argv, code, stderr):
    assert child_with_streams(argv, "pipe", stderr)[0] == code


def test_a_full_stdout_and_a_closed_stderr_exit_3():
    assert child_with_streams(["collect", "--n", "3", "s1"], "full", "closed") == (3, b"", b"")


def test_main_reports_a_stream_it_cannot_write_in_process(monkeypatch):
    # the child cases above on this process's streams: a stdout of None, and a stdout or stderr on _FULL, whose
    # descriptor main points at devnull once it has failed
    if not os.path.exists(_FULL):
        pytest.skip(f"no {_FULL}")
    err = io.StringIO()
    monkeypatch.setattr(sys, "stderr", err)
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["collect", "--n", "3", "s1"]) == 3
    with open(_FULL, "w", encoding="utf-8") as full:
        monkeypatch.setattr(sys, "stdout", full)
        assert main(["collect", "--help"]) == 3
        full.flush()  # the descriptor is devnull's now: what the failed flush left in the buffer goes there
    assert err.getvalue() == "resource error: stdout closed\n" + _NO_SPACE.decode()
    with open(_FULL, "w", encoding="utf-8") as full:
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys, "stderr", full)
        assert main(["collect", "--n", "3", "s9"]) == 3
        full.flush()  # likewise for stderr
