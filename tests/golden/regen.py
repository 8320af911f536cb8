"""Regenerate or replay the golden CLI corpus, cli.jsonl next to this script, and check the CLI identities.

The first line of the corpus is a header naming the commit it was generated
at.  Each further line is one request: its argv after `braidnil`, its exit
code, the sha256 of its stdout bytes and its stderr text.  The requests are
the README's command lines, each subcommand's valid request from
tests/test_cli.py (with its --pretty form where there is one), one request
per distinct diagnostic, the north star's largest sizes, integer options
that are not ASCII integers, expressions that mix every kind of atom,
element JSON that is not canonical next to its canonical form, runs of
generator letters broken by an exponent, a bad index or a stray integer,
holonomy's empty and --pretty blocks, a long word that writes its inverse
letters with a caret, the malformed exponents of one letter, and s/S words
at n = 8 and 12 longer than n*C(n,2) letters, which the fold sums per pair.
IDENTITIES are group laws, each two chains of requests whose last stdout
bytes must be equal; tests/test_golden.py replays them and the corpus.  A
replay in this process is one call of braidnil.cli.respond with buffers of
its own, stdout a UTF-8 text wrapper over bytes.
Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py             # write every record; the header names HEAD
    PYTHONPATH=src python tests/golden/regen.py --changed   # rewrite only the records whose outcome changed
    PYTHONPATH=src python tests/golden/regen.py --cold      # replay a sample and the identities in fresh interpreters

A full write keeps the requests already in the file in their places, since
the replay test names a record by its index, appends the new ones and drops
those no longer listed.  --changed keeps the header and the file's requests,
and prints each request it rewrites; a change that alters an output lists
those in CHANGES.md.
--cold runs every diagnostic record, every request at the largest sizes and
every tenth other record, then both sides of every identity, each request
through `python -X dev -W error -m braidnil.cli`, and exits 1 if any record
differs or any identity fails.  If the library raises while it builds the
largest sizes' inputs, that is one `differs: _largest(): ...` line, and the
replay goes on with those requests sampled as the others; an identity whose
step fails is one line naming the step.  Both replays fix COLUMNS at 80, the
width argparse wraps its usage lines to.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

from braidnil.cli import respond
from braidnil.core import dumps_canonical

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.jsonl"
ROOT = HERE.parent.parent


def replay(argv: list[str]) -> tuple[int, bytes, str]:
    """respond(argv) in this process: its exit code, its stdout bytes and its stderr text."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", newline="\n")
    code = respond(list(argv), stdout, err)
    stdout.flush()
    return code, out.getvalue(), err.getvalue()


def cold(argv: list[str]) -> tuple[int, bytes, str]:
    """The same outcome from a fresh `python -X dev -W error -m braidnil.cli` process."""
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "braidnil.cli", *argv],
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def hashed(outcome: tuple[int, bytes, str]) -> tuple[int, str, str]:
    """An outcome with its stdout bytes replaced by their sha256, as a record holds it."""
    code, out, err = outcome
    return code, hashlib.sha256(out).hexdigest(), err


def read_corpus() -> tuple[dict, list[dict]]:
    """The header and the records of the corpus."""
    header, *records = map(json.loads, CORPUS.read_text(encoding="utf-8").splitlines())
    return header, records


def recorded(record: dict) -> tuple[int, str, str]:
    """The outcome a record holds, in the order that hashed gives it."""
    return record["exit"], record["stdout_sha256"], record["stderr"]


def is_diagnostic(record: dict) -> bool:
    return record["exit"] != 0 or record["stderr"] != ""


def cold_sample(records: list[dict]) -> tuple[list[dict], list[str]]:
    """Every diagnostic record, every request at the north star's largest sizes, and every tenth of the others;
    and the failure to build those sizes, if the library raises there, with them then sampled as the others."""
    try:
        largest, failed = _largest(), []
    except Exception as exc:  # a library defect is one failed record: the replay still lists every other one
        largest, failed = [], [f"_largest(): {type(exc).__name__}: {exc}"]
    others = [r for r in records if not is_diagnostic(r) and r["argv"] not in largest]
    return [r for r in records if is_diagnostic(r) or r["argv"] in largest] + others[::10], failed


def _record(argv: list[str]) -> dict:
    code, digest, stderr = hashed(replay(argv))
    return {"argv": argv, "exit": code, "stdout_sha256": digest, "stderr": stderr}


def _readme_lines() -> list[list[str]]:
    """The README's command lines, as tests/test_readme.py reads them."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\w*\n(.*?)```", readme[readme.index("## Command line"):], re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


def _valid_requests() -> list[list[str]]:
    """Each subcommand's valid request from tests/test_cli.py, then its --pretty form where it has one."""
    sys.path.insert(0, str(HERE.parent))
    from test_cli import _VALID
    from braidnil.cli import _COMMANDS
    out = []
    for name, argv in _VALID.items():
        out.append([name, *argv])
        if any(argument[0] == "--pretty" for argument in _COMMANDS[name][1] if isinstance(argument, tuple)):
            out.append([name, *argv, "--pretty"])
    return out


ORDER_FIVE = "a[1,2,4] (s4 s3 s2^-1 s1^-1)"

# one request per distinct diagnostic line
DIAGNOSTICS = [
    # parse errors, exit 2
    ["collect", "--n", "5", "s4^"],
    ["collect", "--n", "3", "s1 )"],
    ["collect", "--n", "3", "A(1,2)"],
    ["collect", "--n", "3", "A[1,2"],
    ["collect", "--n", "3", "(s1"],
    ["collect", "--n", "3", "s1 q2"],
    ["collect", "--n", "4", "s1\u3000s2 \u00fc"],
    ["collect", "--n", "4", "s²"],
    ["collect", "--n", "3", "(" * 501 + "s1" + ")" * 501],
    # domain errors, exit 3: expressions
    ["collect", "--n", "3", "s5"],
    ["collect", "--n", "0", "s1"],
    ["collect", "--n", "0", ""],
    ["collect", "--n", "-1", ""],
    ["collect", "--n", "3", "A[1,1]"],
    ["collect", "--n", "3", "a[1,1,2]"],
    ["collect", "--n", "3", "A[1,7]"],
    # element, word and residue JSON
    ["collect", "--n", "3", '{"n":3'],
    ["collect", "--n", "4", '{"n":3,"word":[[1,1]]}'],
    ["collect", "--n", "4", '{"n":3,"perm":[1,2,3]}'],
    ["collect", "--n", "0", '{"n":0,"word":[]}'],
    ["order", "--n", "-1", '{"n":-1,"perm":[]}'],
    ["collect", "--n", "3", '{"n":3}'],
    ["collect", "--n", "3", '{"word":[[1,1]]}'],
    ["collect", "--n", "3", '{"n":3,"perm":[1,2,3],"pur":[[1,2,1]]}'],
    ["collect", "--n", "3", '{"n":3,"word":[[1,1]],"comm":[[1,2,3,5]]}'],
    ["collect", "--n", "3", '{"n":3,"perm":[1,1,3]}'],
    ["collect", "--n", "3", '{"n":3,"perm":[1,2]}'],
    ["collect", "--n", "3", '{"n":3,"word":[[5,1]]}'],
    ["collect", "--n", "3", '{"n":3,"word":[[1,2]]}'],
    ["collect", "--n", "3", '{"n":3,"word":[[1]]}'],
    ["collect", "--n", "3", '{"n":3,"word":[[1,1.0]]}'],
    ["inv", "--n", "3", '{"n":3,"perm":[1,2,3],"pure":[[1,2,1.7]],"comm":[]}'],
    ["inv", "--n", "3", '{"n":3,"perm":[1,2,3],"pure":[[1,2]],"comm":[]}'],
    ["inv", "--n", "3", '{"n":3,"perm":[1,2,3],"pure":[[1,4,1]],"comm":[]}'],
    ["inv", "--n", "3", '{"n":3,"perm":[1,2,3],"pure":[[1,2,true]],"comm":[]}'],
    ["inv", "--n", "3", '{"n":3,"perm":[1,2,3],"pure":[[1.0,2,1]],"comm":[]}'],
    ["inv", "--n", "3", '{"n":3,"perm":[1,2,3],"pure":[],"comm":[[1,2,3]]}'],
    ["inv", "--n", "3", '{"n":3,"perm":[1,2,3],"pure":[[0,2,1]],"comm":[]}'],
    ["inv", "--n", "3", '{"n":3,"perm":[1,2,3],"pure":7,"comm":[]}'],
    ["mul", "--n", "4", '{"n":3,"perm":[1,2,3],"pure":[],"comm":[]}', "s1"],
    ["torsion", "--n", "5", "--residues", '{"n":5,"residues":[[1,1,1,1,1]],"rows":[]}'],
    ["torsion", "--n", "5", "--residues", '{"n":5,"residues":[["x"]]}'],
    ["torsion", "--n", "5", "--residues", '{"n":5}'],
    ["torsion", "--n", "5", "--residues", '{"n":7,"residues":[]}'],
    ["torsion", "--n", "5", "--residues", "[1"],
    ["torsion", "--n", "5", "--residues", '{"n":5,"residues":[[1]]}'],
    ["torsion", "--n", "6", "--residues", '{"residues":[]}'],
    # options of each subcommand
    ["torsion", "--n", "5", "--cycle-type", "x"],
    ["torsion", "--n", "12", "--cycle-type", "3"],
    ["torsion", "--n", "10", "--cycle-type", "5,7"],
    ["torsion", "--n", "0", "--cycle-type", ","],
    ["torsion", "--n", "201", "--spectrum"],
    ["torsion", "--n", "0", "--spectrum"],
    ["ranks", "--n", "5", "--q", "2", "--qmax", "3"],
    ["ranks", "--n", "-5", "--qmax", "0"],
    ["ranks", "--n", "1", "--q", "1"],
    ["ranks", "--n", "1", "--qmax", "0"],
    ["table", "--nmax", "2", "--kmax", "2"],
    ["delta", "--n", "6", "--k", "4"],
    ["delta", "--n", "3", "--k", "5"],
    ["delta-pow", "--n", "6"],
    ["delta-pow", "--n", "1"],
    ["delta-pow", "--n", "-1"],
    ["delta-pow", "--n", "-3"],
    ["delta-pow", "--n", "0"],
    ["delta-pow", "--n", "2"],
    ["orbits", "--n", "2"],
    ["orbits", "--n", "0"],
    ["verify", "--suite", "pn3", "--n", "2"],
    ["verify", "--suite", "bn3", "--n", "2"],
    ["verify", "--suite", "fulltwist", "--n", "1"],
    ["verify", "--suite", "pn3", "--n", "-3"],
    ["verify", "--suite", "b3", "--n", "7"],
    ["verify", "--suite", "pn3", "--n", "4", "--subgroup", "s3"],
    ["verify", "--suite", "bn3"],
    ["holonomy", "--n", "4", "s1", "--paper-basis"],
    ["conjugacy", "decide", "--n", "3", "s1", "s2"],
    ["conjugacy", "decide", "--n", "3", "", ""],
    ["conjugacy", "witness", "--n", "5", ORDER_FIVE, "A[1,2] " + ORDER_FIVE],
    ["conjugacy", "witness", "--n", "5", "", ORDER_FIVE],
    ["conjugacy", "decide", "--n", "5", "s1", "s2"],
]

# integer options that are not an optional sign and ASCII digits, and spaces around one that int() alone rejects
NON_ASCII_INTEGERS = [
    ["collect", "--n", "٣", "s1"],
    ["collect", "--n", "1_0", "s1"],
    ["pow", "--n", "3", "s1", "٣"],
    ["delta", "--n", "7", "--k", "٥"],
    ["torsion", "--n", "12", "--cycle-type", "٣"],
    ["torsion", "--n", "12", "--cycle-type", "5,1_1"],
    ["collect", "--n", " 3 ", "s1"],
    ["torsion", "--n", "12", "--cycle-type", " 5 , +7"],
    ["collect", "--n", "\x1c3", "s1"],
]

# expressions that mix generator runs, coordinate atoms, generator powers past the run limit and nested groups
MIXED_EXPRESSIONS = [
    ["collect", "--n", "6",
     "s1 s2^3 A[1,4] S3 s5^-2 a[2,3,6]^-4 s2^70 s4 (s1 (A[2,5]^2 s3^-1)^3 S5)^-2 s4^-65 a[1,5,6] s5"],
    ["holonomy", "--n", "6",
     "S2 s4 s3^2 a[1,3,5] s1^66 A[2,6]^-3 (s5 s1 (a[2,4,6] s3)^2 S2)^3 s5 s2 S1^-70 A[1,3]"],
]


# element JSON that is not canonical (rows out of order, a pair and a triple key reversed, a duplicated key, zero
# exponents) reads as its canonical form, next to it
ELEMENT_JSON = [
    ["mul", "--n", "4", '{"n":4,"perm":[2,1,3,4],"pure":[[4,3,-1],[1,2,1],[3,4,-1],[1,3,0]],'
                        '"comm":[[4,3,2,1],[1,2,3,1],[1,2,4,0]]}', "s1 s3"],
    ["mul", "--n", "4", '{"n":4,"perm":[2,1,3,4],"pure":[[1,2,1],[3,4,-2]],"comm":[[1,2,3,1],[2,3,4,-1]]}', "s1 s3"],
]


# runs of generator letters that a letter with an exponent, whitespace before '^', an index out of range in the
# middle or an integer after the run ends
GENERATOR_RUNS = [
    ["collect", "--n", "13", "s1 s12^3 s12"],
    ["collect", "--n", "4", "s1 s2 s3 ^2 S1"],
    ["collect", "--n", "4", "s1 s2 s9 s0"],
    ["collect", "--n", "4", "s1 s2 2"],
]

# holonomy's edge blocks, both empty at n = 1 and an empty triple block at n = 2, and --pretty past n = 3: a
# 60-letter word at n = 20 writes 1330 rows of 1330 cells
HOLONOMY_FORMS = [
    ["holonomy", "--n", "1", ""],
    ["holonomy", "--n", "2", "s1", "--pretty"],
    ["holonomy", "--n", "20", "s9 s11 s1 S14 s4 s11 S19 S14 s7 S11 S14 s17 S13 s7 s2 s4 s7 S10 S9 s4 s9 s8 s2 s10 S5 S15 s9"
     " S6 s13 s5 S12 s4 s17 s14 s6 s4 S1 S13 S17 s6 s15 S1 s19 s3 S9 s10 s1 s8 s6 s17 s10 s14 S4 S4 s8 s8 s10 s18 S5"
     " s15", "--pretty"],
]

# a word written as the paper writes sigma_i^-1, 12000 letters at n = 32 (one argument holds at most 128 KiB),
# and a letter's malformed exponents: none, a lone sign, a second '^' and one that is not an integer
_caret = random.Random(5)
CARET_LETTERS = [
    ["collect", "--n", "32", " ".join(f"s{_caret.randint(1, 31)}{_caret.choice(('', '^-1'))}" for _ in range(12000))],
    ["collect", "--n", "5", "s3^"],
    ["collect", "--n", "5", "s3^-"],
    ["collect", "--n", "5", "s3^2^3"],
    ["collect", "--n", "5", "s3 ^ x"],
]


def _long_word(seed: int, n: int, length: int) -> list[str]:
    """A seeded word of s<k> and S<k> letters, as its list of letters."""
    rng = random.Random(seed)
    return [rng.choice("sS") + str(rng.randint(1, n - 1)) for _ in range(length)]


# words longer than the fold's bound n*C(n,2), 224 letters at n = 8 and 792 at n = 12, past which it places each
# level-2 correction once per (crossing pair, strand)
LONG_WORDS = [
    ["collect", "--n", "8", " ".join(_long_word(8, 8, 3000))],
    ["collect", "--n", "12", " ".join(_long_word(12, 12, 4000))],
]


def _largest() -> list[list[str]]:
    """The north star's largest sizes: holonomy at 28, pn3 and bn3 at 9, a witness and a cycle type at 23, pow and
    order at 32, and the benchmark's fulltwist at 16."""
    from braidnil import BraidWord, collect, conj, element_to_dict, element_with_cycle_type
    from braidnil.torsion import delta_word
    rng = random.Random(1)
    a = element_with_cycle_type(23, [23])
    w = collect(BraidWord(23, tuple((rng.randint(1, 22), rng.choice((1, -1))) for _ in range(60))))
    witness = [dumps_canonical(element_to_dict(x)) for x in (a, conj(w, a))]
    word = " ".join(f"s{rng.randint(1, 31)}^{rng.choice((1, -1))}" for _ in range(200))
    delta31 = " ".join(f"s{k}^{eps}" for k, eps in delta_word(0, 31, 31).letters)
    return [
        ["holonomy", "--n", "28", "s1 s27^-1 (s2 s5 s9 s14 s20)^3 A[1,28] a[2,9,27]"],
        ["verify", "--suite", "pn3", "--n", "9"],
        ["verify", "--suite", "bn3", "--n", "9"],
        ["conjugacy", "witness", "--n", "23", *witness],
        ["conjugacy", "decide", "--n", "23", *witness],
        ["torsion", "--n", "23", "--cycle-type", "1,5,1,7,1,7"],
        ["pow", "--n", "32", word, "1000000"],
        ["order", "--n", "32", word],
        ["order", "--n", "32", delta31],
        ["pow", "--n", "32", delta31, "-31"],
        ["verify", "--suite", "fulltwist", "--n", "16"],
    ]


# the benchmark's fold audit: a 2000-letter word of both signs at n = 32
_rng = random.Random(1)
_LONG = [_rng.choice("sS") + str(_rng.randint(1, 31)) for _ in range(2000)]
# a word past the bound at n = 8 whose halves are within it
_LONG8 = _long_word(400, 8, 400)

# (name, left, right): two chains of requests whose final stdout bytes must be equal, every step exiting 0 with an
# empty stderr.  An argv item is a string, an int i for step i's stdout on the same side without its newline, or
# (i, key) for one field of that stdout's JSON, re-encoded canonically.
_G12 = "(s1 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11)^4 (s2 s4^-1 s6 s8^-1 s10)^3 A[1,12]^2 a[3,7,11]"
_X12 = "(s11 s9^-1 s7 s5^-1 s3 s1^-1)^3 (s1 s2 s3 s4 s5 s6)^5 A[2,9]"
_X16 = "(s1 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 s12 s13 s14)^3 (s2 s4^-1 s6 s8^-1 s10 s12^-1)^5 A[1,16]^2 a[3,7,11]"
_D16 = "(s1 s3 S5 s7 s9 S11 s13 s15 s2 S4 s6 s8 S10 s12 s14)^9 (s15 s13 S11 s9 s7 S5 s3 s1)^11 A[1,16]^2 a[3,7,11]"
_A32 = ("(s1 s3 S5 s7 s9 S11 s13 s15 s17 S19 s21 s23 S25 s27 s29 S31 s2 S4 s6 s8 S10 s12 s14 S16 s18 s20 S22 s24 s26"
        " S28 s30)^7 (s31 s29 S27 s25 s23 S21 s19 s17 S15 s13 s11 S9 s7 s5 S3 s1)^9 A[1,32]^2 a[3,17,29]")
_B32 = ("(s2 s5 S8 s11 s14 S17 s20 s23 S26 s29 s1 S4 s7 s10 S13 s16 s19 S22 s25 s28 S31)^8 (s30 S24 s18 s12 S6 s3 s9"
        " S15 s21 s27 s4 S10 s16 s22 S28)^11 (s31 S30 s29 s28 S27 s26 s25 S24 s23 s22 S21 s20 s19 S18 s17 s16)^5"
        " A[2,31]^-3 a[1,16,32]^2")
IDENTITIES = [
    # conj runs g x g^-1 in one pass: two products and an inverse, passed on as element JSON
    ("conj", [["conj", "--n", "12", _G12, _X12]],
     [["mul", "--n", "12", _G12, _X12], ["inv", "--n", "12", _G12], ["mul", "--n", "12", 0, 1]]),
    # pow chains its products on one state; cycle type (7, 4, 4, 1) gives q = 28, r = 11 and s = 35714, so both
    # chains and the closed-form step run: one product onto the power before
    ("pow", [["pow", "--n", "16", _X16, "1000003"]],
     [["pow", "--n", "16", _X16, "1000002"], ["mul", "--n", "16", 0, _X16]]),
    # inv and collect freeze through the fold's frame: a dense element (46 pure and 170 level-2 entries)
    ("inv-inv", [["collect", "--n", "16", _D16]],
     [["inv", "--n", "16", _D16], ["inv", "--n", "16", 0]]),
    # mul renames a's state before b's section and merges b's pure block; inv merges its pure block reversed and
    # negated: two dense elements (87 pure and 519 level-2 entries, and 54 and 121), the product of the inverses
    # taken in the other order
    ("inv-of-a-product", [["mul", "--n", "32", _A32, _B32], ["inv", "--n", "32", 0]],
     [["inv", "--n", "32", _A32], ["inv", "--n", "32", _B32], ["mul", "--n", "32", 1, 0]]),
    # the long word against the product of its two halves' collects
    ("collect-of-halves", [["collect", "--n", "32", " ".join(_LONG)]],
     [["collect", "--n", "32", " ".join(_LONG[:1000])], ["collect", "--n", "32", " ".join(_LONG[1000:])],
      ["mul", "--n", "32", 0, 1]]),
    # the same at n = 8, where the word's fold sums its corrections per pair and each half's places them one by one
    ("collect-of-halves-n8", [["collect", "--n", "8", " ".join(_LONG8)]],
     [["collect", "--n", "8", " ".join(_LONG8[:200])], ["collect", "--n", "8", " ".join(_LONG8[200:])],
      ["mul", "--n", "8", 0, 1]]),
    # the same long word with each inverse letter S<k> written s<k>^-1, as the paper writes sigma_k^-1
    ("caret-vs-sS", [["collect", "--n", "32", " ".join(f"s{x[1:]}^-1" if x[0] == "S" else x for x in _LONG)]],
     [["collect", "--n", "32", " ".join(_LONG)]]),
    # a cycle type is one product Theta * D; with fixed points before, between and after its blocks, the element of
    # type 1,5,1,7,1,7 has order 35, so its 35th power is the identity
    ("torsion-order",
     [["torsion", "--n", "23", "--cycle-type", "1,5,1,7,1,7"], ["pow", "--n", "23", (0, "element"), "35"]],
     [["collect", "--n", "23", ""]]),
]


def _argument(item: str | int | tuple[int, str], outs: list[bytes]) -> str:
    if isinstance(item, str):
        return item
    if isinstance(item, int):
        return outs[item].decode().removesuffix("\n")
    return dumps_canonical(json.loads(outs[item[0]])[item[1]])


def chain(steps: list[list], run) -> bytes:
    """The stdout bytes of a chain's last step, each step through run; a step that exits nonzero or writes to stderr
    raises RuntimeError."""
    outs: list[bytes] = []
    for step in steps:
        argv = [_argument(item, outs) for item in step]
        code, out, err = run(argv)
        if code or err:
            raise RuntimeError(f"{argv[:3]} exited {code}: {err.rstrip()}")
        outs.append(out)
    return outs[-1]


def requests() -> list[list[str]]:
    """Every request once, in the order of first appearance."""
    out = []
    for argv in (_readme_lines() + _valid_requests() + DIAGNOSTICS + _largest() + NON_ASCII_INTEGERS + MIXED_EXPRESSIONS
                 + ELEMENT_JSON + GENERATOR_RUNS + HOLONOMY_FORMS + CARET_LETTERS + LONG_WORDS):
        if argv not in out:
            out.append(argv)
    return out


def _write(header: dict, records: list[dict]) -> None:
    lines = [json.dumps(x, ensure_ascii=False, separators=(",", ":")) for x in [header, *records]]
    CORPUS.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def main_regen(argv: list[str]) -> int:
    os.environ["COLUMNS"] = "80"
    if argv == ["--cold"]:
        sample, bad = cold_sample(read_corpus()[1])
        bad += [json.dumps(r["argv"], ensure_ascii=False) for r in sample if hashed(cold(r["argv"])) != recorded(r)]
        for name, left, right in IDENTITIES:
            try:
                if chain(left, cold) != chain(right, cold):
                    bad.append(f"identity {name}")
            except RuntimeError as exc:  # a failed step: the other identities still run
                bad.append(f"identity {name}: {exc}")
        for failure in bad:
            print(f"differs: {failure}", file=sys.stderr)
        return 1 if bad else 0
    if argv == ["--changed"]:
        header, records = read_corpus()
        fresh = [_record(r["argv"]) for r in records]
        for old, new in zip(records, fresh):
            if old != new:
                print(f"rewritten: {json.dumps(old['argv'], ensure_ascii=False)}")
        _write(header, fresh)
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT).stdout.strip()
    wanted = requests()
    kept = [r["argv"] for r in read_corpus()[1] if r["argv"] in wanted] if CORPUS.exists() else []
    ordered = kept + [argv for argv in wanted if argv not in kept]
    _write({"commit": commit, "python": sys.version.split()[0]}, [_record(argv) for argv in ordered])
    return 0


if __name__ == "__main__":
    sys.exit(main_regen(sys.argv[1:]))
