"""Regenerate or replay the golden CLI corpus, cli.jsonl next to this script.

The first line of the corpus is a header naming the commit it was generated
at.  Each further line is one request: its argv after `braidnil`, its exit
code, the sha256 of its stdout bytes and its stderr text.  The requests are
the README's command lines, each subcommand's valid request from
tests/test_cli.py (with its --pretty form where there is one), one request
per distinct diagnostic, the north star's largest sizes, integer options
that are not ASCII integers, expressions that mix every kind of atom, and
element JSON that is not canonical next to its canonical form.
Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py             # write every record; the header names HEAD
    PYTHONPATH=src python tests/golden/regen.py --changed   # rewrite only the records whose outcome changed
    PYTHONPATH=src python tests/golden/regen.py --cold      # replay a sample in fresh interpreters

A full write keeps the requests already in the file in their places, since
the replay test names a record by its index, appends the new ones and drops
those no longer listed.  --changed keeps the header and the file's requests,
and prints each request it rewrites; a change that alters an output lists
those in CHANGES.md.
--cold runs every diagnostic record and every tenth other one through
`python -X dev -W error -m braidnil.cli` and exits 1 if any differs.  Both
replays fix COLUMNS at 80, the width argparse wraps its usage lines to.
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
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from braidnil.cli import main

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.jsonl"
ROOT = HERE.parent.parent


def replay(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) in this process: its exit code, the sha256 of its stdout bytes and its stderr text."""
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", newline="\n")
    with redirect_stdout(stdout), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own errors and --help
            code = exc.code
    stdout.flush()
    return code, hashlib.sha256(out.getvalue()).hexdigest(), err.getvalue()


def cold(argv: list[str]) -> tuple[int, str, str]:
    """The same outcome from a fresh `python -X dev -W error -m braidnil.cli` process."""
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "braidnil.cli", *argv],
                          capture_output=True)
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), proc.stderr.decode()


def read_corpus() -> tuple[dict, list[dict]]:
    """The header and the records of the corpus."""
    header, *records = map(json.loads, CORPUS.read_text(encoding="utf-8").splitlines())
    return header, records


def recorded(record: dict) -> tuple[int, str, str]:
    """The outcome a record holds, in the order replay and cold give it."""
    return record["exit"], record["stdout_sha256"], record["stderr"]


def is_diagnostic(record: dict) -> bool:
    return record["exit"] != 0 or record["stderr"] != ""


def cold_sample(records: list[dict]) -> list[dict]:
    """Every diagnostic record, and every tenth of the others."""
    others = [r for r in records if not is_diagnostic(r)]
    return [r for r in records if is_diagnostic(r)] + others[::10]


def _record(argv: list[str]) -> dict:
    code, digest, stderr = replay(argv)
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

# integer options that are not an optional sign and ASCII digits
NON_ASCII_INTEGERS = [
    ["collect", "--n", "٣", "s1"],
    ["collect", "--n", "1_0", "s1"],
    ["pow", "--n", "3", "s1", "٣"],
    ["delta", "--n", "7", "--k", "٥"],
    ["torsion", "--n", "12", "--cycle-type", "٣"],
    ["torsion", "--n", "12", "--cycle-type", "5,1_1"],
    ["collect", "--n", " 3 ", "s1"],
    ["torsion", "--n", "12", "--cycle-type", " 5 , +7"],
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


def _largest() -> list[list[str]]:
    """The north star's largest sizes: holonomy at 28, pn3 and bn3 at 9, a witness and a cycle type at 23, pow and
    order at 32."""
    from braidnil import BraidWord, collect, conj, element_to_dict, element_with_cycle_type
    from braidnil.core import dumps_canonical
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
    ]


def requests() -> list[list[str]]:
    """Every request once, in the order of first appearance."""
    out = []
    for argv in (_readme_lines() + _valid_requests() + DIAGNOSTICS + _largest() + NON_ASCII_INTEGERS + MIXED_EXPRESSIONS
                 + ELEMENT_JSON):
        if argv not in out:
            out.append(argv)
    return out


def _write(header: dict, records: list[dict]) -> None:
    lines = [json.dumps(x, ensure_ascii=False, separators=(",", ":")) for x in [header, *records]]
    CORPUS.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def main_regen(argv: list[str]) -> int:
    os.environ["COLUMNS"] = "80"
    if argv == ["--cold"]:
        _, records = read_corpus()
        bad = [r["argv"] for r in cold_sample(records) if cold(r["argv"]) != recorded(r)]
        for request in bad:
            print(f"differs: {json.dumps(request, ensure_ascii=False)}", file=sys.stderr)
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
