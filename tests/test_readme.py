"""README examples run as written: the library quick start and the command-line lines."""

from __future__ import annotations

import ast
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from braidnil import conj
from braidnil.cli import respond

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(heading: str) -> str:
    """The body of the first fenced code block after a heading."""
    return re.search(r"```\w*\n(.*?)```", README[README.index(heading):], re.S).group(1)


# each commented result in the quick start, keyed by the expression it annotates
QUICK_START_RESULTS = {
    "order(d5)": None,
    "order(e)": 5,
    "dimension_table(6, 5).entry(6, 5)": 336,
    "[len(o) for o in orbit_partition(6).orbits]": [6, 6, 6, 2],
}


def test_library_quick_start_gives_its_commented_results():
    source = code_block("## Library quick start")
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = ast.get_source_segment(source, stmt)
            values[code] = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    comments = dict(line.split("#", 1) for line in source.splitlines() if "#" in line)
    comments = {code.strip(): note.strip() for code, note in comments.items()}
    for code, expected in QUICK_START_RESULTS.items():
        assert values[code] == expected
        assert comments[code].startswith(repr(expected))
    assert values["holonomy_matrix(d5).det"] in (1, -1)
    assert conj(namespace["g"], namespace["e"]) == namespace["b"]


# the document key that a "# -> value" note on a command line gives the value of
ANNOTATED_KEY = {"order": "order", "torsion": "spectrum"}
CLI_LINES = [line for line in code_block("## Command line").splitlines() if line.strip()]


@pytest.mark.parametrize("line", CLI_LINES)
def test_command_line_example_exits_zero_with_its_annotated_output(line):
    argv = shlex.split(line, comments=True)
    assert argv[0] == "braidnil"
    stdout = io.StringIO()
    assert respond(argv[1:], stdout, io.StringIO()) == 0
    out = stdout.getvalue()
    note = re.search(r"#\s*->\s*(.+)$", line)
    if note:
        assert json.loads(out)[ANNOTATED_KEY[argv[1]]] == json.loads(note.group(1))
