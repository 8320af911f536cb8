"""Print the executable lines of src/ that a pytest run did not reach.

A stdlib line trace (sys.settrace) in place of a coverage tool.  Run it by hand
from any directory; pytest does not collect it:

    python tests/trace_lines.py                          # the in-process Tier-1 run
    python tests/trace_lines.py tests/test_fold.py -k scan

The arguments go to pytest as given; with none it runs the whole suite as
Tier-1 does.  A line is executable if an instruction of the module's compiled
code, nested code included, sits on it.  Lines that only a child process runs
(the CLI's `sys.exit(main())`, handlers a test reaches through a subprocess)
are not traced, so they are listed.  It prints one `path:line: source` per
unreached line, then the count reached, and exits with pytest's status.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def executable_lines(path: Path) -> set[int]:
    """The lines that hold an instruction of path's compiled code or of any code object nested in it."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    import pytest

    prefix, reached = str(SRC) + os.sep, defaultdict(set)

    def on_line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):  # only frames of src/ get a line tracer, so the rest runs at full speed
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(on_call)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    total = hit = 0
    for path in sorted(SRC.rglob("*.py")):
        lines, seen = executable_lines(path), reached[str(path)]
        source = path.read_text(encoding="utf-8").splitlines()
        total, hit = total + len(lines), hit + len(lines & seen)
        for line in sorted(lines - seen):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"reached {hit} of {total} executable lines of src/")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
