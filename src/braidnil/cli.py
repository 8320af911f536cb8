"""Command-line front end.

respond(argv, out, err) runs one request and returns its exit code: the answer
goes to out as one canonical JSON document (key-sorted, compact), or an
aligned text rendering with --pretty where that makes sense, diagnostics to
err.  main is respond on sys.stdout and sys.stderr plus the unwritable-stream
handler.  Element arguments are expression strings (see expr.py) unless they
start with '{', then element JSON.  Exit codes: 0 success, 1 verification
failure, 2 expression syntax error, 3 domain error (bad indices, violated
preconditions, malformed JSON), running out of memory or an unwritable stdout.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

from .core import (
    DomainError,
    NilElement,
    SPECTRUM_MAX_N,
    SUBGROUPS,
    collect,
    conj,
    dumps_canonical,
    element_from_dict,
    element_to_dict,
    inv,
    json_int,
    json_keys,
    mul,
    order,
    power,
    word_from_dict,
)
from .expr import _INT, ExpressionError, parse


# an integer on the command line, as in an expression: an optional sign and ASCII digits, with surrounding
# whitespace; int() alone also takes '٣' and '1_0', and rejects the spaces '\x1c'..'\x1f' that \s takes
_INTEGER = re.compile(rf"\s*{_INT}\s*")


def _ascii_int(text: str) -> int:
    """The integer that _INTEGER matches, stripped of the spaces it allows; anything else is int()'s ValueError."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text.strip())


def _int_option(text: str) -> int:
    """An integer option's value, rejected in argparse's own words for type=int."""
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _json_arg(text: str, what: str):
    """A JSON argument; malformed or too deeply nested text is a DomainError "bad <what> JSON: ..."."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DomainError(f"bad {what} JSON: {exc}") from exc


def _element_arg(text: str, n: int) -> NilElement:
    if not text.lstrip().startswith("{"):
        return parse(text, n).element()
    data = _json_arg(text, "element")
    kind, x = ("word", word_from_dict(data)) if "word" in data else ("element", element_from_dict(data))
    if x.n != n:
        raise DomainError(f"{kind} is on {x.n} strands, expected {n}")
    return collect(x) if kind == "word" else x


def _print(out, doc) -> None:
    out.write(dumps_canonical(doc) + "\n")


def _render_element(e: NilElement) -> str:
    bits = [f"perm={list(e.perm.image)}"]
    bits += [f"A[{i},{j}]^{x}" for i, j, x in e.pure.entries]
    bits += [f"a[{i},{j},{k}]^{c}" for i, j, k, c in e.comm.entries]
    return " ".join(bits)


def _write_block(write, rows, signs, width: int, offset: int, zero: str, sep: str, fmt, row_open: str,
                 row_close: str, join: str) -> None:
    """Write the signed permutation block with signs[c] at (rows[c], offset + c), row by row.

    A row is row_open, `width` cells joined by `sep`, then row_close, and rows
    are joined by `join`.  Each row is two writes: one slice of the template
    `gap`, which runs from the last row's nonzero cell to this row's, and this
    row's one formatted entry.  So no row string is built or concatenated, and
    memory holds one template of O(width) characters.
    """
    step, between = len(sep + zero), row_close + join + row_open  # a zero cell with its separator, on either side
    gap = (sep + zero) * width + between + (zero + sep) * width
    start = step * width + len(row_close + join)  # the first row's open
    cols = [0] * len(rows)
    for c, r in enumerate(rows):  # the column of each row's nonzero
        cols[r] = c
    for c in cols:
        at = offset + c
        write(gap[start:step * (width + at) + len(between)])
        write(fmt(signs[c]))
        start = step * (at + 1)
    if cols:
        write(gap[start:step * width + len(row_close)])


def _write_holonomy(out, h, pretty: bool) -> None:
    """Write the blocks of the HolonomyMatrix h row by row from their signed permutations, never as dense matrices.

    The JSON blocks come first, then the other keys from dumps_canonical,
    since block1 and block2 sort before them; --pretty writes the
    block-diagonal matrix, then the determinant.
    """
    write = out.write
    p, t = len(h.pair_basis), len(h.triple_basis)
    blocks = ((h.pair_rows, (1,) * p, 0), (h.triple_rows, h.triple_signs, p))
    if pretty:
        for rows, signs, offset in blocks:
            _write_block(write, rows, signs, p + t, offset, " 0", " ", "{:>2}".format, "", "\n", "")
        write(f"det = {h.det}\n")
        return
    for head, (rows, signs, _) in zip(('{"block1":[', '],"block2":['), blocks):
        write(head)
        _write_block(write, rows, signs, len(rows), 0, "0", ",", str, "[", "]", ",")
    rest = dumps_canonical({"n": h.n, "pair_basis": h.pair_basis, "triple_basis": h.triple_basis, "det": h.det})
    write("]," + rest[1:] + "\n")


def _run_collect(args, out, err) -> None:
    e = _element_arg(args.expr, args.n)
    if args.pretty:
        out.write(_render_element(e) + "\n")
    else:
        _print(out, element_to_dict(e))


def _run_mul(args, out, err) -> None:
    _print(out, element_to_dict(mul(_element_arg(args.left, args.n), _element_arg(args.right, args.n))))


def _run_inv(args, out, err) -> None:
    _print(out, element_to_dict(inv(_element_arg(args.expr, args.n))))


def _run_pow(args, out, err) -> None:
    _print(out, element_to_dict(power(_element_arg(args.expr, args.n), args.exponent)))


def _run_conj(args, out, err) -> None:
    _print(out, element_to_dict(conj(_element_arg(args.g, args.n), _element_arg(args.x, args.n))))


def _run_order(args, out, err) -> None:
    q = order(_element_arg(args.expr, args.n))
    _print(out, {"n": args.n, "order": q if q is not None else "infinite"})


def _run_delta(args, out, err) -> None:
    from . import torsion
    _print(out, element_to_dict(torsion.delta(args.r, args.k, args.n)))


def _run_delta_pow(args, out, err) -> None:
    from . import torsion
    basis, comm, constants = torsion.delta_power_coefficients(args.n)
    _print(out, {
        "n": args.n,
        "comm": [[i, j, k, c] for i, j, k, c in comm.entries],
        "orbit_constants": constants,
        "orbit_representatives": [list(t) for t in basis.representatives()],
    })


def _run_orbits(args, out, err) -> None:
    from .orbits import orbit_partition
    basis = orbit_partition(args.n)
    if args.pretty:
        for i, orbit in enumerate(basis.orbits):
            chain = " -> ".join("a[%d,%d,%d]" % t for t, _ in orbit)
            out.write(f"orbit {i} (length {len(orbit)}): {chain}\n")
    else:
        _print(out, {
            "n": args.n,
            "orbits": [
                {
                    "length": len(orbit),
                    "triples": [list(t) for t, _ in orbit],
                    "signs": [s for _, s in orbit],
                }
                for orbit in basis.orbits
            ],
        })


def _run_ranks(args, out, err) -> None:
    from . import invariants
    if args.q is not None and args.qmax is not None:
        raise DomainError("--qmax is not used with --q")
    qmax = 10 if args.qmax is None else args.qmax
    if qmax < 1:  # an empty level range would never check --n
        raise DomainError(f"need n >= 2 and qmax >= 1, got n={args.n}, qmax={qmax}")
    qs = [args.q] if args.q is not None else range(1, qmax + 1)
    _print(out, {"n": args.n, "ranks": [{"q": q, "rank": invariants.lcs_rank(args.n, q)} for q in qs]})


def _run_table(args, out, err) -> None:
    from . import invariants
    t = invariants.dimension_table(args.nmax, args.kmax)
    if args.pretty:
        out.write(t.render_text() + "\n")
    else:
        _print(out, {"rows": t.to_rows()})


def _run_torsion(args, out, err) -> None:
    from . import torsion
    if args.spectrum:
        _print(out, {"n": args.n, "spectrum": torsion.torsion_spectrum(args.n)})
    elif args.cycle_type is not None:
        try:
            parts = [_ascii_int(x) for x in args.cycle_type.split(",") if x.strip()]
        except ValueError as exc:
            raise DomainError(f"bad cycle type: {exc}") from exc
        e = torsion.element_with_cycle_type(args.n, parts)
        _print(out, {"n": args.n, "parts": parts, "order": order(e), "element": element_to_dict(e)})
    else:
        data = _json_arg(args.residues, "residue")
        json_keys(data, "residue", ("n", "residues"))
        try:
            rows = [[json_int(x) for x in row] for row in data["residues"]]
            if json_int(data.get("n", args.n)) != args.n:
                raise DomainError("residue matrix strand count disagrees with --n")
        except (KeyError, TypeError) as exc:
            raise DomainError(f"bad residue JSON: {exc}") from exc
        e = torsion.finite_order_element(args.n, rows)
        q = order(e)
        _print(out, {"n": args.n, "order": q if q is not None else "infinite", "element": element_to_dict(e)})


def _run_conjugacy(args, out, err) -> None:
    from . import torsion
    a = _element_arg(args.left, args.n)
    b = _element_arg(args.right, args.n)
    # conjugacy_witness decides on its way and raises unless the inputs are conjugate
    if args.mode == "decide":
        same, g = torsion.conjugacy_decide(a, b), None
    else:
        same, g = True, torsion.conjugacy_witness(a, b)
    doc = {
        "n": args.n,
        "conjugate": same,
        "cycle_types": [list(a.perm.cycle_type()), list(b.perm.cycle_type())],
        "proven_range": args.n >= 5,
    }
    if args.n < 5:
        err.write("note: conjugacy criterion is outside its proven range for n < 5\n")
    if g is not None:
        doc["witness"] = element_to_dict(g)
    _print(out, doc)


def _run_holonomy(args, out, err) -> None:
    from . import invariants
    e = _element_arg(args.expr, args.n)
    pair_basis = None
    if args.paper_basis:
        if args.n != 3:
            raise DomainError("--paper-basis is only defined for n=3")
        pair_basis = ((1, 3), (2, 3), (1, 2))
    _write_holonomy(out, invariants.holonomy_matrix(e, pair_basis=pair_basis), args.pretty)


def _run_verify(args, out, err) -> int:
    from . import presentations
    if args.suite == "b3":
        if args.n is not None:
            raise DomainError("--n is not used by suite b3")
        names = [args.subgroup] if args.subgroup else list(SUBGROUPS)
        reports = [presentations.subgroup_presentation(s) for s in names]
    elif args.subgroup is not None:
        raise DomainError("--subgroup is only defined for suite b3")
    elif args.n is None:
        raise DomainError(f"--n is required for suite {args.suite}")
    else:
        suite = {"pn3": presentations.pure_presentation, "bn3": presentations.braid_presentation,
                 "fulltwist": presentations.full_twist}[args.suite]
        reports = [suite(args.n)]
    _print(out, {"reports": [r.to_dict() for r in reports]})
    return 0 if all(r.passed for r in reports) else 1


_N = ("--n", {"type": _int_option, "required": True, "help": "strand count"})
_PRETTY = ("--pretty", {"action": "store_true"})

# name -> (help, arguments, run) for each subcommand, in --help order; an argument is (name, add_argument
# options), and a list of them is a required mutually exclusive group; run(args, out, err) writes the answer on
# out and any note on err, and returns the exit code, None for 0
_COMMANDS = {
    "collect": ("normal form of an expression", (_N, ("expr", {}), _PRETTY), _run_collect),
    "mul": ("product of two elements", (_N, ("left", {}), ("right", {})), _run_mul),
    "inv": ("inverse of an element", (_N, ("expr", {})), _run_inv),
    "pow": ("integer power of an element", (_N, ("expr", {}), ("exponent", {"type": _int_option})), _run_pow),
    "conj": ("conjugate: g x g^-1", (_N, ("g", {}), ("x", {})), _run_conj),
    "order": ("order of an element (integer or infinite)", (_N, ("expr", {})), _run_order),
    "delta": ("the mixed-sign cycle element on a block", (
        _N,
        ("--k", {"type": _int_option, "required": True, "help": "odd block length >= 3"}),
        ("--r", {"type": _int_option, "default": 0, "help": "block offset (default 0)"}),
    ), _run_delta),
    "delta-pow": ("level-2 coordinates of the n-th power of the cycle element", (_N,), _run_delta_pow),
    "orbits": ("cycle-element orbits of the triple basis", (_N, _PRETTY), _run_orbits),
    "ranks": ("graded ranks of the pure lattice", (
        _N,
        ("--q", {"type": _int_option, "help": "a single level"}),
        ("--qmax", {"type": _int_option, "help": "levels 1..qmax (default 10)"}),
    ), _run_ranks),
    "table": ("dimension table over n and k", (
        ("--nmax", {"type": _int_option, "required": True}),
        ("--kmax", {"type": _int_option, "required": True}),
        _PRETTY,
    ), _run_table),
    "torsion": ("torsion spectrum and finite-order constructions", (_N, [
        ("--spectrum", {"action": "store_true", "help": f"all finite orders > 1 (n <= {SPECTRUM_MAX_N})"}),
        ("--cycle-type", {"help": "comma-separated parts, e.g. 5,7"}),
        ("--residues", {"help": 'residue matrix JSON {"n":..,"residues":[[..],..]}'}),
    ]), _run_torsion),
    "conjugacy": ("decide conjugacy or produce a witness", (
        ("mode", {"choices": ("decide", "witness")}), _N, ("left", {}), ("right", {}),
    ), _run_conjugacy),
    "holonomy": ("graded action matrices of an element", (
        _N,
        ("expr", {}),
        ("--paper-basis", {"action": "store_true", "help": "n=3 only: order the pair basis (1,3),(2,3),(1,2)"}),
        _PRETTY,
    ), _run_holonomy),
    "verify": ("run a presentation / identity suite", (
        ("--suite", {"choices": ("pn3", "bn3", "b3", "fulltwist"), "required": True}),
        ("--n", {"type": _int_option, "help": "strand count (pn3/bn3/fulltwist)"}),
        ("--subgroup", {"choices": SUBGROUPS, "help": "b3 only: verify a single subgroup (default: all four)"}),
    ), _run_verify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone.

    The one-subcommand parser lists every name in its usage line, so an
    error it reports prints the same usage as the full parser.  The full
    parser keeps argparse's default metavar, which its invalid-choice and
    missing-command errors print.
    """
    ap = argparse.ArgumentParser(
        prog="braidnil",
        description="exact computation in the class-2 nilpotent quotients of braid groups",
    )
    metavar = None if command is None else "{%s}" % ",".join(_COMMANDS)
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        summary, arguments, run = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        for argument in arguments:
            if isinstance(argument, list):
                group = p.add_mutually_exclusive_group(required=True)
                for flag, options in argument:
                    group.add_argument(flag, **options)
            else:
                p.add_argument(argument[0], **argument[1])
    return ap


_parser = functools.cache(build_parser)  # each parser is built once per process: a parse leaves no state on it


def respond(argv, out, err) -> int:
    # integers are exact at any size: lift the str<->int digit limit (CPython >= 3.10.7) while the CLI reads and prints
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        # a request that names its subcommand first needs only that subparser; anything else gets them all
        parser = _parser(argv[0] if argv and argv[0] in _COMMANDS else None)
        try:
            with redirect_stdout(out), redirect_stderr(err):  # where argparse prints --help and its errors
                args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse's exit after --help or an error
            return exc.code
        return args.run(args, out, err) or 0
    except ExpressionError as exc:
        err.write(f"parse error: {exc}\n")
        return 2
    except DomainError as exc:
        err.write(f"domain error: {exc}\n")
        return 3
    except MemoryError as exc:
        exc.__traceback__ = None  # frees the frames that hold the memory, so the line can be written
        err.write("resource error: out of memory\n")
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    err = io.StringIO()  # diagnostics reach sys.stderr last, so a stderr that cannot take them keeps the exit code
    try:
        if sys.stdout is None:  # started with stdout closed: no work
            raise BrokenPipeError
        code = respond(sys.argv[1:] if argv is None else argv, sys.stdout, err)
        sys.stdout.flush()  # a stdout that cannot take the answer is reported below, not at interpreter exit
    except OSError as exc:  # stdout's, since nothing else in a request writes to a file
        code = 3
        line = "stdout closed" if isinstance(exc, BrokenPipeError) else f"cannot write stdout: {exc.strerror or exc}"
        err.write(f"resource error: {line}\n")
    for stream, text in ((sys.stdout, ""), (sys.stderr, err.getvalue())):  # a failed stdout fails its flush again
        try:
            stream.write(text)
            stream.flush()
        except (AttributeError, OSError):  # closed or full: the exit code alone tells, and what the stream still
            if stream is not None:  # buffers goes to devnull, so the flush at interpreter exit cannot fail again
                with open(os.devnull, "wb") as devnull:
                    os.dup2(devnull.fileno(), stream.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
