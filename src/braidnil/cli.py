"""
Command-line front end.

Every subcommand prints one canonical JSON document on stdout (key-sorted,
compact), or an aligned text rendering with --pretty where that makes sense;
diagnostics go to stderr.  Element arguments are expression strings (see
expr.py) unless they start with '{', in which case they are read as element
JSON.  Exit codes: 0 success, 1 verification failure, 2 expression syntax
error, 3 domain error (bad indices, violated preconditions, malformed JSON)
or running out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys

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
from .expr import ExpressionError, parse


def _json_arg(text: str, what: str):
    """A JSON argument; malformed or too deeply nested text is a DomainError "bad <what> JSON: ..."."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DomainError(f"bad {what} JSON: {exc}") from exc


def _element_arg(text: str, n: int) -> NilElement:
    if text.lstrip().startswith("{"):
        data = _json_arg(text, "element")
        if "word" in data:
            w = word_from_dict(data)
            if w.n != n:
                raise DomainError(f"word is on {w.n} strands, expected {n}")
            return collect(w)
        e = element_from_dict(data)
        if e.n != n:
            raise DomainError(f"element is on {e.n} strands, expected {n}")
        return e
    return parse(text, n).element()


def _print(doc) -> None:
    sys.stdout.write(dumps_canonical(doc) + "\n")


def _render_element(e: NilElement) -> str:
    bits = [f"perm={list(e.perm.image)}"]
    bits += [f"A[{i},{j}]^{x}" for i, j, x in e.pure.entries]
    bits += [f"a[{i},{j},{k}]^{c}" for i, j, k, c in e.comm.entries]
    return " ".join(bits)


_N = ("--n", {"type": int, "required": True, "help": "strand count"})
_PRETTY = ("--pretty", {"action": "store_true"})

# name -> (help, arguments) for each subcommand, in --help order; an argument is (name, add_argument
# options), and a list of them is a required mutually exclusive group
_COMMANDS = {
    "collect": ("normal form of an expression", (_N, ("expr", {}), _PRETTY)),
    "mul": ("product of two elements", (_N, ("left", {}), ("right", {}))),
    "inv": ("inverse of an element", (_N, ("expr", {}))),
    "pow": ("integer power of an element", (_N, ("expr", {}), ("exponent", {"type": int}))),
    "conj": ("conjugate: g x g^-1", (_N, ("g", {}), ("x", {}))),
    "order": ("order of an element (integer or infinite)", (_N, ("expr", {}))),
    "delta": ("the mixed-sign cycle element on a block", (
        _N,
        ("--k", {"type": int, "required": True, "help": "odd block length >= 3"}),
        ("--r", {"type": int, "default": 0, "help": "block offset (default 0)"}),
    )),
    "delta-pow": ("level-2 coordinates of the n-th power of the cycle element", (_N,)),
    "orbits": ("cycle-element orbits of the triple basis", (_N, _PRETTY)),
    "ranks": ("graded ranks of the pure lattice", (
        _N,
        ("--q", {"type": int, "help": "a single level"}),
        ("--qmax", {"type": int, "default": 10, "help": "levels 1..qmax (default 10)"}),
    )),
    "table": ("dimension table over n and k", (
        ("--nmax", {"type": int, "required": True}),
        ("--kmax", {"type": int, "required": True}),
        _PRETTY,
    )),
    "torsion": ("torsion spectrum and finite-order constructions", (_N, [
        ("--spectrum", {"action": "store_true", "help": f"all finite orders > 1 (n <= {SPECTRUM_MAX_N})"}),
        ("--cycle-type", {"help": "comma-separated parts, e.g. 5,7"}),
        ("--residues", {"help": 'residue matrix JSON {"n":..,"residues":[[..],..]}'}),
    ])),
    "conjugacy": ("decide conjugacy or produce a witness", (
        ("mode", {"choices": ("decide", "witness")}), _N, ("left", {}), ("right", {}),
    )),
    "holonomy": ("graded action matrices of an element", (
        _N,
        ("expr", {}),
        ("--paper-basis", {"action": "store_true", "help": "n=3 only: order the pair basis (1,3),(2,3),(1,2)"}),
        _PRETTY,
    )),
    "verify": ("run a presentation / identity suite", (
        ("--suite", {"choices": ("pn3", "bn3", "b3", "fulltwist"), "required": True}),
        ("--n", {"type": int, "help": "strand count (pn3/bn3/fulltwist)"}),
        ("--subgroup", {"choices": SUBGROUPS, "help": "b3 only: verify a single subgroup (default: all four)"}),
    )),
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
        summary, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for argument in arguments:
            if isinstance(argument, list):
                group = p.add_mutually_exclusive_group(required=True)
                for flag, options in argument:
                    group.add_argument(flag, **options)
            else:
                p.add_argument(argument[0], **argument[1])
    return ap


def _block_rows(rows, signs, width: int, offset: int, zero: str, sep: str, fmt):
    """Text rows of the signed permutation block with signs[c] at (rows[c], offset + c).

    Each row is `width` cells joined by `sep`: a run of zero cells, its one
    nonzero entry, then another run of zero cells, never encoded cell by cell.
    """
    for c in sorted(range(len(rows)), key=rows.__getitem__):  # the column of each row's nonzero
        at = offset + c
        yield (zero + sep) * at + fmt(signs[c]) + (sep + zero) * (width - at - 1)


def _write_holonomy(h, pretty: bool) -> None:
    """Write the blocks of the HolonomyMatrix h row by row from their signed permutations, never as dense matrices.

    The JSON blocks come first, then the other keys from dumps_canonical,
    since block1 and block2 sort before them; --pretty writes the
    block-diagonal matrix, then the determinant.
    """
    write = sys.stdout.write
    p, t = len(h.pair_basis), len(h.triple_basis)
    blocks = ((h.pair_rows, (1,) * p, 0), (h.triple_rows, h.triple_signs, p))
    if pretty:
        for rows, signs, offset in blocks:
            for row in _block_rows(rows, signs, p + t, offset, " 0", " ", "{:>2}".format):
                write(row + "\n")
        write(f"det = {h.det}\n")
        return
    for head, (rows, signs, _) in zip(('{"block1":[', '],"block2":['), blocks):
        write(head)
        for i, row in enumerate(_block_rows(rows, signs, len(rows), 0, "0", ",", str)):
            write(("[" if i == 0 else ",[") + row + "]")
    rest = dumps_canonical({"n": h.n, "pair_basis": h.pair_basis, "triple_basis": h.triple_basis, "det": h.det})
    write("]," + rest[1:] + "\n")


def _cmd_torsion(args) -> int:
    from . import torsion

    if args.spectrum:
        _print({"n": args.n, "spectrum": torsion.torsion_spectrum(args.n)})
        return 0
    if args.cycle_type is not None:
        try:
            parts = [int(x) for x in args.cycle_type.split(",") if x.strip()]
        except ValueError as exc:
            raise DomainError(f"bad cycle type: {exc}") from exc
        e = torsion.element_with_cycle_type(args.n, parts)
        _print({
            "n": args.n,
            "parts": parts,
            "order": order(e),
            "element": element_to_dict(e),
        })
        return 0
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
    _print({
        "n": args.n,
        "order": q if q is not None else "infinite",
        "element": element_to_dict(e),
    })
    return 0


def _cmd_verify(args) -> int:
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
    _print({"reports": [r.to_dict() for r in reports]})
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    # integers are exact at any size: lift the str<->int digit limit (CPython >= 3.10.7) while the CLI reads and prints
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else argv
        # a request that names its subcommand first needs only that subparser; anything else gets them all
        args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
        if args.command == "collect":
            e = _element_arg(args.expr, args.n)
            if args.pretty:
                print(_render_element(e))
            else:
                _print(element_to_dict(e))
        elif args.command == "mul":
            _print(element_to_dict(mul(_element_arg(args.left, args.n),
                                       _element_arg(args.right, args.n))))
        elif args.command == "inv":
            _print(element_to_dict(inv(_element_arg(args.expr, args.n))))
        elif args.command == "pow":
            _print(element_to_dict(power(_element_arg(args.expr, args.n), args.exponent)))
        elif args.command == "conj":
            _print(element_to_dict(conj(_element_arg(args.g, args.n),
                                        _element_arg(args.x, args.n))))
        elif args.command == "order":
            q = order(_element_arg(args.expr, args.n))
            _print({"n": args.n, "order": q if q is not None else "infinite"})
        elif args.command == "delta":
            from . import torsion
            _print(element_to_dict(torsion.delta(args.r, args.k, args.n)))
        elif args.command == "delta-pow":
            from . import torsion
            basis, comm, constants = torsion.delta_power_coefficients(args.n)
            _print({
                "n": args.n,
                "comm": [[i, j, k, c] for i, j, k, c in comm.entries],
                "orbit_constants": constants,
                "orbit_representatives": [list(t) for t in basis.representatives()],
            })
        elif args.command == "orbits":
            from .orbits import orbit_partition
            basis = orbit_partition(args.n)
            if args.pretty:
                for i, orbit in enumerate(basis.orbits):
                    chain = " -> ".join("a[%d,%d,%d]" % t for t, _ in orbit)
                    print(f"orbit {i} (length {len(orbit)}): {chain}")
            else:
                _print({
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
        elif args.command == "ranks":
            from . import invariants
            qs = [args.q] if args.q is not None else range(1, args.qmax + 1)
            _print({"n": args.n, "ranks": [{"q": q, "rank": invariants.lcs_rank(args.n, q)} for q in qs]})
        elif args.command == "table":
            from . import invariants
            t = invariants.dimension_table(args.nmax, args.kmax)
            if args.pretty:
                print(t.render_text())
            else:
                _print({"rows": t.to_rows()})
        elif args.command == "torsion":
            return _cmd_torsion(args)
        elif args.command == "conjugacy":
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
                print("note: conjugacy criterion is outside its proven range for n < 5", file=sys.stderr)
            if g is not None:
                doc["witness"] = element_to_dict(g)
            _print(doc)
        elif args.command == "holonomy":
            from . import invariants
            e = _element_arg(args.expr, args.n)
            pair_basis = None
            if args.paper_basis:
                if args.n != 3:
                    raise DomainError("--paper-basis is only defined for n=3")
                pair_basis = ((1, 3), (2, 3), (1, 2))
            _write_holonomy(invariants.holonomy_matrix(e, pair_basis=pair_basis), args.pretty)
        elif args.command == "verify":
            return _cmd_verify(args)
        return 0
    except ExpressionError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        exc.__traceback__ = None  # frees the frames that hold the memory, so the line can be written
        print("resource error: out of memory", file=sys.stderr)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
