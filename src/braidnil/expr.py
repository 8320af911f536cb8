"""
Expression language for group elements.

Grammar (whitespace between tokens is optional and ignored):

    expr := term*
    term := atom ('^' int)?
    atom := 's' int          generator s_k
          | 'S' int          inverse generator, shorthand for s<k>^-1
          | 'A[' int ',' int ']'            pure generator
          | 'a[' int ',' int ',' int ']'    level-2 basis element
          | '(' expr ')'

Concatenation is group multiplication left to right; the empty expression is
the identity.  Syntax errors carry the byte offset of the offending token;
index-range errors are domain errors, raised against the strand count the
expression is parsed for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .core import BraidWord, DomainError, NilElement, collect, comm_gen, identity, mul, power, pure_gen, sigma


class ExpressionError(ValueError):
    """Syntax error in an element expression, with the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


# atoms: ("gen", k, eps) | ("pure", i, j) | ("comm", i, j, k) | ("group", terms)
# term: (atom, exponent)


@dataclass(frozen=True)
class Expression:
    """A parsed element expression, bound to its strand count."""

    n: int
    source: str
    terms: tuple

    def element(self) -> NilElement:
        return _eval_terms(self.terms, self.n)


# a generator power beyond this is raised by squaring rather than spelled out letter by letter
_RUN_EXPONENT_LIMIT = 64


def _is_run_term(term) -> bool:
    atom, exponent = term
    return atom[0] == "gen" and abs(exponent) <= _RUN_EXPONENT_LIMIT


def _eval_terms(terms: tuple, n: int) -> NilElement:
    acc = identity(n)
    for in_run, group in groupby(terms, key=_is_run_term):
        if in_run:
            # consecutive generator atoms are spelled out and folded by one collect
            letters = tuple(letter for (_, k, eps), m in group
                            for letter in [(k, eps if m > 0 else -eps)] * abs(m))
            acc = mul(acc, collect(BraidWord(n, letters)))
            continue
        for atom, exponent in group:
            kind = atom[0]
            if kind == "gen":
                base = sigma(n, atom[1], atom[2])
            elif kind == "pure":
                base = pure_gen(n, atom[1], atom[2])
            elif kind == "comm":
                base = comm_gen(n, (atom[1], atom[2], atom[3]))
            else:
                base = _eval_terms(atom[1], n)
            acc = mul(acc, base if exponent == 1 else power(base, exponent))
    return acc


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ExpressionError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":  # not isdigit(): it takes '²' and '٣'
            self.pos += 1
        if self.pos == digits:
            raise ExpressionError("expected an integer", start)
        return int(self.text[start:self.pos])


# deepest parenthesis nesting accepted; parsing, validation and evaluation each recurse once per level
_MAX_NESTING = 500


def _parse_terms(sc: _Scanner, depth: int) -> tuple:
    terms = []
    while True:
        ch = sc.peek()
        if ch == "" or ch == ")":
            if ch == ")" and depth == 0:
                raise ExpressionError("unbalanced ')'", sc.pos)
            return tuple(terms)
        if ch == "s" or ch == "S":
            sc.pos += 1
            k = sc.integer()
            atom = ("gen", k, 1 if ch == "s" else -1)
        elif ch == "A":
            sc.pos += 1
            sc.expect("[")
            i = sc.integer()
            sc.expect(",")
            j = sc.integer()
            sc.expect("]")
            atom = ("pure", i, j)
        elif ch == "a":
            sc.pos += 1
            sc.expect("[")
            i = sc.integer()
            sc.expect(",")
            j = sc.integer()
            sc.expect(",")
            k = sc.integer()
            sc.expect("]")
            atom = ("comm", i, j, k)
        elif ch == "(":
            if depth == _MAX_NESTING:
                raise ExpressionError(f"parentheses nested deeper than {_MAX_NESTING}", sc.pos)
            sc.pos += 1
            inner = _parse_terms(sc, depth + 1)
            sc.expect(")")
            atom = ("group", inner)
        else:
            raise ExpressionError(f"unexpected character {ch!r}", sc.pos)
        exponent = 1
        if sc.peek() == "^":
            sc.pos += 1
            exponent = sc.integer()
        terms.append((atom, exponent))


def _validate(terms: tuple, n: int) -> None:
    for atom, _ in terms:
        kind = atom[0]
        if kind == "gen":
            if not 1 <= atom[1] <= n - 1:
                raise DomainError(f"generator index {atom[1]} out of range for n={n}")
        elif kind == "pure":
            pure_gen(n, atom[1], atom[2])  # the coordinate types check their keys
        elif kind == "comm":
            comm_gen(n, atom[1:])
        else:
            _validate(atom[1], n)


def parse(text: str, n: int) -> Expression:
    """Parse an element expression against a strand count.

    Raises ExpressionError (with byte offset) on bad syntax and DomainError on
    out-of-range indices.
    """
    sc = _Scanner(text)
    terms = _parse_terms(sc, 0)
    _validate(terms, n)
    return Expression(n, text, terms)


def format_terms(terms: tuple) -> str:
    """Canonical text for a parsed expression; parse(format(e)) gives the same element."""
    chunks = []
    for atom, exponent in terms:
        kind = atom[0]
        if kind == "gen":
            body = f"s{atom[1]}"
            if atom[2] == -1:
                exponent = -exponent
        elif kind == "pure":
            body = f"A[{atom[1]},{atom[2]}]"
        elif kind == "comm":
            body = f"a[{atom[1]},{atom[2]},{atom[3]}]"
        else:
            body = f"({format_terms(atom[1])})"
        chunks.append(body if exponent == 1 else f"{body}^{exponent}")
    return " ".join(chunks)
