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
the identity.  Syntax errors carry the UTF-8 byte offset of the offending token;
index-range errors are domain errors, raised against the strand count the
expression is parsed for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .core import (BraidWord, CommPart, DomainError, NilElement, PurePart, collect, comm_gen, identity, mul,
                   power, pure_gen, sigma)


class ExpressionError(ValueError):
    """Syntax error in an element expression, with the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


# atoms: ("gen", k, eps) | ("A", (i, j)) | ("a", (i, j, k)) | ("group", terms)
# term: (atom, exponent)

# the coordinate atoms by letter, with the coordinate type that gives the key's arity and checks it
_COORDINATE_ATOMS = {"A": PurePart, "a": CommPart}


@dataclass(frozen=True)
class Expression:
    """A parsed element expression, bound to its strand count."""

    n: int
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
            elif kind == "A":
                base = pure_gen(n, *atom[1])
            elif kind == "a":
                base = comm_gen(n, atom[1])
            else:
                base = _eval_terms(atom[1], n)
            acc = mul(acc, base if exponent == 1 else power(base, exponent))
    return acc


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int) -> ExpressionError:
        """The syntax error at string index pos, placed at its UTF-8 byte offset.

        The text before pos is what the scanner accepted, so it always encodes.
        """
        return ExpressionError(message, len(self.text[:pos].encode()))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}", self.pos)
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
            raise self.error("expected an integer", start)
        return int(self.text[start:self.pos])


# deepest parenthesis nesting accepted; parsing, validation and evaluation each recurse once per level
_MAX_NESTING = 500


def _parse_terms(sc: _Scanner, depth: int) -> tuple:
    terms = []
    while True:
        ch = sc.peek()
        if ch == "" or ch == ")":
            if ch == ")" and depth == 0:
                raise sc.error("unbalanced ')'", sc.pos)
            return tuple(terms)
        if ch == "s" or ch == "S":
            sc.pos += 1
            k = sc.integer()
            atom = ("gen", k, 1 if ch == "s" else -1)
        elif ch in _COORDINATE_ATOMS:
            sc.pos += 1
            sc.expect("[")
            key = [sc.integer()]
            for _ in range(_COORDINATE_ATOMS[ch].arity - 1):
                sc.expect(",")
                key.append(sc.integer())
            sc.expect("]")
            atom = (ch, tuple(key))
        elif ch == "(":
            if depth == _MAX_NESTING:
                raise sc.error(f"parentheses nested deeper than {_MAX_NESTING}", sc.pos)
            sc.pos += 1
            inner = _parse_terms(sc, depth + 1)
            sc.expect(")")
            atom = ("group", inner)
        else:
            raise sc.error(f"unexpected character {ch!r}", sc.pos)
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
        elif kind in _COORDINATE_ATOMS:
            _COORDINATE_ATOMS[kind]._norm(atom[1], n)
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
    return Expression(n, terms)
