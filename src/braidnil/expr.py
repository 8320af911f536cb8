"""
Expression language for group elements.

Grammar (whitespace between tokens, any that str.isspace() accepts, is optional
and ignored; an int is ASCII digits with an optional sign):

    expr := term*
    term := atom ('^' int)?
    atom := 's' int          generator s_k
          | 'S' int          inverse generator, shorthand for s<k>^-1
          | 'A[' int ',' int ']'            pure generator
          | 'a[' int ',' int ',' int ']'    level-2 basis element
          | '(' expr ')'

Concatenation is group multiplication left to right; the empty expression is
the identity.  One compiled token pattern, matched at each position in turn,
reads the text: an int, any other single character, or the end.  Syntax errors
carry the UTF-8 byte offset of the offending token; index-range errors are
domain errors, raised against the strand count the expression is parsed for.
"""

from __future__ import annotations

import re
from itertools import groupby

from .core import (BraidWord, CommPart, DomainError, NilElement, PurePart, _check_strands, _Value, collect, comm_gen,
                   identity, mul, power, pure_gen, sigma)


class ExpressionError(ValueError):
    """Syntax error in an element expression, with the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


# atoms: ("gen", k, eps) | ("A", (i, j)) | ("a", (i, j, k)) | ("group", terms)
# term: (atom, exponent)

# the coordinate atoms by letter, with the coordinate type that gives the key's arity and checks it
_COORDINATE_ATOMS = {"A": PurePart, "a": CommPart}


class Expression(_Value):
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


# one token after optional whitespace (exactly what str.isspace() accepts): a signed integer of ASCII
# digits (not isdigit(), which takes '²' and '٣'), any other single character, or "" at the end
_TOKEN = re.compile(r"\s*([+-]?[0-9]+|.|\Z)", re.DOTALL)

# deepest parenthesis nesting accepted; parsing, validation and evaluation each recurse once per level
_MAX_NESTING = 500


def _error(text: str, message: str, m: re.Match) -> ExpressionError:
    """The syntax error at the token of m, placed at its UTF-8 byte offset.

    The text before the token is what the parser accepted, so it always encodes.
    """
    return ExpressionError(message, len(text[:m.start(1)].encode()))


def _expect(text: str, m: re.Match, token: str) -> re.Match:
    """The match of the token after m's, which must be token."""
    if m[1] != token:
        raise _error(text, f"expected {token!r}", m)
    return _TOKEN.match(text, m.end())


def _integer(text: str, m: re.Match) -> tuple[int, re.Match]:
    """The integer that m's token must be, and the match of the token after it."""
    if not "0" <= m[1][-1:] <= "9":  # only the pattern's integer alternative ends in an ASCII digit
        raise _error(text, "expected an integer", m)
    return int(m[1]), _TOKEN.match(text, m.end())


def _parse_terms(text: str, m: re.Match, depth: int) -> tuple[tuple, re.Match]:
    """The terms from the token of m on, and the match of the ')' or the end that stops them."""
    terms = []
    while True:
        token = m[1]
        if token == "" or token == ")":
            if token == ")" and depth == 0:
                raise _error(text, "unbalanced ')'", m)
            return tuple(terms), m
        after = _TOKEN.match(text, m.end())
        if token == "s" or token == "S":
            k, m = _integer(text, after)
            atom = ("gen", k, 1 if token == "s" else -1)
        elif token in _COORDINATE_ATOMS:
            m = _expect(text, after, "[")
            key = []
            for close in [","] * (_COORDINATE_ATOMS[token].arity - 1) + ["]"]:
                k, m = _integer(text, m)
                key.append(k)
                m = _expect(text, m, close)
            atom = (token, tuple(key))
        elif token == "(":
            if depth == _MAX_NESTING:
                raise _error(text, f"parentheses nested deeper than {_MAX_NESTING}", m)
            inner, m = _parse_terms(text, after, depth + 1)
            m = _expect(text, m, ")")
            atom = ("group", inner)
        else:
            raise _error(text, f"unexpected character {token[0]!r}", m)
        exponent = 1
        if m[1] == "^":
            exponent, m = _integer(text, _TOKEN.match(text, m.end()))
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

    Raises ExpressionError (with byte offset) on bad syntax, and DomainError on
    out-of-range indices or a strand count that is not an int of at least 1.
    """
    terms, _ = _parse_terms(text, _TOKEN.match(text), 0)
    _validate(terms, n)  # first, so that for an int n below 1 the error names the index that is out of range
    _check_strands(n)
    return Expression(n, terms)
