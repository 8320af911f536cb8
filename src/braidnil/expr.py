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
the identity.  At an 's' or 'S', one compiled run pattern takes the longest
run of well-formed letters, exponents included; equal letters share one term
object, validated once.  A compiled token pattern, matched at each position,
reads the rest (an int, any other single character, or the end) and a letter
only to diagnose it.  A syntax error carries the UTF-8 byte offset of its
token; an index out of range is a domain error against the strand count.
"""

from __future__ import annotations

import re

from .core import (CommPart, DomainError, NilElement, PurePart, _check_int, _check_strands, _fold, _fold_framed,
                   _freeze, _origin, _times, _Value, comm_gen, power, pure_gen, sigma)


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
    """An element expression, bound to its strand count: terms as the parser builds them (see above)."""

    n: int
    terms: tuple

    def __post_init__(self):
        if type(self.n) is int:  # indices first, so that for n below 1 the error names the index out of range
            _validate(self.terms, self.n)
        _check_strands(self.n)

    def element(self) -> NilElement:
        return _eval_terms(self.terms, self.n)


# a generator power beyond this is raised by squaring rather than spelled out letter by letter
_RUN_EXPONENT_LIMIT = 64


def _eval_terms(terms: tuple, n: int) -> NilElement:
    """The product of the terms on one working state: generator runs are buffered and folded, any other atom's
    power is multiplied in by `_times`, and the state is frozen once.  A group is frozen on its own for `power`."""
    state, letters = _origin(n), []
    for atom, exponent in terms:
        kind = atom[0]
        if kind == "gen" and exponent == 1:
            letters.append(atom[1:])
            continue
        if kind == "gen" and abs(exponent) <= _RUN_EXPONENT_LIMIT:
            letters += [(atom[1], atom[2] if exponent > 0 else -atom[2])] * abs(exponent)
            continue
        if kind == "gen":
            base = sigma(n, atom[1], atom[2])
        elif kind == "A":
            base = pure_gen(n, *atom[1])
        elif kind == "a":
            base = comm_gen(n, atom[1])
        else:
            base = _eval_terms(atom[1], n)
        state, letters = _times(*_fold(*state, letters), power(base, exponent)), []
    return _freeze(n, *_fold_framed(*state, letters))


# one token after optional whitespace (exactly what str.isspace() accepts): an int, which is an optional sign
# and ASCII digits (not isdigit(), which takes '²' and '٣'), any other single character, or "" at the end
_INT = r"[+-]?[0-9]+"
_TOKEN = re.compile(rf"\s*({_INT}|.|\Z)", re.DOTALL)
# a run of well-formed letters, exponents included, split by _LETTER; the guard keeps 's12^' from reading as 's1' '2'
_RUN = re.compile(rf"(?:[sS]\s*{_INT}(?![0-9])\s*(?:\^\s*{_INT}\s*|(?![\s^])))+")
_LETTER = re.compile(r"[sS][^sS]*")

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
    terms, shared = [], {}  # shared: each distinct letter text, and each distinct term, to its one term object
    while True:
        token = m[1]
        if token == "" or token == ")":
            if token == ")" and depth == 0:
                raise _error(text, "unbalanced ')'", m)
            return tuple(terms), m
        if token == "s" or token == "S":
            if not (run := _RUN.match(text, m.start(1))):  # a malformed letter, read only to diagnose it: its
                _integer(text, _expect(text, _integer(text, _TOKEN.match(text, m.end()))[1], "^"))  # index or exponent
            letters = _LETTER.findall(text, m.start(1), run.end())
            try:
                for letter in set(letters).difference(shared):  # int() takes no '\x1c'..'\x1f', strip() does
                    index, _, exponent = letter[1:].partition("^")
                    term = (("gen", int(index.strip()), 1 if letter[0] == "s" else -1), int(exponent.strip() or 1))
                    shared[letter] = shared.setdefault(term, term)
            except ValueError:  # a literal past int()'s digit limit: re-read in text order, to name the first one
                [int(x.strip() or 1) for letter in letters for x in letter[1:].partition("^")[::2]]
                raise
            terms += map(shared.__getitem__, letters)
            m = _TOKEN.match(text, run.end())
            continue
        after = _TOKEN.match(text, m.end())
        if token in _COORDINATE_ATOMS:
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
    """Check terms against n: (atom, exponent) pairs, int exponents, atoms of a known kind and shape, valid indices."""
    if type(terms) is not tuple:
        raise DomainError(f"terms must be a tuple, got {type(terms).__name__}")
    for term in dict(zip(map(id, terms), terms)).values():  # each distinct object once, by id: a term may not hash
        if type(term) is not tuple or len(term) != 2 or type(term[0]) is not tuple:
            raise DomainError(f"a term is an (atom, exponent) pair, got {term!r}")
        atom, exponent = term
        _check_int("exponent", exponent)
        if len(atom) == 3 and atom[0] == "gen":
            _, k, eps = atom
            if type(k) is not int or not 0 < k < n:
                raise DomainError(f"generator index {k!r} out of range for n={n}")
            if type(eps) is not int or eps not in (1, -1):
                raise DomainError(f"letter sign must be +1 or -1, got {eps!r}")
        elif len(atom) == 2 and type(atom[0]) is str and atom[0] in _COORDINATE_ATOMS and type(atom[1]) is tuple:
            _COORDINATE_ATOMS[atom[0]]._norm(atom[1], n)
        elif len(atom) == 2 and atom[0] == "group":
            _validate(atom[1], n)
        else:
            raise DomainError(f"unknown or malformed atom {atom!r}")


def parse(text: str, n: int) -> Expression:
    """Parse an element expression against a strand count.

    Raises ExpressionError (with byte offset) on bad syntax; the Expression
    raises DomainError on out-of-range indices or a strand count that is not an
    int of at least 1.  The first int in the text past CPython's 4300-digit limit
    raises int()'s ValueError unless the caller lifts the limit, as cli.main does.
    """
    terms, _ = _parse_terms(text, _TOKEN.match(text), 0)
    return Expression(n, terms)
