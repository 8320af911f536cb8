"""Independent-path oracles: strand tracking against the collection engine, and the character scanner against
the token-pattern expression parser."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil.core import BraidWord, collect, pure_gen_word
from braidnil.expr import parse
from conftest import random_word, scanning_parse, strand_tracking_normal_form


def test_oracle_on_hand_picked_words():
    # a single positive letter is pure-free; its square is one pure generator
    perm, pure = strand_tracking_normal_form(BraidWord(3, ((1, 1),)))
    assert perm == (2, 1, 3) and pure == {}
    perm, pure = strand_tracking_normal_form(BraidWord(3, ((1, 1), (1, 1))))
    assert perm == (1, 2, 3) and pure == {(1, 2): 1}
    perm, pure = strand_tracking_normal_form(BraidWord(3, ((1, -1),)))
    assert perm == (2, 1, 3) and pure == {(1, 2): -1}


def test_oracle_recognises_pure_generators():
    for n in (3, 4, 5):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                perm, pure = strand_tracking_normal_form(pure_gen_word(n, i, j))
                assert perm == tuple(range(1, n + 1))
                assert pure == {(i, j): 1}


def test_pure_part_matches_strand_tracking():
    rng = random.Random(101)
    for n in (2, 3, 4, 5, 6):
        for _ in range(300):
            w = random_word(rng, n)
            e = collect(w)
            perm, pure = strand_tracking_normal_form(w)
            assert e.perm.image == perm
            assert e.pure.as_map() == pure


# the parser's letters and punctuation, ASCII digits, digits that are not ASCII ('²', '٣'), spaces that are not
# ASCII (U+3000, U+00A0, U+0085, U+001C), characters that are not spaces (U+200B, U+FEFF), a lone surrogate and NUL
ADVERSARIAL = (list("sSAa[](),^+- ") + list("0123456789") + ["\u00b2", "\u0663"]
               + ["\u3000", "\u00a0", "\u0085", "\u001c", "\u200b", "\ufeff", "\ud800", "\x00"])
# whole tokens, drawn as often as single characters so that some texts parse, the openings that an int follows,
# drawn as often as the digits that are not ASCII, and the edges of a run of letters: a letter whose digits an
# exponent may follow ('s12' '^3'), whitespace before '^', signed indices, and a letter's exponent whole, spaced,
# missing, a lone sign or followed by a second '^'
PIECES = ["s1", "S2", "s 3", "A[1,2]", "a[1, 2,3]", "A[3,3]", "^-1", "^+12", "(", ")", " ", "\u3000", "\u0085",
          "s", "^", "A[", "a[1,", "\u00b2", "\u0663", "s12", "^3", " ^2", "s+1", "S-2",
          "s3^-1", "s3 ^ 2", "s3^", "s3^-", "s3^2^3", "s12^3^"]


def flat_terms(terms: tuple) -> list:
    """The terms in order, a group as its ("(", exponent), its terms and ")": built and compared without
    recursion, which 500 nested groups would exhaust."""
    out, stack = [], [iter(terms)]
    while stack:
        term = next(stack[-1], None)
        if term is None:
            stack.pop()
            out.append(")")
        elif term[0][0] == "group":
            out.append(("(", term[1]))
            stack.append(iter(term[0][1]))
        else:
            out.append(term)
    return out


def token_terms(text: str, n: int) -> tuple:
    return parse(text, n).terms


def parse_outcome(parser, text: str, n: int):
    """The flattened terms, or the exception's class, message and offset."""
    try:
        return flat_terms(parser(text, n))
    except ValueError as exc:  # ExpressionError and DomainError
        return type(exc), str(exc), getattr(exc, "offset", None)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(ADVERSARIAL) | st.sampled_from(PIECES), max_size=24).map("".join)
       | st.lists(st.sampled_from(PIECES), max_size=16).map("".join),  # about 1 text in 10 parses or fails on an index
       st.integers(2, 6))
def test_the_token_pattern_parser_agrees_with_the_scanner(text, n):
    assert parse_outcome(token_terms, text, n) == parse_outcome(scanning_parse, text, n)


@pytest.mark.parametrize("depth", [499, 500, 501, 502])
@pytest.mark.parametrize("nest", [
    pytest.param(lambda d: "(" * d + "s1" + ")" * d, id="closed"),
    pytest.param(lambda d: "(s1 " * d + ")^-2" * d, id="powers"),
    pytest.param(lambda d: "(" * d + "s1", id="unclosed"),
    pytest.param(lambda d: "(" * d + ")" * (d + 1), id="one-close-too-many"),
])
def test_the_parsers_agree_at_the_nesting_limit(depth, nest):
    text = nest(depth)
    assert parse_outcome(token_terms, text, 3) == parse_outcome(scanning_parse, text, 3)
