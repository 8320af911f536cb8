"""Expression grammar tests."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil import expr
from braidnil.core import BraidWord, DomainError, collect, comm_gen, identity, mul, power, pure_gen, sigma
from braidnil.expr import ExpressionError, parse
from braidnil.torsion import delta, delta_word
from conftest import counted, format_terms


def test_cycle_word_expression():
    e = parse("s4 s3 s2^-1 s1^-1", 5).element()
    assert e == delta(0, 5, 5)


def test_order_five_expression():
    e = parse("a[1,2,4] (s4 s3 s2^-1 s1^-1)", 5).element()
    assert e == mul(comm_gen(5, (1, 2, 4)), delta(0, 5, 5))


def test_empty_expression_is_identity():
    assert parse("", 5).element() == identity(5)
    assert parse("   ", 5).element() == identity(5)


def test_capital_s_is_inverse_generator():
    assert parse("S2", 5).element() == parse("s2^-1", 5).element()


def test_powers_and_groups():
    assert parse("(s4 s3 s2^-1 s1^-1)^5", 5).element() == collect(delta_word(0, 5, 5) ** 5)
    assert parse("A[1,2]", 5).element() == parse("s1^2", 5).element()
    assert parse("A[1,2]^0", 5).element() == identity(5)
    assert parse("(s1 s2)^-1 (s1 s2)", 5).element() == identity(5)


def test_pure_atom_equals_its_defining_word():
    for (i, j) in ((1, 2), (1, 3), (2, 5)):
        assert parse(f"A[{i},{j}]", 5).element() == parse(
            " ".join([f"s{k}" for k in range(j - 1, i, -1)] + [f"s{i}^2"] +
                     [f"s{k}^-1" for k in range(i + 1, j)]), 5).element()


def test_whitespace_is_optional():
    assert parse("s1s2", 3).element() == parse("s1 s2", 3).element()


def test_syntax_error_offsets():
    with pytest.raises(ExpressionError) as exc:
        parse("s1 )", 3)
    assert exc.value.offset == 3
    with pytest.raises(ExpressionError) as exc:
        parse("s1 q2", 3)
    assert exc.value.offset == 3
    with pytest.raises(ExpressionError) as exc:
        parse("A[1,2", 3)
    assert exc.value.offset == 5
    with pytest.raises(ExpressionError):
        parse("(s1", 3)
    # only ASCII digits: int() rejects '²' and reads '٣' as 3; offsets count UTF-8 bytes,
    # so 'ü' after the 3-byte U+3000 sits at byte 8, not at string index 6
    for text, offset in (("s²", 1), ("s1^²", 3), ("s٣", 1), ("s1\u3000s2 ü", 8)):
        with pytest.raises(ExpressionError) as exc:
            parse(text, 4)
        assert exc.value.offset == offset


def test_out_of_range_indices_are_domain_errors():
    with pytest.raises(DomainError):
        parse("s5", 3)
    with pytest.raises(DomainError):
        parse("A[1,7]", 5)
    with pytest.raises(DomainError):
        parse("a[1,1,2]", 5)


def test_format_round_trip():
    for text in ("s4 s3 s2^-1 s1^-1", "a[1,2,4] (s4 s3 s2^-1 s1^-1)", "A[2,5]^-3 S1", ""):
        expr = parse(text, 5)
        again = parse(format_terms(expr.terms), 5)
        assert again.element() == expr.element()


def well_formed_expressions(n: int):
    """Expression text valid on n strands: atoms with in-range distinct indices, powers on both sides of 64, groups."""
    indices = lambda k: st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    term = st.builds("{}{}".format, st.one_of(
        st.builds("{}{}".format, st.sampled_from("sS"), st.integers(1, n - 1)),
        indices(2).map(lambda p: "A[{},{}]".format(*p)),
        indices(3).map(lambda t: "a[{},{},{}]".format(*t)),
    ), st.one_of(st.just(""), st.integers(-100, 100).map("^{}".format)))
    return st.recursive(term, lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=4).map(" ".join),
        st.builds("({})^{}".format, st.lists(inner, max_size=4).map(" ".join), st.integers(-9, 9)),
    ), max_leaves=10)


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), well_formed_expressions(n))))
def test_format_round_trip_on_generated_expressions(case):
    n, text = case
    expr = parse(text, n)
    assert parse(format_terms(expr.terms), n).element() == expr.element()


def test_generator_runs_equal_atom_by_atom_products():
    # exponents on both sides of the limit above which a generator power is raised by squaring; the level-2
    # atoms and the powered group leave a run to fold onto an accumulator with a level-2 part and a permutation
    rng = random.Random(41)
    n = 6
    group = mul(mul(mul(sigma(n, 1), sigma(n, 3)), comm_gen(n, (1, 2, 4))), sigma(n, 2, -1))
    for _ in range(40):
        atoms, expected = [], identity(n)
        for _ in range(rng.randint(0, 12)):
            roll = rng.random()
            if roll < 0.7:
                k, m = rng.randint(1, n - 1), rng.choice((1, -1, 0, 2, -3, 64, -65, 70))
                atoms.append(f"s{k}^{m}")
                expected = mul(expected, power(sigma(n, k), m))
            elif roll < 0.8:
                i, j = rng.sample(range(1, n + 1), 2)
                atoms.append(f"A[{i},{j}]")
                expected = mul(expected, pure_gen(n, i, j))
            elif roll < 0.9:
                t = tuple(rng.sample(range(1, n + 1), 3))
                atoms.append("a[{},{},{}]".format(*t))
                expected = mul(expected, comm_gen(n, t))
            else:
                m = rng.choice((-2, 3))
                atoms.append(f"(s1 s3 a[1,2,4] s2^-1)^{m}")
                expected = mul(expected, power(group, m))
        assert parse(" ".join(atoms), n).element() == expected
    assert parse("s1^1000000000 s2", 3).element() == mul(power(sigma(3, 1), 10 ** 9), sigma(3, 2))


# spaces between letters and inside them: ASCII, and others that str.isspace() accepts ('\x1c' is one int() rejects)
SPACES = ("", " ", "  ", "\t", "\n", "\u3000", "\u00a0", "\u0085", "\x1c")


def test_long_words_parse_to_their_collected_letters():
    # runs of plain letters, broken by letters with an exponent (some after whitespace), spaces inside letters and
    # signed indices
    rng = random.Random(43)
    for _ in range(8):
        n, length = rng.randint(2, 32), rng.randint(0, 5000)
        pieces, letters = [], []
        while len(letters) < length:
            k, eps = rng.randint(1, n - 1), rng.choice((1, -1))
            inside = rng.choice(SPACES) if rng.random() < 0.1 else ""
            sign = rng.choice(("", "+")) if rng.random() < 0.05 else ""
            m = rng.choice((-2, -1, 0, 2, 3)) if rng.random() < 0.1 else 1
            exponent = f"{rng.choice(SPACES)}^{m}" if m != 1 or rng.random() < 0.01 else ""
            pieces.append(f"{'s' if eps == 1 else 'S'}{inside}{sign}{k}{exponent}{rng.choice(SPACES)}")
            letters += [(k, eps if m > 0 else -eps)] * abs(m)
        assert parse("".join(pieces), n).element() == collect(BraidWord(n, tuple(letters)))


def test_a_long_word_shares_one_term_per_distinct_letter():
    rng = random.Random(44)
    word = [(rng.randint(1, 31), rng.choice((1, -1))) for _ in range(20000)]
    for inverse in ("S{}", "s{}^-1"):  # the s/S form and the caret form
        terms = parse(" ".join(f"s{k}" if eps == 1 else inverse.format(k) for k, eps in word), 32).terms
        assert len(terms) == 20000
        assert len({id(term) for term in terms}) <= 2 * 31


@pytest.mark.parametrize("text", [f"s1^{'7' * 5000}", f"s{'7' * 5000}"], ids=["exponent", "index"])
def test_an_int_past_the_digit_limit_is_int_s_value_error_unless_the_caller_lifts_the_limit(text):
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)  # CPython's default
        with pytest.raises(ValueError, match="Exceeds the limit") as caught:
            parse(text, 3)
        assert type(caught.value) is ValueError
        sys.set_int_max_str_digits(0)  # as cli.main does
        if "^" in text:
            assert parse(text, 3).terms == ((("gen", 1, 1), int("7" * 5000)),)
        else:
            with pytest.raises(DomainError, match="out of range for n=3"):
                parse(text, 3)
    finally:
        sys.set_int_max_str_digits(limit)


def test_of_two_ints_past_the_digit_limit_in_one_run_the_first_in_the_text_is_named_under_every_hash_seed():
    # the run converts its distinct letters in set order, which PYTHONHASHSEED decides; a failed conversion
    # re-reads them in text order
    child = ("import sys\nfrom braidnil.expr import parse\nsys.set_int_max_str_digits(4300)\n"
             "try:\n    parse('s1^' + '7' * 5000 + ' s2^' + '7' * 6000, 3)\nexcept ValueError as e:\n    print(e)\n")
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONPATH=str(Path(expr.__file__).parents[1]), PYTHONHASHSEED=str(seed))
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "Exceeds the limit" in proc.stdout and "value has 5000 digits" in proc.stdout, (seed, proc.stdout)


def test_a_failed_letter_conversion_is_raised_even_if_the_text_order_re_read_passes(monkeypatch):
    # the re-read only picks which literal's error is raised; were it to find none, the first error still propagates
    calls = []

    def flaky(text, *base):
        calls.append(text)
        if len(calls) == 1:
            raise ValueError("the first conversion")
        return int(text, *base)

    monkeypatch.setattr(expr, "int", flaky, raising=False)
    with pytest.raises(ValueError, match="the first conversion"):
        parse("s1^5", 3)
    assert calls == ["1", "1", "5"]


@pytest.mark.parametrize("text, freezes", [
    ("s1 s2 A[1,3] S2 s3^2 a[1,2,4] s1^-3 s2^70 s3 s1 A[2,4]^-2", 1),
    ("", 1),
    ("s1 (s2 A[1,3])^2 s3 (a[1,2,4] (s1^70 s2)^-1)^3 S3", 4),
], ids=["flat", "empty", "nested"])
def test_an_expression_is_frozen_once_per_group(monkeypatch, text, freezes):
    # one working state per level: generator runs, coordinate atoms and powers past the run limit never freeze it
    element = parse(text, 4).element()
    calls = counted(monkeypatch, expr, "_freeze")
    assert parse(text, 4).element() == element
    assert calls[0] == freezes
