"""Expression grammar tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil.core import DomainError, collect, comm_gen, identity, mul, power, pure_gen, sigma
from braidnil.expr import ExpressionError, parse
from braidnil.torsion import delta, delta_word
from conftest import format_terms


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
