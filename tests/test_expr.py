"""Expression grammar tests."""

from __future__ import annotations

import random

import pytest

from braidnil.core import DomainError, collect, comm_gen, identity, mul, power, pure_gen, sigma
from braidnil.expr import ExpressionError, format_terms, parse
from braidnil.torsion import delta, delta_word


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
    # only ASCII digits: int() rejects '²' and reads '٣' as 3
    for text, offset in (("s²", 1), ("s1^²", 3), ("s٣", 1)):
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


def test_generator_runs_equal_atom_by_atom_products():
    # exponents on both sides of the limit above which a generator power is raised by squaring
    rng = random.Random(41)
    n = 6
    for _ in range(40):
        atoms, expected = [], identity(n)
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.8:
                k, m = rng.randint(1, n - 1), rng.choice((1, -1, 0, 2, -3, 64, -65, 70))
                atoms.append(f"s{k}^{m}")
                expected = mul(expected, power(sigma(n, k), m))
            else:
                i, j = rng.sample(range(1, n + 1), 2)
                atoms.append(f"A[{i},{j}]")
                expected = mul(expected, pure_gen(n, i, j))
        assert parse(" ".join(atoms), n).element() == expected
    assert parse("s1^1000000000 s2", 3).element() == mul(power(sigma(3, 1), 10 ** 9), sigma(3, 2))
