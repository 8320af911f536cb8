"""The class-2 power law in power, against plain squaring, and the group axioms, under Hypothesis."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil.core import (
    BraidWord,
    CommPart,
    NilElement,
    Permutation,
    PurePart,
    collect,
    identity,
    inv,
    mul,
    power,
)
from conftest import elements, square_power


def same_n_elements(count: int):
    return st.integers(1, 8).flatmap(lambda n: st.tuples(*(elements(n) for _ in range(count))))


@settings(max_examples=150, deadline=None)
@given(st.one_of(elements(), elements(pure_only=True)), st.integers(-4, 6), st.sampled_from((0, 1, -1)))
def test_power_equals_squaring_near_multiples_of_the_permutation_order(a, s, rest):
    q = a.perm.order()
    m = s * q + rest % q  # r = 0, 1 or q - 1
    assert power(a, m) == square_power(a, m)


@settings(max_examples=30, deadline=None)
@given(st.one_of(elements(), elements(pure_only=True)), st.sampled_from((1, -1)))
def test_power_equals_squaring_at_a_huge_exponent(a, sign):
    m = sign * (10 ** 30 + 7)
    assert power(a, m) == square_power(a, m)


def test_pure_power_with_a_nonzero_bracket_term():
    # a = A[1,2] A[2,3] a[1,2,3]^2: merging v = A[1,2] + A[2,3] onto itself moves
    # A[1,2] past A[2,3], so B(v) = a[1,2,3]^-1 and a^s has 2s - C(s,2) there
    a = mul(collect(BraidWord(3, ((1, 1), (1, 1), (2, 1), (2, 1)))),
            NilElement(3, Permutation.identity(3), PurePart.zero(3), CommPart.from_map(3, {(1, 2, 3): 2})))
    for s in range(-5, 8):
        c = 2 * s - s * (s - 1) // 2
        assert power(a, s) == square_power(a, s)
        assert power(a, s).pure.as_map() == ({(1, 2): s, (2, 3): s} if s else {})
        assert power(a, s).comm.as_map() == ({(1, 2, 3): c} if c else {})


@settings(max_examples=120, deadline=None)
@given(elements(), st.integers(-40, 40), st.integers(-40, 40))
def test_power_adds_exponents(a, m, k):
    assert power(a, m + k) == mul(power(a, m), power(a, k))


@settings(max_examples=120, deadline=None)
@given(same_n_elements(3))
def test_group_axioms(xyz):
    x, y, z = xyz
    e = identity(x.n)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, e) == x == mul(e, x)
    assert mul(x, inv(x)) == e == mul(inv(x), x)
