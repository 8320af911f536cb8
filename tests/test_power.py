"""The class-2 power law in power, against plain squaring, and the group axioms, under Hypothesis."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidnil import core
from braidnil.core import (
    BraidWord,
    CommPart,
    DomainError,
    NilElement,
    Permutation,
    PurePart,
    collect,
    element_to_dict,
    identity,
    inv,
    mul,
    power,
    sigma,
)
from braidnil.expr import parse
from conftest import counted, elements, square_power


def same_n_elements(count: int):
    return st.integers(1, 8).flatmap(lambda n: st.tuples(*(elements(n) for _ in range(count))))


@settings(max_examples=150, deadline=None)
@given(st.one_of(elements(), elements(pure_only=True)), st.integers(-4, 6), st.sampled_from((0, 1, -1)))
def test_power_equals_squaring_near_multiples_of_the_permutation_order(a, s, rest):
    q = a.perm.order()
    m = s * q + rest % q  # r = 0, 1 or q - 1
    assert power(a, m) == square_power(a, m)


# permutation orders 7 (a 7-cycle at n = 7) and 28 (cycle type (7, 4) at n = 11), with pure and level-2 parts
SEVEN = parse("s1 s2^-1 s3 s4 s5^-1 s6 A[1,4]^2 A[3,7]^-1 a[2,4,6]", 7).element()
TWENTY_EIGHT = parse("s1 s2^-1 s3 s4^-1 s5 s6 s7^2 s8 s9^-1 s10 A[1,11]^2 a[3,7,11]", 11).element()
# and orders 1, 2, 4 and 8, where a^q is a square, with the identity permutation, so `_times` merges by it in place
BY_ORDER = {
    7: SEVEN,
    28: TWENTY_EIGHT,
    1: parse("A[1,3]^2 A[2,4]^-1 A[1,2] A[2,3]^3 a[1,2,4]", 4).element(),
    2: parse("s1 s3^-1 A[1,4]^2 A[2,3]^-1 a[1,3,4]^2", 5).element(),
    4: parse("s1 s2^-1 s3 A[1,4]^2 A[2,5]^-1 a[2,3,4]", 5).element(),
    8: parse("s1 s2^-1 s3 s4 s5^-1 s6 s7 A[2,8]^-1 A[1,5]^3 a[1,4,8]", 8).element(),
}


@pytest.mark.parametrize("q", BY_ORDER, ids=lambda q: f"q{q}")
def test_power_equals_squaring_at_every_residue(q):
    # every r, so a chain over a multi-bit r meets each branch of the power law: s = 0, 1, s >= 2 and negative
    a = BY_ORDER[q]
    assert a.perm.order() == q
    earlier = power(a, 2 * q + 1)
    a_before, earlier_before = element_to_dict(a), element_to_dict(earlier)
    for s in (0, 1, 2, 5, -3):
        for r in range(q):
            assert power(a, s * q + r) == square_power(a, s * q + r), (s, r)
            # neither the base nor an earlier result shares a dict with a later call's working states
            assert (element_to_dict(a), element_to_dict(earlier)) == (a_before, earlier_before), (s, r)
    assert earlier == square_power(a, 2 * q + 1)


@pytest.mark.parametrize("m, freezes, products", [
    (11, 1, 3 + 2),  # s = 0, r = 11: three squarings, a^r
    (28, 1, 4 + 2),  # s = 1, r = 0: four squarings, a^28 from a^4
    (67, 1, 4 + 2 + 2 + 1),  # s = 2, r = 11: a^28 from a^4, since from a^11 it takes as many (17 = 10001b)
    (167, 1, 4 + 3 + 1 + 1),  # s = 5, r = 27: a^28 is a^27 times a
    (-89, 2, 4 + 1 + 2 + 1),  # inv(a), then s = 3, r = 5: a^28 from a^4, since from a^5 it takes four (23 = 10111b)
    (0, 0, 0),
])
def test_power_freezes_once_and_chains_its_products(monkeypatch, m, freezes, products):
    # freezes: [m != 0] + [m < 0], for the result and inv; products: bit_length(top) - 1 squarings, top = q if s >= 1
    # else r, then popcount(r) - 1 for a^r, then for s >= 1 the fewer of popcount(q) - 1 and popcount(q - r) for a^q,
    # and one product a^r (a^q)^s when r > 0
    expected = power(TWENTY_EIGHT, m)
    freezes_made = counted(monkeypatch, core, "_freeze")
    products_made = counted(monkeypatch, core, "_times")
    assert power(TWENTY_EIGHT, m) == expected
    assert (freezes_made[0], products_made[0]) == (freezes, products)


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


@pytest.mark.parametrize("m", [2.0, True, False, 2.5, -1.0, "2", None], ids=repr)
def test_an_exponent_is_an_int(m):
    # a bool is not 1 and an integral float is not an int: both raise, as a non-integral one does
    with pytest.raises(DomainError, match=f"^exponent must be an int, got {m!r}$"):
        power(sigma(3, 1), m)
    with pytest.raises(DomainError, match=f"^exponent must be an int, got {m!r}$"):
        BraidWord(3, ((1, 1),)) ** m
