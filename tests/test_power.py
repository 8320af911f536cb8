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


@pytest.mark.parametrize("a", [SEVEN, TWENTY_EIGHT], ids=["q7", "q28"])
def test_power_equals_squaring_at_every_residue(a):
    # every r, so a chain over a multi-bit r meets each branch of the power law: s = 0, 1, s >= 2 and negative
    q = a.perm.order()
    assert q in (7, 28)
    for s in (0, 1, 2, 5, -3):
        for r in range(q):
            assert power(a, s * q + r) == square_power(a, s * q + r), (s, r)


@pytest.mark.parametrize("m, freezes", [
    (11, 4),  # s = 0: three squares, a^11
    (28, 5),  # s = 1: four squares, a^28
    (67, 6),  # s = 2, r = 11: four squares, (a^28)^2, a^11 (a^28)^2
    (167, 6),  # s = 5, r = 27
    (-89, 7),  # inv(a), then s = 3, r = 5
    (0, 0),
])
def test_power_freezes_once_per_square_and_once_per_result(monkeypatch, m, freezes):
    # max(0, bit_length - 1) + [s >= 1] + [r != 0] + [m < 0], bit_length that of q if s >= 1, else of r
    expected = power(TWENTY_EIGHT, m)
    calls = counted(monkeypatch, core, "_freeze")
    assert power(TWENTY_EIGHT, m) == expected
    assert calls[0] == freezes


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
