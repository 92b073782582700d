from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from frobwdvv.exact import (
    Exact, ExactZeroDivision, as_exact_scalar, nth_root_fraction, sqrt_fraction,
)


def test_sqrt_normalizes_square_free():
    assert Exact.sqrt(12) == Exact({3: Fraction(2)})
    assert Exact.sqrt(49) == Exact({1: Fraction(7)})
    assert sqrt_fraction(Fraction(2, 3)) == Exact({6: Fraction(1, 3)})


def test_product_of_radicals():
    r2, r3 = Exact.sqrt(2), Exact.sqrt(3)
    assert r2 * r3 == Exact.sqrt(6)
    assert r2 * r2 == Exact.rational(2)
    assert (r2 + 1) * (r2 - 1) == Exact.rational(1)


def test_inverse_single_radical():
    x = Exact({6: Fraction(1, 3)})  # sqrt(2/3)
    assert x * x.inverse() == Exact.rational(1)


def test_inverse_mixed_sum():
    x = Exact.rational(1) + Exact.sqrt(2) + Exact.sqrt(3)
    assert x * x.inverse() == Exact.rational(1)
    with pytest.raises(ExactZeroDivision):
        Exact.zero().inverse()


def test_float_value():
    assert abs(float(Exact.sqrt(2)) - 2 ** 0.5) < 1e-15


def test_as_exact_scalar_downgrades_rational():
    assert as_exact_scalar(Exact.rational(Fraction(3, 4))) == Fraction(3, 4)
    assert isinstance(as_exact_scalar(Exact.sqrt(5)), Exact)


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def exacts(draw):
    terms = {}
    for m in draw(st.lists(st.sampled_from([1, 2, 3, 5, 6]), max_size=3)):
        terms[m] = draw(small_rats)
    return Exact(terms)


@given(exacts(), exacts(), exacts())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(exacts())
def test_field_inverse(a):
    if a:
        assert a * a.inverse() == Exact.rational(1)


def test_nth_root_of_huge_perfect_powers():
    assert nth_root_fraction(Fraction((10**20 + 1) ** 3), 3) == 10**20 + 1
    assert nth_root_fraction(Fraction(10**400), 2) == 10**200
    assert nth_root_fraction(Fraction(10**400 + 1), 2) is None
    assert nth_root_fraction(Fraction(3**90, 7**60), 30) == Fraction(27, 49)


def test_nth_root_of_negatives():
    assert nth_root_fraction(Fraction(-27, 8), 3) == Fraction(-3, 2)
    assert nth_root_fraction(Fraction(-(10**20 + 1) ** 5), 5) == -(10**20 + 1)
    assert nth_root_fraction(Fraction(-4), 2) is None
    assert nth_root_fraction(Fraction(-2), 3) is None


@given(st.fractions(max_denominator=10**30).filter(lambda q: abs(q) < 10**30),
       st.integers(1, 9))
def test_nth_root_inverts_power(q, d):
    assert nth_root_fraction(q ** d, d) == (abs(q) if d % 2 == 0 else q)
