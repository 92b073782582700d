import operator
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobwdvv.exact import (
    EXACT_TYPES, SPLIT_MAX, Exact, ExactZeroDivision, as_exact_scalar, float_cast,
    nth_root_fraction, ratio, rational_power, sqrt_fraction,
)


def test_sqrt_normalizes_square_free():
    assert Exact.sqrt(12) == Exact({3: Fraction(2)})
    assert Exact.sqrt(49) == Exact({1: Fraction(7)})
    assert sqrt_fraction(Fraction(2, 3)) == Exact({6: Fraction(1, 3)})


def test_product_of_radicals():
    r2, r3 = Exact.sqrt(2), Exact.sqrt(3)
    assert r2 * r3 == Exact.sqrt(6)
    assert r2 * r2 == Exact({1: Fraction(2)})
    assert (r2 + 1) * (r2 - 1) == Exact({1: Fraction(1)})


def test_inverse_single_radical():
    x = Exact({6: Fraction(1, 3)})  # sqrt(2/3)
    assert x * x.inverse() == Exact({1: Fraction(1)})


def test_inverse_mixed_sum():
    x = Exact({1: Fraction(1)}) + Exact.sqrt(2) + Exact.sqrt(3)
    assert x * x.inverse() == Exact({1: Fraction(1)})
    with pytest.raises(ExactZeroDivision):
        Exact({}).inverse()


def test_float_value():
    assert abs(float(Exact.sqrt(2)) - 2 ** 0.5) < 1e-15


def test_as_exact_scalar_downgrades_rational():
    assert as_exact_scalar(Exact({1: Fraction(3, 4)})) == Fraction(3, 4)
    assert isinstance(as_exact_scalar(Exact.sqrt(5)), Exact)


@given(st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=4)),
       st.sampled_from([0, 1, 2, 6]), st.integers(1, 12))
def test_normal_form_and_ratio(q, rad, d):
    # an int exactly when integral, a Fraction when a proper rational, an Exact
    # only while a radical is left; ratio(c, d) is c / d in that form
    for x in (q, Fraction(q), Exact({1: Fraction(q)}), q * Exact.sqrt(rad)):
        got = as_exact_scalar(x)
        assert got == x and type(got) in EXACT_TYPES
        assert type(got) is not Fraction or got.denominator != 1
        assert type(got) is not Exact or not got.is_rational()
        assert ratio(got * d, d) == got and type(ratio(got * d, d)) is type(got)
    assert as_exact_scalar(1.5) == 1.5 and as_exact_scalar(2j) == 2j


# -- square-free splits up to SPLIT_MAX, and radicals joined without factoring

def square_free_part(sympy, n):
    return (sympy.prod(p for p, e in sympy.factorint(n).items() if e % 2),
            sympy.prod(p ** (e // 2) for p, e in sympy.factorint(n).items()))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(1, SPLIT_MAX),
                 # a cofactor past the cube root: two large primes, or one squared
                 st.tuples(st.integers(1, 30), st.sampled_from([99991, 100003, 31622743])).map(
                     lambda t: t[0] * t[1] ** 2).filter(lambda n: n <= SPLIT_MAX),
                 st.sampled_from([999999999999989, 99991 * 100003 * 97, 31622743 ** 2])))
def test_sqrt_splits_like_sympy(n):
    sympy = pytest.importorskip("sympy")
    m, s = square_free_part(sympy, n)
    assert sqrt_fraction(Fraction(n)) == Exact({int(m): Fraction(int(s))})
    assert sqrt_fraction(Fraction(1, n)) == Exact({int(m): Fraction(1, int(s) * int(m))})


def test_sqrt_above_the_split_bound_is_not_taken():
    with pytest.raises(ValueError, match="split bound"):
        sqrt_fraction(Fraction(SPLIT_MAX + 1))
    assert rational_power(Fraction(10 ** 28 + 57), Fraction(3, 2)) is None
    assert rational_power(Fraction(4 * (SPLIT_MAX + 1)), Fraction(1, 2)) is None
    # a perfect square needs no split, so it stays exact above the bound
    assert rational_power(Fraction((10 ** 28 + 57) ** 2), Fraction(3, 2)) == (10 ** 28 + 57) ** 3


def test_huge_radicands_multiply_and_invert_without_factoring():
    # two primes near 10^15 and their product, far past the bound: gcds alone
    p, q = 999999999999989, 999999999999947
    rp, rq = Exact({p: Fraction(1)}), Exact({q: Fraction(1)})
    assert rp * rq == Exact({p * q: Fraction(1)}) and rp * rp == p
    assert (rp * rq) * Exact({p * q * 6: Fraction(1)}) == p * q * Exact.sqrt(6)
    x = 1 + rp + rq + rp * rq
    assert x * x.inverse() == 1 and type(x * x.inverse()) is Fraction


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
        assert a * a.inverse() == Exact({1: Fraction(1)})


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


# -- mixed operands: Exact is the one scalar-dispatch layer --------------------

def downgraded(x):
    """x, with a rational Exact as its Fraction: the type rule of Exact's own operators,
    which give a Fraction (never an int) whenever the value is rational."""
    return x.as_fraction() if isinstance(x, Exact) and x.is_rational() else x


def ladder(op, a, b):
    """The per-call scalar dispatch that the closed-form, series, linear
    algebra and Legendre modules each did by hand, kept as the reference."""
    if isinstance(a, (float, complex)) or isinstance(b, (float, complex)):
        return op(complex(a), complex(b))
    if isinstance(a, Exact) or isinstance(b, Exact):
        ae = a if isinstance(a, Exact) else Exact({1: Fraction(a)})
        be = b if isinstance(b, Exact) else Exact({1: Fraction(b)})
        return downgraded(op(ae, be))
    if op is operator.truediv:
        return Fraction(a) / Fraction(b)
    return op(a, b)


@st.composite
def radical_sums(draw):
    """Sums over 1, sqrt 2, sqrt 3 and sqrt 6, rational or zero ones included."""
    return Exact({m: draw(small_rats) for m in draw(st.sets(st.sampled_from([1, 2, 3, 6])))})


operands = st.one_of(
    st.integers(-5, 5), small_rats, radical_sums(),
    st.sampled_from([Exact.sqrt(2), Exact.sqrt(3), Exact.sqrt(6)]),
    st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False),
    st.floats(-8, 8, allow_nan=False),
)


def rational_exact(x) -> bool:
    return isinstance(x, Exact) and x.is_rational()


@settings(max_examples=300, deadline=None)
@given(operands, operands, st.sampled_from([operator.add, operator.sub, operator.mul,
                                            operator.truediv]))
def test_operators_agree_with_the_ladders(a, b, op):
    if not (isinstance(a, Exact) or isinstance(b, Exact)):
        # Python's own operators: the float path carries complex values, and
        # int / int is a float, so callers write Fraction(1) / x
        if isinstance(a, float) or isinstance(b, float) or \
                (op is operator.truediv and isinstance(a, int) and isinstance(b, int)):
            return
    try:
        want = ladder(op, a, b)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(a, b)
        return
    got = op(a, b)
    assert got == want and type(got) is type(want)
    assert not rational_exact(got)


@settings(max_examples=100, deadline=None)
@given(st.one_of(radical_sums(), st.sampled_from([Exact.sqrt(2), Exact.sqrt(6)])),
       st.integers(-4, 4))
def test_powers_and_inverse_are_normalized(x, n):
    if not x:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    inv = x.inverse()
    assert not rational_exact(inv) and not rational_exact(-x)
    assert x * inv == 1 and type(x * inv) is Fraction
    want = Fraction(1)
    for _ in range(abs(n)):
        want = ladder(operator.mul, want, x if n > 0 else inv)
    got = x ** n
    assert got == want and type(got) is type(want)
    assert not rational_exact(got)


# -- rational_power: the one rule for exact powers ------------------------------

def sympy_scalar(sympy, c):
    if isinstance(c, Exact):
        return sum(sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(m)
                   for m, q in c.terms.items())
    return sympy.Rational(c.numerator, c.denominator)


@st.composite
def power_bases(draw):
    """Rationals, often perfect powers (so that a root exists), of either sign."""
    r = draw(st.fractions(min_value=-5, max_value=5, max_denominator=5))
    k = draw(st.integers(1, 6))
    return r ** k * draw(st.sampled_from([1, 1, 1, 2, Fraction(1, 3), Fraction(-3, 2)]))


@settings(max_examples=300, deadline=None)
@given(power_bases(), st.integers(-6, 6), st.integers(1, 6))
def test_rational_power_matches_sympy(c, p, d):
    sympy = pytest.importorskip("sympy")
    q = Fraction(p, d)
    if c == 0 and q < 0:
        with pytest.raises(ZeroDivisionError):
            rational_power(c, q)
        return
    cs, qs = sympy_scalar(sympy, c), sympy.Rational(q.numerator, q.denominator)
    # odd roots of negative rationals are the real ones; otherwise sympy's value
    if c < 0 and q.denominator % 2:
        want = sympy.real_root(cs, q.denominator) ** q.numerator
    else:
        want = cs ** qs
    got = rational_power(c, q)
    if got is None:
        # outside Q(sqrt 2, sqrt 3, ...): not real, or its square is irrational
        assert not (want.is_real and (want ** 2).is_rational)
        return
    assert sympy.expand(want - sympy_scalar(sympy, got)) == 0
    assert (type(got) is Fraction) == bool(want.is_rational)
    assert type(got) is Fraction or not got.is_rational()


@given(exacts(), st.integers(-4, 4), st.integers(1, 3))
def test_rational_power_of_radicals(x, n, d):
    # an Exact base takes every integer power, and a fractional one only
    # when it is rational
    if not x:
        return
    got = rational_power(x, n)
    assert got == downgraded(x) ** n and not rational_exact(got)
    half = Fraction(2 * n + 1, 2 * d)
    if isinstance(as_exact_scalar(x), Exact):
        assert rational_power(x, half) is None
    else:
        assert rational_power(x, half) == rational_power(x.as_fraction(), half)
    assert rational_power(1.5, 2) is None and rational_power(2j, 1) is None


def test_rational_power_examples():
    assert rational_power(Fraction(27, 8), Fraction(-2, 3)) == Fraction(4, 9)
    assert rational_power(Fraction(-8), Fraction(5, 3)) == -32
    assert rational_power(Fraction(4, 9), Fraction(1, 4)) == Exact({6: Fraction(1, 3)})
    assert rational_power(2, Fraction(3, 2)) == Exact({2: Fraction(2)})
    assert rational_power(2, Fraction(1, 3)) is None
    assert rational_power(-2, Fraction(1, 2)) is None
    assert type(rational_power(3, -2)) is Fraction


floats = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats())


@settings(max_examples=300, deadline=None)
@given(st.one_of(floats, st.builds(complex, floats, floats)),
       st.one_of(st.integers(-10 ** 6, 10 ** 6),
                 st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)))
def test_float_cast_gives_the_bits_of_the_fraction_fallback(z, x):
    """z * cast(x) and cast(x) * z have the type and bits of z * x and x * z, which
    `fractions` computes through its operator fallbacks; an exact z leaves x alone."""
    def value_bits(w):
        return type(w), struct.pack("<dd", w.real, w.imag)

    cast = float_cast(z)
    assert value_bits(z * cast(x)) == value_bits(z * x)
    assert value_bits(cast(x) * z) == value_bits(x * z)
    assert float_cast(Fraction(1, 3))(x) is x and float_cast(2)(x) is x
