"""Exact scalars: rationals extended by square roots of positive integers.

A value is a finite sum  sum_m  q_m * sqrt(m)  with q_m rational and m
square-free positive.  Products normalize via square-free factorization
(sqrt(a)*sqrt(b) = s*sqrt(m) with a*b = s^2 * m), so the set is a field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul, sub, truediv

__all__ = ["Exact", "ExactZeroDivision", "sqrt_fraction", "nth_root_fraction", "rational_power",
           "as_exact_scalar", "normal_scalar", "scalar_is_exact"]


class ExactZeroDivision(ZeroDivisionError):
    pass


def _square_free_split(n: int) -> tuple[int, int]:
    """n = s^2 * m with m square-free; returns (s, m) for n >= 1."""
    s, m = 1, 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            m *= d
        d += 1 if d == 2 else 2
    return s, m * n


def _iroot(n: int, d: int) -> int:
    """Floor of the d-th root of an integer n >= 0, in integer arithmetic."""
    if n < 2:
        return n
    if d == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // d)    # 2^ceil(bits/d) is above the root
    while True:                         # Newton steps fall monotonically to the floor
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def nth_root_fraction(q: Fraction, d: int) -> Fraction | None:
    """Exact rational d-th root of a rational, or None if it is irrational."""
    if d <= 0:
        raise ValueError("root index must be positive")
    if q == 0:
        return Fraction(0)
    sign = 1
    if q < 0:
        if d % 2 == 0:
            return None
        sign, q = -1, -q
    a = _iroot(q.numerator, d)
    b = _iroot(q.denominator, d)
    if a ** d != q.numerator or b ** d != q.denominator:
        return None
    return Fraction(sign * a, b)


def sqrt_fraction(q: Fraction) -> "Exact":
    """Exact square root of a nonnegative rational: sqrt(p/q) = sqrt(p*q)/q."""
    if q < 0:
        raise ValueError("sqrt of negative rational is not representable")
    if q == 0:
        return Exact.zero()
    n = q.numerator * q.denominator
    s, m = _square_free_split(n)
    return Exact({m: Fraction(s, q.denominator)})


def rational_power(c, q):
    """c**q for an exact scalar c and a rational q, as a Fraction or an Exact,
    or None when the value leaves the rational-radical field.

    This is the one rule for exact powers.  An integer q takes any exact c.  A
    q = p/d with d > 1 takes a rational c only: the rational d-th root of c
    (the real one for a negative c and an odd d) to the power p, or, for an
    even d and c > 0, the square root of the rational (d/2)-th root to the
    power p; d = 2 is the square-root case.  Every other case gives None.
    """
    if not scalar_is_exact(c):
        return None
    c, q = as_exact_scalar(c), Fraction(q)
    p, d = q.numerator, q.denominator
    if d == 1:
        return c ** p
    if isinstance(c, Exact):
        return None
    root = nth_root_fraction(c, d)
    if root is not None:
        return root ** p
    if d % 2 == 0 and c > 0 and (root := nth_root_fraction(c, d // 2)) is not None:
        return sqrt_fraction(root) ** p
    return None


class Exact:
    """Immutable element of Q(sqrt(m1), sqrt(m2), ...)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for m, q in terms.items():
                if q:
                    clean[m] = Fraction(q)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Exact is immutable")

    # -- constructors ------------------------------------------------
    @staticmethod
    def zero() -> "Exact":
        return Exact({})

    @staticmethod
    def rational(q) -> "Exact":
        return Exact({1: Fraction(q)})

    @staticmethod
    def sqrt(n) -> "Exact":
        return sqrt_fraction(Fraction(n))

    # -- predicates / conversions ------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(m == 1 for m in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is irrational")
        return self.terms.get(1, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __complex__(self) -> complex:
        return complex(float(self))

    def __float__(self) -> float:
        total = 0.0
        for m, q in self.terms.items():
            total += float(q) * m ** 0.5
        return total

    # -- arithmetic ---------------------------------------------------
    # Operands may be int, Fraction, Exact, float or complex.  A float or
    # complex operand makes the result complex (both sides are converted
    # first).  Otherwise the result is exact and normalized: a Fraction
    # whenever it is rational, an Exact only when a radical is left.
    def __add__(self, other):
        o = _terms(other)
        if o is None:
            return _inexact(add, self, other)
        return _sum(self.terms, o)

    __radd__ = __add__

    def __neg__(self):
        return _normal({m: -q for m, q in self.terms.items()})

    def __sub__(self, other):
        o = _terms(other)
        if o is None:
            return _inexact(sub, self, other)
        return _sum(self.terms, {m: -q for m, q in o.items()})

    def __rsub__(self, other):
        o = _terms(other)
        if o is None:
            return _inexact(sub, other, self)
        return _sum(o, {m: -q for m, q in self.terms.items()})

    def __mul__(self, other):
        o = _terms(other)
        if o is None:
            return _inexact(mul, self, other)
        # sqrt(m1)*sqrt(m2) = s*sqrt(m) with m1*m2 = s^2*m
        out: dict[int, Fraction] = {}
        for m1, q1 in self.terms.items():
            for m2, q2 in o.items():
                s, m = _square_free_split(m1 * m2)
                out[m] = out.get(m, Fraction(0)) + q1 * q2 * s
        return _normal({m: q for m, q in out.items() if q})

    __rmul__ = __mul__

    def inverse(self):
        return _invert(self.terms)

    def __truediv__(self, other):
        o = _terms(other)
        if o is None:
            return _inexact(truediv, self, other)
        return self * _invert(o)

    def __rtruediv__(self, other):
        o = _terms(other)
        if o is None:
            return _inexact(truediv, other, self)
        return _invert(self.terms) * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return _invert(self.terms) ** (-n)
        out = Fraction(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = _terms(other)
        if o is None:
            return NotImplemented
        return self.terms == o

    def __hash__(self):
        if self.is_rational():
            return hash(self.terms.get(1, Fraction(0)))
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            q = self.terms[m]
            parts.append(str(q) if m == 1 else f"{q}*sqrt({m})")
        return " + ".join(parts)


def _terms(x) -> dict | None:
    """The {radicand: coefficient} terms of an exact operand, else None."""
    if isinstance(x, Exact):
        return x.terms
    if isinstance(x, Fraction):
        return {1: x} if x else {}
    if isinstance(x, int):
        return {1: Fraction(x)} if x else {}
    return None


def _inexact(op, a, b):
    """op on complex values when an operand is float or complex."""
    if isinstance(a, (float, complex)) or isinstance(b, (float, complex)):
        return op(complex(a), complex(b))
    return NotImplemented


def _normal(terms: dict):
    """The value of terms with nonzero Fraction coefficients: a Fraction
    when no radical is left, else an Exact that takes over the dict."""
    if not terms:
        return Fraction(0)
    if len(terms) == 1 and 1 in terms:
        return terms[1]
    out = object.__new__(Exact)
    object.__setattr__(out, "terms", terms)
    return out


def _sum(a: dict, b: dict):
    out = dict(a)
    for m, q in b.items():
        s = out.get(m, Fraction(0)) + q
        if s:
            out[m] = s
        else:
            del out[m]
    return _normal(out)


def _invert(terms: dict):
    if not terms:
        raise ExactZeroDivision("division by zero Exact")
    rads = [m for m in terms if m != 1]
    if not rads:
        return 1 / terms[1]
    # pick a prime dividing some radical and rationalize it away:
    # x = a + sqrt(p)*b with neither a nor b involving p
    m0 = rads[0]
    p = 2
    while m0 % p:
        p += 1
    a = _normal({m: q for m, q in terms.items() if m % p})
    b = _normal({m // p: q for m, q in terms.items() if m % p == 0})
    denom = a * a - p * b * b
    return (a - Exact({p: Fraction(1)}) * b) * (Fraction(1) / denom)


def as_exact_scalar(x):
    """Normalize an exact scalar: Exact that is purely rational becomes Fraction."""
    if isinstance(x, Exact):
        return x.as_fraction() if x.is_rational() else x
    if isinstance(x, int):
        return Fraction(x)
    return x


def normal_scalar(x):
    """Normal form of closed-form coefficients and exponents: int when integral, Fraction
    when a proper rational, Exact only while a radical is left; others pass through."""
    t = type(x)
    if t is Fraction:
        return x if x.denominator != 1 else x.numerator
    if t is Exact and x.is_rational():
        return normal_scalar(x.as_fraction())
    return x


def scalar_is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, Exact))
