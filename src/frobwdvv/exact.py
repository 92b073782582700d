"""Exact scalars: rationals extended by square roots of positive integers.

A value is a finite sum  sum_m  q_m * sqrt(m)  with q_m rational and m
square-free positive.  Products normalize via square-free factorization
(sqrt(a)*sqrt(b) = s*sqrt(m) with a*b = s^2 * m), so the set is a field.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["Exact", "ExactZeroDivision", "sqrt_fraction", "as_exact_scalar", "scalar_is_exact"]


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
    @staticmethod
    def _coerce(other) -> "Exact | None":
        if isinstance(other, Exact):
            return other
        if isinstance(other, (int, Fraction)):
            return Exact({1: Fraction(other)})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for m, q in o.terms.items():
            out[m] = out.get(m, Fraction(0)) + q
        return Exact(out)

    __radd__ = __add__

    def __neg__(self):
        return Exact({m: -q for m, q in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for m1, q1 in self.terms.items():
            for m2, q2 in o.terms.items():
                s, m = _square_free_split(m1 * m2)
                q = q1 * q2 * s
                if q:
                    out[m] = out.get(m, Fraction(0)) + q
        return Exact(out)

    __rmul__ = __mul__

    def _split_on(self, p: int) -> tuple["Exact", "Exact"]:
        """self = A + sqrt(p)*B with neither A nor B involving the prime p."""
        a: dict[int, Fraction] = {}
        b: dict[int, Fraction] = {}
        for m, q in self.terms.items():
            if m % p == 0:
                b[m // p] = q
            else:
                a[m] = q
        return Exact(a), Exact(b)

    def inverse(self) -> "Exact":
        if not self.terms:
            raise ExactZeroDivision("division by zero Exact")
        rads = [m for m in self.terms if m != 1]
        if not rads:
            return Exact({1: 1 / self.terms[1]})
        # pick a prime dividing some radical and rationalize it away
        m0 = rads[0]
        p = 2
        while m0 % p:
            p += 1
        a, b = self._split_on(p)
        denom = a * a - Exact.rational(p) * b * b
        return (a - Exact({p: Fraction(1)}) * b) * denom.inverse()

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = Exact.rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

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


def as_exact_scalar(x):
    """Normalize an exact scalar: Exact that is purely rational becomes Fraction."""
    if isinstance(x, Exact):
        return x.as_fraction() if x.is_rational() else x
    if isinstance(x, int):
        return Fraction(x)
    return x


def scalar_is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, Exact))
