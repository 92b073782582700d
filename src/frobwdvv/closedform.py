"""Exact closed forms: finite sums of generalized monomials.

A generalized monomial is a product of rational powers v^q, nonnegative
integer powers of log(v), and exponentials e^{c v} with rational c, over a
set of named variables.  Coefficients are int, Fraction or Exact (rational plus
square roots), in the normal form of `exact.normal_scalar`.  The ring is closed
under +, *, partial differentiation, and antidifferentiation for the shapes
that occur here (power, power times log^k, polynomial times exponential).

`evaluate` runs from a plan that each form builds once: its coefficients as complex, and its
terms' factors as keys (kind, variable, exponent) into a table {key: value} that the forms
evaluated at one point share, so each distinct factor is computed once per point.  A value has
the bits of the per-term loop: the same factors multiply in the same order, terms add in dict
order, v^n (n > 0) at v = 0 sets the running product to 0j, and a branch point raises alike.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from typing import Callable, Iterable, NamedTuple

from . import kernel
from .exact import Exact, normal_scalar, rational_power
from .kernel import acc as _acc, times as _times

__all__ = [
    "Mono", "Cutoff", "ClosedForm", "BranchPointError", "NotIntegrableError", "NeedsFloatError",
    "cf_var", "cf_mono",
]


class BranchPointError(ArithmeticError):
    """Evaluation requested at a log/power branch point."""


class NotIntegrableError(ArithmeticError):
    """Antiderivative leaves the closed-form ring."""


class NeedsFloatError(ArithmeticError):
    """Exact evaluation would leave the rational-radical field."""


class Mono(NamedTuple):
    """Sorted (variable, exponent) tuples.  Integral exponents are stored as
    int, so hashing and merging them stays in C; only proper rationals such as
    3/2 stay Fraction (equal values hash alike, so keys and text are the same)."""
    powers: tuple[tuple[str, int | Fraction], ...]
    logs: tuple[tuple[str, int], ...]
    exps: tuple[tuple[str, int | Fraction], ...]

    @staticmethod
    def make(powers=None, logs=None, exps=None) -> "Mono":
        def clean(d, cast):
            if not d:
                return ()
            items = [(v, cast(e)) for v, e in d.items() if e]
            return tuple(sorted(items))
        return Mono(clean(powers, _exponent), clean(logs, int), clean(exps, _exponent))

    def pow_of(self, var: str) -> int | Fraction:
        for v, e in self.powers:
            if v == var:
                return e
        return 0

    def log_of(self, var: str) -> int:
        for v, e in self.logs:
            if v == var:
                return e
        return 0

    def exp_of(self, var: str) -> int | Fraction:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def variables(self) -> set[str]:
        return {v for v, _ in self.powers} | {v for v, _ in self.logs} | {v for v, _ in self.exps}

    def sort_key(self):
        return (self.powers, self.logs, self.exps)


_ONE = Mono((), (), ())


class Cutoff(NamedTuple):
    """The truncation depth(m) <= cap, for a grading `depth` that is additive
    under monomial products: depth(m1 m2) = depth(m1) + depth(m2), where an
    exponent that cancels counts as 0.  Every grading that truncates here is a
    linear form in the exponents, so the kernel knows a product's depth before
    forming it."""
    depth: Callable[[Mono], int | Fraction]
    cap: int | Fraction

    def __call__(self, m: Mono) -> bool:
        return self.depth(m) <= self.cap


def _exponent(e) -> int | Fraction:
    """An exponent in normal form (`normal_scalar`): int when integral, else Fraction."""
    return e if type(e) is int else normal_scalar(Fraction(e))


def _shift(part: tuple, v: str, s: int) -> tuple:
    """A sorted (variable, exponent) tuple with s added to v's exponent, dropped at 0."""
    for i, (u, e) in enumerate(part):
        if u >= v:
            e = e + s if u == v else s
            return part[:i] + (((v, e if type(e) is int or e.denominator != 1 else e.numerator),)
                               if e else ()) + part[i + (u == v):]
    return part + ((v, s),)


_FIELD, _HALF = 32, 1 << 31    # bits of a packed exponent, and half its range


class _Rescale(Exception):
    """An exponent denominator that the packing's scale lacks."""


class _MonoKeys(kernel.Keys):
    """Monomials packed as ints: slot i, a (kind, variable) of the powers, logs or exps, holds
    the exponent times `scale` (the lcm of the exponent denominators met) as a signed field at
    bit _FIELD * i, within a quarter of its range, so that a product's field decodes uniquely."""
    slots: dict = {}        # (kind, variable): bit, shared by every packing

    def __init__(self, scale: int):
        self.scale = scale

    def pack(self, m: Mono) -> int:
        k = 0
        for kind, part in enumerate(m):
            for v, e in part:
                if (e := e * self.scale) != int(e):
                    raise _Rescale(self.scale * e.denominator)
                if not -_HALF < 2 * e < _HALF:
                    raise OverflowError(f"exponent {e}/{self.scale} of {v} in {m} too large")
                k += int(e) << self.slots.setdefault((kind, v), _FIELD * len(self.slots))
        return k

    def unpack(self, k: int) -> Mono:
        parts: tuple = ([], [], [])
        for kind, v in self.slots:
            e = (k + _HALF & 2 * _HALF - 1) - _HALF     # the low field, signed
            k = (k - e) >> _FIELD
            if e:
                parts[kind].append((v, e // self.scale if e % self.scale == 0
                                    else Fraction(e, self.scale)))
        return Mono(*(tuple(sorted(p)) for p in parts))


_KEYS = _MonoKeys(1)    # the packing in use


def _packed(run: Callable):
    """run(keys) under the packing in use, again under a wider one while the kernel meets an
    exponent denominator new to it, which it does before it sums anything."""
    global _KEYS
    while True:
        try:
            return run(_KEYS)
        except _Rescale as new:
            _KEYS = _MonoKeys(*new.args)


class _Zero:
    """The factor v^n (n > 0 integral) at v = 0: it sets the running product to 0j, and the
    term's later factors multiply on."""

    def __rmul__(self, val):
        return 0j


_ZERO = _Zero()


def _factor(key: tuple, point: dict):
    """The value of the factor `key` at the point; raises BranchPointError at a branch point."""
    kind, v, q = key
    z = complex(point[v])
    if kind == 2:
        return cmath.exp(float(q) * z)
    if z == 0:
        if kind == 0 and q.denominator == 1 and q > 0:
            return _ZERO
        raise BranchPointError(f"log {v} at {v}=0" if kind else f"{v}^{q} at {v}=0")
    if kind == 1:
        return cmath.log(z) ** q
    return z ** int(q) if q.denominator == 1 else cmath.exp(float(q) * cmath.log(z))


def _ratio(c, d: int):
    """The numerator c (int, Fraction or Exact) over the int d > 0, in normal form."""
    if type(c) is int:
        return c // d if c % d == 0 else Fraction(c, d)
    return normal_scalar(c / d)


class ClosedForm:
    """Immutable normal-form sum {monomial: coefficient}; zero coeffs dropped."""

    __slots__ = ("terms", "_view", "_plan")

    def __init__(self, terms: dict[Mono, object] | None = None, _clean: bool = False):
        if _clean:
            object.__setattr__(self, "terms", terms or {})
            return
        clean: dict[Mono, object] = {}
        if terms:
            for m, c in terms.items():
                c = normal_scalar(c)
                if c:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ClosedForm is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "ClosedForm":
        return ClosedForm({})

    @staticmethod
    def const(c) -> "ClosedForm":
        return ClosedForm({_ONE: c})

    # -- basic ring ops ------------------------------------------------
    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return ClosedForm({m: -c for m, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        """self + sign * other in one pass over the terms of other."""
        if isinstance(other, (int, Fraction, Exact)):
            other = ClosedForm.const(other)
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return ClosedForm.signed_sum(((1, self), (sign, other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Exact)):
            return ClosedForm.signed_sum(((other, self),))
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return ClosedForm.sum_of_products(((1, self, other),))

    @staticmethod
    def signed_sum(pairs) -> "ClosedForm":
        """The sum of scale * f over (scale, f) pairs, scales exact (`kernel.scaled_sum`)."""
        pairs = list(pairs)
        return ClosedForm(_packed(lambda keys: kernel.scaled_sum(pairs, "terms", keys, _ratio)),
                          _clean=True)

    @staticmethod
    def sum_of_products(triples: Iterable[tuple], cut: Cutoff | None = None) -> "ClosedForm":
        """The sum of scale * f * g over (scale, f, g) triples (`kernel.sum_of_products`)."""
        depth = cut.depth if cut else None
        triples = [(scale, f, g) for scale, f, g in triples if scale and f.terms and g.terms]
        return ClosedForm(_packed(lambda keys: kernel.sum_of_products(
            [(scale, kernel.view(f, "terms", depth, keys), kernel.view(g, "terms", depth, keys))
             for scale, f, g in triples], keys, _ratio, cut)), _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ClosedForm":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self.terms) == 1:
                return self.mono_pow(Fraction(n))
            raise NotIntegrableError("negative power of a non-monomial closed form")
        return kernel.power(self, n, ClosedForm.const(1))

    def mono_pow(self, q: Fraction) -> "ClosedForm":
        """Raise a single-monomial form (no logs) to a rational power."""
        if len(self.terms) != 1:
            raise ValueError("mono_pow needs a single-term form")
        (m, c), = self.terms.items()
        if m.logs:
            raise ValueError("mono_pow cannot handle log factors")
        q = Fraction(q)
        cq = rational_power(c, q)
        if cq is None:
            raise NeedsFloatError(f"cannot take exact power {q} of coefficient {c}")
        mono = Mono.make({v: e * q for v, e in m.powers}, None,
                         {v: e * q for v, e in m.exps})
        return ClosedForm({mono: cq})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Exact)):
            other = ClosedForm.const(other)
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(tuple(sorted((m, str(c)) for m, c in self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for m in self.terms:
            out |= m.variables()
        return out

    def constant_term(self):
        return self.terms.get(_ONE, 0)

    def filter(self, keep: Callable[[Mono], bool]) -> "ClosedForm":
        return ClosedForm({m: c for m, c in self.terms.items() if keep(m)}, _clean=True)

    # -- calculus -------------------------------------------------------
    def diff(self, var: str) -> "ClosedForm":
        d0, items, _ = kernel.view(self, "terms")
        out: dict[Mono, object] = {}
        for m, c in items:
            q = m.pow_of(var)
            k = m.log_of(var)
            e = m.exp_of(var)
            if q or k:
                shifted = _shift(m.powers, var, -1)
                if q:
                    _acc(out, Mono(shifted, m.logs, m.exps), c * q)
                if k:
                    _acc(out, Mono(shifted, _shift(m.logs, var, -1), m.exps), c * k)
            if e:
                _acc(out, m, c * e)
        return ClosedForm({m: _ratio(c, d0) for m, c in out.items() if c}, _clean=True)

    def diff_multi(self, variables: Iterable[str]) -> "ClosedForm":
        f = self
        for v in variables:
            f = f.diff(v)
        return f

    def antiderivative(self, var: str) -> "ClosedForm":
        """Formal antiderivative in var (no integration constant)."""
        out: dict[Mono, object] = {}
        for m, c in self.terms.items():
            q = m.pow_of(var)
            if q == -1 or m.log_of(var) or m.exp_of(var):
                for m2, c2 in _integrate_term(m, c, var).terms.items():
                    _acc(out, m2, c2)
            else:   # the pure power c v^q, written directly
                _acc(out, Mono(_shift(m.powers, var, 1), m.logs, m.exps), c / Fraction(q + 1))
        return ClosedForm(out)

    def euler_residual(self, field: dict[str, tuple], weight) -> "ClosedForm":
        """E f - weight * f for E = sum_v (d_v v + r_v) d/dv, field = {v: (d_v, r_v)}, in one
        pass: v^q log^k e^{cv} goes to itself times d q + r c, and to r q v^{q-1},
        d k log^{k-1}, r k v^{q-1} log^{k-1} and d c v^{q+1} (times the rest of the term)."""
        d0, items, _ = kernel.view(self, "terms")
        lam = lcm(*(getattr(x, "denominator", 1) for x in (weight, *sum(field.values(), ()))))
        field = {v: (_times(d, lam), _times(r, lam)) for v, (d, r) in field.items()}
        neg_weight = -_times(weight, lam)
        out: dict[Mono, object] = {}
        for m, c in items:
            powers, logs, exps = m
            w = neg_weight
            for v, q in powers:
                d, r = field.get(v, (0, 0))
                w += d * q
                if r:
                    _acc(out, Mono(_shift(powers, v, -1), logs, exps), c * (r * q))
            for v, k in logs:
                d, r = field.get(v, (0, 0))
                down = _shift(logs, v, -1)
                _acc(out, Mono(powers, down, exps), c * (d * k))
                _acc(out, Mono(_shift(powers, v, -1), down, exps), c * (r * k))
            for v, e in exps:
                d, r = field.get(v, (0, 0))
                w += r * e
                if d:
                    _acc(out, Mono(_shift(powers, v, 1), logs, exps), c * (d * e))
            _acc(out, m, c * w)
        return ClosedForm({m: _ratio(c, d0 * lam) for m, c in out.items() if c}, _clean=True)

    # -- evaluation -------------------------------------------------------
    def evaluate(self, point: dict[str, complex], factors: dict | None = None) -> complex:
        """Numeric evaluation, principal branches (cmath conventions), from the form's plan;
        `factors` is the point's factor table, shared by the forms evaluated there."""
        if (plan := getattr(self, "_plan", None)) is None:
            firsts: dict = {}
            terms = [(complex(c), tuple(firsts.setdefault((kind, v, e), len(firsts))
                                        for kind, part in enumerate(m) for v, e in part))
                     for m, c in self.terms.items()]
            object.__setattr__(self, "_plan", plan := (tuple(firsts), terms))
        order, terms = plan
        factors = {} if factors is None else factors
        vals = []
        for key in order:
            if (f := factors.get(key)) is None:
                f = factors[key] = _factor(key, point)
            vals.append(f)
        total = 0j
        for c, idx in terms:
            for i in idx:
                c *= vals[i]
            total += c
        return total

    def evaluate_exact(self, point: dict[str, Fraction]):
        """Exact evaluation; raises NeedsFloatError outside the radical field."""
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v, q in m.powers:
                z = Fraction(point[v])
                if z == 0:
                    if q.denominator == 1 and q > 0:
                        val = Fraction(0)
                        continue
                    raise BranchPointError(f"{v}^{q} at {v}=0")
                # v^q is on the principal branch, which is not real at z < 0
                zq = rational_power(z, q) if z > 0 or q.denominator == 1 else None
                if zq is None:
                    raise NeedsFloatError(f"{v}^{q} at {v}={z}")
                val = val * zq
            for v, k in m.logs:
                if Fraction(point[v]) == 1:
                    val = Fraction(0)
                else:
                    raise NeedsFloatError(f"log {v} at {v}={point[v]}")
            for v, e in m.exps:
                if e * Fraction(point[v]) != 0:
                    raise NeedsFloatError(f"exp({e}{v}) at {v}={point[v]}")
            total = total + val
        return total

    def substitute_monomials(self, table: dict[str, "ClosedForm"]) -> "ClosedForm":
        """Substitute vars by closed forms; non-integer powers and exp/log factors
        require the replacement to be a single log-free monomial."""
        out = ClosedForm.zero()
        for m, c in self.terms.items():
            term = ClosedForm.const(c)
            for v, q in m.powers:
                if v not in table:
                    term = term * ClosedForm({Mono.make({v: q}): Fraction(1)})
                    continue
                g = table[v]
                if q.denominator == 1 and q >= 0:
                    term = term * g ** int(q)
                else:
                    term = term * g.mono_pow(q)
            for v, k in m.logs:
                if v in table:
                    raise NotIntegrableError(f"cannot substitute into log {v}")
                term = term * ClosedForm({Mono.make(None, {v: k}): Fraction(1)})
            for v, e in m.exps:
                if v in table:
                    raise NotIntegrableError(f"cannot substitute into exp factor of {v}")
                term = term * ClosedForm({Mono.make(None, None, {v: e}): Fraction(1)})
            out = out + term
        return out

    # -- serialization ----------------------------------------------------
    def to_json_obj(self) -> dict:
        entries = []
        for m in sorted(self.terms, key=Mono.sort_key):
            c = self.terms[m]
            comps = c.terms.items() if isinstance(c, Exact) else [(1, Fraction(c))]
            for rad, q in sorted(comps):
                entries.append({
                    "coeff": f"{q.numerator}/{q.denominator}",
                    "radical": rad,
                    "powers": {v: str(e) for v, e in m.powers},
                    "logs": {v: e for v, e in m.logs},
                    "exps": {v: str(e) for v, e in m.exps},
                })
        return {"terms": entries}

    @staticmethod
    def from_json_obj(obj: dict) -> "ClosedForm":
        out: dict[Mono, object] = {}
        for t in obj["terms"]:
            m = Mono.make({v: Fraction(e) for v, e in t.get("powers", {}).items()},
                          {v: int(e) for v, e in t.get("logs", {}).items()},
                          {v: Fraction(e) for v, e in t.get("exps", {}).items()})
            _acc(out, m, Exact({int(t.get("radical", 1)): Fraction(t["coeff"])}))
        return ClosedForm(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=Mono.sort_key):
            c = self.terms[m]
            bits = [f"({c})"]
            for v, e in m.powers:
                bits.append(f"{v}^{e}" if e != 1 else v)
            for v, e in m.logs:
                bits.append(f"log({v})^{e}" if e != 1 else f"log({v})")
            for v, e in m.exps:
                bits.append(f"e^({e}{v})")
            parts.append("*".join(bits))
        return " + ".join(parts)


def _integrate_term(m: Mono, c, var: str) -> ClosedForm:
    q = m.pow_of(var)
    k = m.log_of(var)
    e = m.exp_of(var)
    powers, logs, exps = ({v: p for v, p in part if v != var} for part in m)
    if e and (k or q < 0 or q.denominator != 1):
        raise NotIntegrableError(f"cannot integrate {var}^{q} log^{k} e^({e}{var})")
    if q == -1:
        return ClosedForm({Mono.make(powers, {**logs, var: k + 1}, exps): c * Fraction(1, k + 1)})
    # repeated integration by parts, summed: with a = e, x^n e^{ax} integrates to
    # sum_j (-1)^(n-j) n!/j! a^(j-n-1) x^j e^{ax}; with a = q + 1 and n = k,
    # x^q log^n x integrates to the same sum over x^{q+1} log^j x (each term
    # times c and the rest of m, written directly rather than as a product)
    n, a = (int(q), e) if e else (k, q + 1)
    terms = {}
    coeff = c * (Fraction(1) / a)
    for j in range(n, -1, -1):
        mono = Mono.make({**powers, var: j}, logs, {**exps, var: e}) if e else \
            Mono.make({**powers, var: q + 1}, {**logs, var: j}, exps)
        terms[mono] = coeff
        coeff = -coeff * j / a
    return ClosedForm(terms)


# -- convenience builders --------------------------------------------------

def cf_var(name: str, power=1) -> ClosedForm:
    return ClosedForm({Mono.make({name: Fraction(power)}): Fraction(1)})


def cf_mono(coeff, powers=None, logs=None, exps=None) -> ClosedForm:
    return ClosedForm({Mono.make(powers, logs, exps): coeff})


def mono_exp_degree(m: Mono) -> int | Fraction:
    """Sum of exponential multipliers of a monomial (grading for truncated specs)."""
    return sum(e for _, e in m.exps)


def equal_mod_quadratic(f: ClosedForm, g: ClosedForm, variables: Iterable[str],
                        keep: Callable[[Mono], bool] | None = None) -> bool:
    """True iff all third partials of f - g vanish (optionally after a filter)."""
    d = f - g
    for trip in combinations_with_replacement(sorted(set(variables)), 3):
        third = d.diff_multi(trip)
        if keep is not None:
            third = third.filter(keep)
        if not third.is_zero():
            return False
    return True
