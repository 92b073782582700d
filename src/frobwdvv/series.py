"""Multivariate truncated power series anchored at an expansion center.

Coefficients are exact (Fraction/Exact) or numeric (float/complex); a series
is stored in the local offsets x_i = v_i - center_i.  Truncation is by total
degree, and arithmetic treats the cutoff as an ideal: a term is kept when the
sum of its exponents is at most floor(order).
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, reduce
from operator import mul, sub

from . import kernel
from .closedform import ClosedForm, Cutoff
from .exact import Exact, as_exact_scalar, rational_power, scalar_is_exact
from .linalg import SingularMatrixError, float_inv, mat_inv

__all__ = [
    "Grading", "TruncSeries", "SeriesMap",
    "SingularCenterError", "SingularJacobianError", "CenterMismatchError",
    "localize", "invert_map",
]
_EXACT = frozenset((int, Fraction, Exact))


class SingularCenterError(ArithmeticError):
    pass


class SingularJacobianError(ArithmeticError):
    pass


class CenterMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Grading:
    nvars: int
    order: Fraction

    @staticmethod
    def total_degree(nvars: int, order) -> "Grading":
        return Grading(nvars, Fraction(order))

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """Every variable has degree 1 (the weights recorded in series JSON)."""
        return tuple([Fraction(1)] * self.nvars)

    @cached_property
    def cutoff(self) -> int:
        """Largest kept total degree: floor(order)."""
        return math.floor(self.order)


class TruncSeries:
    """Series sum_idx c_idx * prod (v_i - center_i)^{idx_i} over idx of total
    degree <= order."""

    __slots__ = ("vars", "center", "coeffs", "grading", "_view")

    def __init__(self, vars: tuple[str, ...], center: tuple, coeffs: dict, grading: Grading,
                 _clean: bool = False):
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "center", tuple(center))
        object.__setattr__(self, "grading", grading)
        if _clean:
            object.__setattr__(self, "coeffs", coeffs)
            return
        clean = {}
        cut = grading.cutoff
        for idx, c in coeffs.items():
            if sum(idx) <= cut:
                c = as_exact_scalar(c)
                if c:
                    clean[idx] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("TruncSeries is immutable")

    # -- helpers -------------------------------------------------------
    @property
    def nvars(self) -> int:
        return len(self.vars)

    def is_exact(self) -> bool:
        return _EXACT.issuperset(map(type, self.coeffs.values()))

    def same_frame(self, other: "TruncSeries") -> bool:
        return (self.vars == other.vars and self.center == other.center
                and self.grading == other.grading)

    @staticmethod
    def constant(value, vars, center, grading) -> "TruncSeries":
        return TruncSeries(vars, center, {tuple([0] * len(vars)): value}, grading)

    @staticmethod
    def coordinate(i: int, vars, center, grading) -> "TruncSeries":
        """The local offset x_i (zero constant term)."""
        idx = tuple(int(j == i) for j in range(len(vars)))
        return TruncSeries(vars, center, {idx: Fraction(1)}, grading)

    def constant_term(self):
        return self.coeffs.get(tuple([0] * self.nvars), Fraction(0))

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries.signed_sum(((-1, self),))

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        """self + sign * other in one pass over the terms of other."""
        if isinstance(other, (int, Fraction, Exact, float, complex)):
            other = TruncSeries.constant(other, self.vars, self.center, self.grading)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return TruncSeries.signed_sum(((1, self), (sign, other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Exact, float, complex)):
            return TruncSeries.signed_sum(((other, self),))
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return TruncSeries.sum_of_products(((1, self, other),))

    @staticmethod
    def signed_sum(pairs) -> "TruncSeries":
        """The sum of scale * f over (scale, f) pairs in the frame of the first: by
        the kernel's `scaled_sum` when all is exact, else by the raw branch, which
        adds c or -c for an int scale of 1 or -1, as (-1) * z is not -z for -0.0."""
        (scale, frame), *rest = pairs
        if not all(f.same_frame(frame) for _, f in rest):
            raise CenterMismatchError("series frames differ")
        if all(type(k) in _EXACT and f.is_exact() for k, f in pairs):
            out = kernel.scaled_sum(pairs, "coeffs", _IndexKeys(frame.nvars, frame.grading.cutoff),
                                    _fraction)
        else:
            out = {}
            for k, f in pairs:
                sign = k if type(k) is int and k in (1, -1) else 0
                for idx, c in f.coeffs.items():
                    kernel.acc(out, idx, c if sign == 1 else -c if sign else k * c)
        return TruncSeries(frame.vars, frame.center, out, frame.grading, _clean=True)

    @staticmethod
    def sum_of_products(triples) -> "TruncSeries":
        """The sum of scale * f * g over (scale, f, g) triples in the frame of the first, cut at
        total degree: by `kernel.sum_of_products` when all is exact, else by the raw branch."""
        triples = list(triples)
        frame = triples[0][1]
        if not all(f.same_frame(frame) and g.same_frame(frame) for _, f, g in triples):
            raise CenterMismatchError("series frames differ")
        work = [(k, f, g) for k, f, g in triples if k and f.coeffs and g.coeffs]
        keys = _IndexKeys(frame.nvars, frame.grading.cutoff)
        cut = Cutoff(keys.degree, frame.grading.cutoff)
        if all(type(k) in _EXACT and f.is_exact() and g.is_exact() for k, f, g in work):
            return TruncSeries(frame.vars, frame.center, kernel.sum_of_products(
                [(k, kernel.view(f, "coeffs", None, keys), kernel.view(g, "coeffs", sum, keys))
                 for k, f, g in work], keys, _fraction, cut), frame.grading, _clean=True)
        out: dict = {}
        for k, f, g in work:
            _, left, _ = kernel.view(f, "coeffs", None, keys, raw=True)
            _, right, degrees = kernel.view(g, "coeffs", sum, keys, raw=True)
            for i1, c1 in left:
                c1 = c1 if k == 1 else c1 * k
                for i2, c2 in right[:bisect_right(degrees, cut.cap - keys.degree(i1))]:
                    kernel.acc(out, i1 + i2, c1 * c2)
        return TruncSeries(frame.vars, frame.center, {keys[i]: c for i, c in out.items()},
                           frame.grading, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return kernel.power(self, n, TruncSeries.constant(1, self.vars, self.center, self.grading))

    def diff(self, var: str) -> "TruncSeries":
        # one-to-one on indices, inside the cutoff, and c * k is normal and nonzero
        i = self.vars.index(var)
        return TruncSeries(self.vars, self.center,
                           {idx[:i] + (k - 1,) + idx[i + 1:]: c * k
                            for idx, c in self.coeffs.items() if (k := idx[i])},
                           self.grading, _clean=True)

    def truncate(self, order) -> "TruncSeries":
        g = Grading.total_degree(self.nvars, order)
        return TruncSeries(self.vars, self.center, dict(self.coeffs), g)

    def drop_low_degree(self, below) -> "TruncSeries":
        """Remove terms of total degree < below (e.g. modulo-quadratic compares)."""
        out = {i: c for i, c in self.coeffs.items() if sum(i) >= below}
        return TruncSeries(self.vars, self.center, out, self.grading, _clean=True)

    def homogeneous_part(self, deg) -> "TruncSeries":
        out = {i: c for i, c in self.coeffs.items() if sum(i) == deg}
        return TruncSeries(self.vars, self.center, out, self.grading, _clean=True)

    def max_abs_coeff(self) -> float:
        return max((abs(complex(c)) for c in self.coeffs.values()), default=0.0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.same_frame(other) and (self - other).is_zero()

    def evaluate(self, point: dict[str, complex]) -> complex:
        total = 0j
        offs = [complex(point[v]) - complex(c) for v, c in zip(self.vars, self.center)]
        for idx, c in self.coeffs.items():
            val = complex(c)
            for x, k in zip(offs, idx):
                val *= x ** k
            total += val
        return total

    def to_json_obj(self) -> dict:
        return {
            "vars": list(self.vars),
            "center": [str(c) for c in self.center],
            "grading": {"weights": [str(w) for w in self.grading.weights],
                        "order": str(self.grading.order)},
            "coeffs": [[list(i), str(c)] for i, c in sorted(self.coeffs.items())],
        }

    def __repr__(self):
        parts = [f"{c}*x^{idx}" for idx, c in sorted(self.coeffs.items())]
        return " + ".join(parts) if parts else "0"


@cache     # one packing per (variable count, cutoff)
class _IndexKeys(kernel.Keys):
    """Indices of n variables packed in base 2^b > cutoff, the total degree in a top field:
    within the cutoff no pair carries, and a key's degree is one shift."""

    def __init__(self, n: int, cutoff: int):
        self.n, self.cutoff, self.b = n, cutoff, max(cutoff, 1).bit_length()

    def pack(self, idx: tuple) -> int:
        if (d := sum(idx)) > self.cutoff or min(idx) < 0:
            raise OverflowError(f"index {idx} outside the cutoff {self.cutoff}")
        return sum(i << self.b * j for j, i in enumerate((*idx, d)))

    def unpack(self, k: int) -> tuple:
        return tuple(k >> self.b * j & (1 << self.b) - 1 for j in range(self.n))

    def degree(self, k: int) -> int:
        return k >> self.b * self.n


def _fraction(c, den: int):
    """A numerator over den, as a series keeps it: a Fraction, or an Exact."""
    return Fraction(c, den) if type(c) is int else c / den


@dataclass(frozen=True)
class SeriesMap:
    """Component series share source frame; constant terms are the target center.

    The products of offset powers (component minus constant term) are kept in
    a table that lives as long as the map, so every `compose` against it reuses
    them."""
    components: tuple[TruncSeries, ...]
    _basis: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def target_center(self):
        return tuple(c.constant_term() for c in self.components)

    def jacobian(self):
        """Linear-part matrix J[i][j] = d comp_i / d x_j at the center."""
        units = _units(self.components[0].nvars)
        return [[comp.coeffs.get(u, Fraction(0)) for u in units] for comp in self.components]

    def basis(self, idx: tuple) -> TruncSeries:
        """prod_i (component_i - its constant term)^idx_i.  Formed on first use
        and kept: an index of degree >= 2 costs one product, the entry with one
        less of its last variable times that variable's offset."""
        b = self._basis.get(idx)
        if b is None:
            i = max((j for j, k in enumerate(idx) if k), default=0)
            comp, unit = self.components[i], _units(len(idx))[i]
            if not any(idx):
                b = TruncSeries.constant(Fraction(1), comp.vars, comp.center, comp.grading)
            elif idx == unit:
                b = comp - comp.constant_term()
            else:
                b = self.basis(tuple(map(sub, idx, unit))) * self.basis(unit)
            self._basis[idx] = b
        return b


def compose(f: TruncSeries, m: SeriesMap) -> TruncSeries:
    """f after m; m's constant terms must match f's center."""
    if len(m.components) != f.nvars:
        raise CenterMismatchError("component count differs from variable count")
    for comp, c in zip(m.components, f.center):
        d = comp.constant_term() - c
        if isinstance(d, (float, complex)):
            if abs(complex(d)) > 1e-12:
                raise CenterMismatchError("map constant terms do not hit f's center")
        elif d:
            raise CenterMismatchError("map constant terms do not hit f's center")
    return TruncSeries.signed_sum([(c, m.basis(idx)) for idx, c in f.coeffs.items()]
                                  or [(0, m.components[0])])


def invert_map(m: SeriesMap) -> SeriesMap:
    """Compositional inverse of an analytic map with invertible linear part,
    built order by order in total degree."""
    frame = m.components[0]
    g = frame.grading
    n = len(m.components)
    if n != frame.nvars:
        raise CenterMismatchError("map must be square")
    jac = m.jacobian()
    exact = all(scalar_is_exact(x) for row in jac for x in row)
    try:
        jinv, det = (mat_inv(jac), 1) if exact else float_inv(jac)
    except SingularMatrixError:
        det = 0
    if abs(det) < 1e-13:
        raise SingularJacobianError("Jacobian is singular at the center" if exact
                                    else "Jacobian is numerically singular at the center")

    tgt_center = m.target_center()
    tgt_vars = tuple(f"y{i+1}" for i in range(n))

    # linear seed x = center_x + Jinv (y - y0); each degree's correction is
    # composed against it too
    lin_map = SeriesMap(tuple(
        TruncSeries(tgt_vars, tgt_center, {(0,) * n: frame.center[i]}
                    | {u: jinv[i][j] for j, u in enumerate(_units(n))}, g) for i in range(n)))
    comps = list(lin_map.components)
    # e_i = (comps_i o m) - center_i - x_i in the source frame, kept across
    # degrees: a correction P changes it by P o m (compose is linear in P)
    err = [compose(comps[i], m) - TruncSeries.coordinate(i, frame.vars, frame.center, g)
           - frame.center[i] for i in range(n)]
    for deg in range(2, g.cutoff + 1):
        for i in range(n):
            e = err[i].homogeneous_part(deg)
            if not e.is_zero():
                # correction: P_deg(y) = -e_deg composed with Jinv*(y - y0)
                p = compose(e, lin_map)
                comps[i] = comps[i] - p
                err[i] = err[i] - compose(p, m)
    return SeriesMap(tuple(comps))


def _units(n: int) -> tuple:
    """The exponent indices of the n offsets x_1, ..., x_n."""
    return tuple(tuple(int(k == j) for k in range(n)) for j in range(n))


def _offset_series(v: str, coefs: list, vars, center, grading: Grading) -> TruncSeries:
    """sum_j coefs[j] (v - c)^j, for a coefficient list already cut at the grading."""
    i, zero = vars.index(v), (0,) * len(vars)
    return TruncSeries(vars, center, {zero[:i] + (j,) + zero[i + 1:]: a
                                      for j, a in enumerate(coefs) if a}, grading, _clean=True)


def localize(f: ClosedForm, vars: tuple[str, ...], center: tuple,
             grading: Grading, memo: dict | None = None) -> TruncSeries:
    """Taylor-expand a closed form at a center, to the grading cutoff.

    Each factor of a monomial is written out as a series in its one offset
    x = v - c, from its known coefficients of x^j:

        (x + c)^q      c^q C(q, j) c^-j
        log(x + c)     log c, then (-1)^(j+1) / (j c^j)
        e^(e(x + c))   e^(ec) e^j / j!

    Every value is on the principal branch, as `ClosedForm.evaluate` takes
    it.  c^q is exact when `exact.rational_power` gives it and c > 0 or q is
    an integer, log c when c = 1 and e^(ec) when c = 0.  Any other value is
    a complex float, and the series then carries complex coefficients; there
    is no switch for this.

    `memo` maps each monomial to its expansion with unit coefficient at this
    one frame; callers that localize many forms at one frame share one dict,
    so each monomial is expanded once.
    """
    memo = {} if memo is None else memo
    for mono in f.terms:
        if mono not in memo:
            memo[mono] = _expand_monomial(mono, vars, center, grading)
    return TruncSeries.signed_sum([(c, memo[mono]) for mono, c in f.terms.items()]
                                  or [(0, TruncSeries(vars, center, {}, grading))])


def _expand_monomial(mono, vars, center, grading) -> TruncSeries:
    """The product of the series of a monomial's factors (see `localize`)."""
    cmap = dict(zip(vars, center))
    n = grading.cutoff
    factors = []
    for v, q in mono.powers:
        c = cmap[v]
        if abs(complex(c)) == 0:
            if q.denominator != 1 or q < 0:
                raise SingularCenterError(f"{v}^{q} at center {v}=0")
            factors.append(_offset_series(v, ([0] * int(q) + [Fraction(1)])[:n + 1],
                                          vars, center, grading))
            continue
        # a negative c has no real non-integer principal power
        cq = rational_power(c, q) if q.denominator == 1 or complex(c).real > 0 else None
        if cq is None:
            cq = cmath.exp(float(q) * cmath.log(complex(c)))
        inv, b = Fraction(1) / c, [Fraction(1)]
        for j in range(1, n + 1):
            b.append(b[-1] * inv * (q - j + 1) / j)
        factors.append(_offset_series(v, [cq * x for x in b], vars, center, grading))
    for v, k in mono.logs:
        c = cmap[v]
        if abs(complex(c)) == 0:
            raise SingularCenterError(f"log {v} at center {v}=0")
        inv = Fraction(1) / c
        coefs = [0 if c == 1 else cmath.log(complex(c))]
        coefs += [(-1) ** (j + 1) * inv ** j / j for j in range(1, n + 1)]
        factors.append(_offset_series(v, coefs, vars, center, grading) ** k)
    for v, e in mono.exps:
        c = cmap[v]
        try:
            e0 = Fraction(1) if scalar_is_exact(c) and not c else cmath.exp(float(e) * complex(c))
        except OverflowError:
            raise SingularCenterError(f"e^({e}{v}) overflows a float at center {v}={c}") from None
        u, w = Fraction(e).as_integer_ratio()
        coefs = [e0 * Fraction(u ** j, w ** j * math.factorial(j)) for j in range(n + 1)]
        factors.append(_offset_series(v, coefs, vars, center, grading))
    return reduce(mul, factors) if factors else \
        TruncSeries.constant(Fraction(1), vars, center, grading)
