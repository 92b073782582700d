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
from functools import cached_property, reduce
from operator import add, mul, sub

from .closedform import ClosedForm, _times
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
        object.__setattr__(self, "_view", None)
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

    def _kernel_view(self, ordered: bool, raw: bool) -> tuple:
        """The kernels' view (D, items, degrees), built once and cached in `_view`:
        (idx, c * D) over D, the lcm of the rational denominators (an Exact c is
        carried as the Exact c * D), or, `raw`, (idx, c) over D = 1; in dict
        order (degrees None) or, `ordered`, stably by degree with the degrees."""
        if raw and not ordered:
            return 1, self.coeffs.items(), None
        if self._view is None:
            object.__setattr__(self, "_view", {})
        view = self._view.get((ordered, raw))
        if view is None:
            if ordered:
                d, items, _ = self._kernel_view(False, raw)
                items = sorted(items, key=lambda t: sum(t[0]))
                view = (d, items, [sum(i) for i, _ in items])
            else:
                d = math.lcm(*[c.denominator for c in self.coeffs.values() if type(c) is Fraction])
                view = (d, [(i, _times(c, d)) for i, c in self.coeffs.items()], None)
            self._view[(ordered, raw)] = view
        return view

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
            return _linear([(other, self)], self.vars, self.center, self.grading)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return TruncSeries.sum_of_products(((1, self, other),))

    @staticmethod
    def signed_sum(pairs) -> "TruncSeries":
        """The sum of sign * f over (sign, f) pairs, sign +1 or -1, in one dict.
        Every series must share the frame of the first."""
        (sign, frame), *rest = pairs
        out = dict(frame.coeffs) if sign > 0 else {i: -c for i, c in frame.coeffs.items()}
        for sign, f in rest:
            if not f.same_frame(frame):
                raise CenterMismatchError("series frames differ")
            for idx, c in f.coeffs.items():
                prev, c = out.get(idx), c if sign > 0 else -c
                s = c if prev is None else prev + c
                if s:
                    out[idx] = s
                elif prev is not None:
                    del out[idx]
        return TruncSeries(frame.vars, frame.center, out, frame.grading, _clean=True)

    @staticmethod
    def sum_of_products(triples) -> "TruncSeries":
        """The sum of scale * f * g over one or more (scale, f, g) triples, built
        in one dict over the views (see `_fold`); a left term of degree d walks
        g's terms by degree up to cutoff - d only.  Every series must share the
        frame of the first."""
        work, frame = [], None
        for scale, f, g in triples:
            if frame is None:
                frame = f
            if not (f.same_frame(frame) and g.same_frame(frame)):
                raise CenterMismatchError("series frames differ")
            if scale and f.coeffs and g.coeffs:
                work.append((scale, f, g))
        den, ks, views = _fold(work, (False, True))
        cut = frame.grading.cutoff
        out: dict = {}
        for k, ((_, left, _), (_, right, degrees)) in zip(ks, views):
            for i1, c1 in left:
                part = right[:bisect_right(degrees, cut - sum(i1))]
                if k != 1:
                    c1 = c1 * k
                for i2, c2 in part:
                    idx = tuple(map(add, i1, i2))
                    prev = out.get(idx)
                    s = c1 * c2 if prev is None else prev + c1 * c2
                    if s:
                        out[idx] = s
                    elif prev is not None:
                        del out[idx]
        return TruncSeries(frame.vars, frame.center, _over(out, den), frame.grading, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = TruncSeries.constant(Fraction(1), self.vars, self.center, self.grading)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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


def _fold(work: list, ordered: tuple) -> tuple:
    """Denominator, multipliers and views of a kernel call over (scale, *series)
    entries: the lcm of each scale's denominator times its views' D, and each
    scale as an int (an Exact for an Exact scale) over it; with any float or
    complex scale or coefficient, raw views, the scales as they are and 0."""
    raw = not all([type(e[0]) in _EXACT and all(map(TruncSeries.is_exact, e[1:])) for e in work])
    views = [[f._kernel_view(o, raw) for f, o in zip(e[1:], ordered)] for e in work]
    if raw:
        return 0, [e[0] for e in work], views
    dens = [math.prod([v[0] for v in vs]) for vs in views]
    den = math.lcm(*[getattr(e[0], "denominator", 1) * d for e, d in zip(work, dens)])
    return den, [_times(e[0], den // d) for e, d in zip(work, dens)], views


def _over(out: dict, den: int) -> dict:
    """Numerators over den in normal form, once each; raw ones (den 0) as they are."""
    return {i: Fraction(c, den) if type(c) is int else c / den for i, c in out.items()} \
        if den else out


def _linear(pairs, vars, center, grading) -> TruncSeries:
    """The sum of c * s over (c, s) pairs in one dict over the views (`_fold`)."""
    den, ks, views = _fold(pairs, (False,))
    out: dict = {}
    for k, ((_, items, _),) in zip(ks, views):
        for idx, b in items:
            p = k * b
            prev = out.get(idx)
            s = p if prev is None else prev + p
            if s:
                out[idx] = s
            elif prev is not None:
                del out[idx]
    return TruncSeries(vars, center, _over(out, den), grading, _clean=True)


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
    frame = m.components[0]
    return _linear([(c, m.basis(idx)) for idx, c in f.coeffs.items()],
                   frame.vars, frame.center, frame.grading)


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
    return _linear([(c, memo[mono]) for mono, c in f.terms.items()], vars, center, grading)


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
        e0 = Fraction(1) if scalar_is_exact(c) and not c else cmath.exp(float(e) * complex(c))
        u, w = Fraction(e).as_integer_ratio()
        coefs = [e0 * Fraction(u ** j, w ** j * math.factorial(j)) for j in range(n + 1)]
        factors.append(_offset_series(v, coefs, vars, center, grading))
    return reduce(mul, factors) if factors else \
        TruncSeries.constant(Fraction(1), vars, center, grading)
