"""Legendre-type transformations: new flat coordinates from second derivatives
of the potential, transport of potentials, calibrations and two-point tables,
and the structural verifications (metric transport, Euler data, round trip).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import specs
from .calibration import Calibration, _signed_pairings, solve_calibration
from .closedform import ClosedForm
from .core import FrobeniusSpec, Tensors, build_tensors, hat_point
from .linalg import raise_index
from .series import Grading, SeriesMap, TruncSeries, compose, invert_map, localize

__all__ = [
    "LegendreResult", "transform", "transform_series", "transport_calibration",
    "verify_omega_transport", "verify_euler_hat", "round_trip", "verify_pointwise",
    "series_equal_mod_quadratic", "hat_tensors_series", "check_metric_transport",
    "check_gradient_identity", "check_unity_rule", "pullback", "InconsistentHessianError",
    "hat_omega_from_thetas", "check_structure_transport", "check_product_identity",
]

F = Fraction

_FLOAT_TOL = 1e-8           # zero gate of the float path in the checks
_DEPTH_THRESHOLD = 1e-15    # a materialization term below this moves no Hessian entry
_DEPTH_MAX_EXTRA = 16       # degrees probed beyond a truncated spec's own cutoff


class InconsistentHessianError(ArithmeticError):
    """Transported second derivatives disagree: the series data are not yet
    accurate enough (the accuracy gate of truncated specs)."""


@dataclass
class LegendreResult:
    spec: FrobeniusSpec
    tensors: Tensors
    cal: Calibration
    kappa: int
    center: tuple
    grading: Grading
    hat_center: tuple
    hat_vars: tuple
    inverse_map: SeriesMap      # v as series in hat coordinates
    hat_potential: TruncSeries
    hat_charge: Fraction
    hat_shifts: tuple
    # unit-coefficient expansions of closed-form monomials at (center, grading)
    localized: dict = field(repr=False, compare=False)

    def hat_lower_forms(self) -> list[ClosedForm]:
        """Lowered hat coordinates as closed forms of the straight variables."""
        return [self.cal.entry(a, 0, self.kappa, 0) for a in range(1, self.spec.n + 1)]

    def hat_upper_forms(self) -> list[ClosedForm]:
        return raise_index(self.hat_lower_forms(), self.tensors.eta_inv)


def _potential_from_hessian_series(w, vars, center, grading) -> TruncSeries:
    """Series F with d2 F = w, vanishing constant and linear part; asserts the
    mixed-derivative consistency of the input."""
    n = len(vars)
    coeffs = {}
    # collect candidate indices from all entries
    for a in range(n):
        for b in range(n):
            for idx, c in w[a][b].coeffs.items():
                target = list(idx)
                target[a] += 1
                target[b] += 1
                if sum(target) > grading.cutoff:
                    continue
                coeffs.setdefault(tuple(target), None)
    for idx in list(coeffs):
        val = None
        for a in range(n):
            if idx[a] == 0:
                continue
            ia = list(idx)
            ia[a] -= 1
            for b in range(n):
                if ia[b] == 0:
                    continue
                ib = list(ia)
                ib[b] -= 1
                cand = w[a][b].coeffs.get(tuple(ib), F(0)) / (idx[a] * ia[b])
                if val is None:
                    val = cand
                else:
                    d = val - cand
                    bad = (abs(complex(d)) > 1e-9) if isinstance(d, (float, complex)) else bool(d)
                    if bad:
                        raise InconsistentHessianError(
                            f"inconsistent Hessian data at {idx}: {val} vs {cand}")
        coeffs[idx] = val
    coeffs = {i: c for i, c in coeffs.items() if c}
    return TruncSeries(vars, center, coeffs, grading)


def _hat_step(hessian, eta_inv, kappa: int):
    """The one S_kappa construction on Hessian series hessian(a, b) (0-based
    indices): hat coordinates eta^{ab} d_kappa d_b F, their inverse map, and
    F-hat from the Hessian transported along it.  The kappa column is built
    and inverted before any other entry, so a singular Jacobian costs only n
    entries (and, in `transform`, no calibration level past 1); returns
    (inverse map, hat potential)."""
    n = len(eta_inv)
    col = [hessian(a, kappa - 1) for a in range(n)]
    inverse = invert_map(SeriesMap(tuple(raise_index(col, eta_inv))))
    what = [[compose(col[a] if b == kappa - 1 else hessian(a, b), inverse)
             for b in range(n)] for a in range(n)]
    hat = inverse.components[0]
    return inverse, _potential_from_hessian_series(what, hat.vars, hat.center, hat.grading)


def transform_series(f: TruncSeries, eta_inv, kappa: int):
    """Series-level transform of a potential series: (inverse map, transported
    potential), modulo quadratic."""
    return _hat_step(lambda a, b: f.diff(f.vars[a]).diff(f.vars[b]), eta_inv, kappa)


def transform(spec: FrobeniusSpec, kappa: int, center: Sequence, order,
              m_max: int = 4) -> LegendreResult:
    """Build the kappa-direction transform at a center, as exact series data.

    A generator-backed truncated spec is re-materialized once, to the degree
    `_needed_depth` finds for the requested series order; the Hessian
    cross-consistency check is the accuracy gate of that materialization.
    Raises SingularJacobianError where the kappa direction is not invertible,
    before any calibration level past 1: those are solved once the inverse exists."""
    if spec.exp_cutoff is not None and spec.generator is not None:
        spec = specs.deepen_spec(spec, _needed_depth(spec, center, order, m_max))
    t = build_tensors(spec)
    cal = solve_calibration(spec, 1, t)
    center = tuple(F(c) if isinstance(c, int) else c for c in center)
    if spec.exp_cutoff is not None:
        # a finite exponential truncation is only approximately integrable, so
        # series transport runs on the float path with its tolerance
        center = tuple(complex(c) for c in center)
    grading = Grading.total_degree(spec.n, order)
    memo: dict = {}
    inverse, fhat = _hat_step(
        lambda a, b: localize(cal.entry(a + 1, 0, b + 1, 0), spec.varnames, center, grading,
                              memo), t.eta_inv, kappa)
    solve_calibration(spec, m_max, t, cal)
    hat = inverse.components[0]
    return LegendreResult(
        spec=spec, tensors=t, cal=cal, kappa=kappa, center=center,
        grading=grading, hat_center=hat.center, hat_vars=hat.vars, inverse_map=inverse,
        hat_potential=fhat, hat_charge=-2 * spec.mu[kappa - 1],
        hat_shifts=tuple(spec.r_entry(1, b, kappa) for b in range(1, spec.n + 1)),
        localized=memo)


def _needed_depth(spec: FrobeniusSpec, center, order, m_max) -> int:
    """Smallest materialization degree whose next term no longer moves the
    low-order Hessian series at this center by _DEPTH_THRESHOLD (successive-term
    convergence test over at most _DEPTH_MAX_EXTRA degrees).

    Each calibration level converts a derivative pair back into an integration
    pair, so the probe window is widened by two per transported level."""
    base = int(spec.exp_cutoff)
    fcenter = tuple(complex(c) for c in center)
    window = Fraction(order) + 2 * max(0, m_max - 1)
    grading = Grading.total_degree(spec.n, window)
    prev = specs.generator_potential(spec.generator[0], base)
    depth = base
    for d in range(base + 1, base + _DEPTH_MAX_EXTRA + 1):
        nxt = specs.generator_potential(spec.generator[0], d)
        delta = nxt - prev
        impact = 0.0
        for i, a in enumerate(spec.varnames):
            for b in spec.varnames[i:]:     # the Hessian is symmetric
                s = localize(delta.diff(a).diff(b), spec.varnames, fcenter, grading)
                impact = max(impact, s.max_abs_coeff())
        prev = nxt
        if impact < _DEPTH_THRESHOLD:
            break
        depth = d
    return depth


def series_equal_mod_quadratic(a: TruncSeries, b: TruncSeries) -> bool:
    return (a - b).drop_low_degree(3).is_zero()


def _vanishes(s: TruncSeries) -> bool:
    """Exact-zero for exact scalars; below _FLOAT_TOL on the float path."""
    if s.is_zero():
        return True
    if s.is_exact():
        return False
    return s.max_abs_coeff() < _FLOAT_TOL


def pullback(result: LegendreResult, f: ClosedForm) -> TruncSeries:
    """Expand a straight-variable closed form and transport it to hat series."""
    s = localize(f, result.spec.varnames, result.center, result.grading, result.localized)
    return compose(s, result.inverse_map)


def transport_calibration(result: LegendreResult, m_max: int) -> dict:
    """Hat calibration theta-hat_{a,m} = Omega_{a,m;kappa,0} o (inverse map)."""
    out = {}
    for a in range(1, result.spec.n + 1):
        for m in range(m_max + 1):
            out[(a, m)] = pullback(result, result.cal.entry(a, m, result.kappa, 0))
    return out


def check_gradient_identity(result: LegendreResult, hat_thetas: dict) -> dict:
    """Hat gradients of the transported calibration match the straight gradients;
    the derivative loses one order at the series cutoff."""
    failures = []
    for (a, m), th in sorted(hat_thetas.items()):
        for b in range(1, result.spec.n + 1):
            lhs = th.diff(result.hat_vars[b - 1])
            rhs = pullback(result, result.cal.grad(a, m, b))
            diff = (lhs - rhs).truncate(lhs.grading.order - 1)
            if not _vanishes(diff):
                failures.append((a, m, b))
    return {"pass": not failures, "failures": failures}


def check_unity_rule(result: LegendreResult, hat_thetas: dict) -> dict:
    """d theta-hat_{a,m+1} / d vhat^kappa = theta-hat_{a,m}."""
    failures = []
    kap = result.hat_vars[result.kappa - 1]
    for (a, m), th in sorted(hat_thetas.items()):
        if (a, m + 1) not in hat_thetas:
            continue
        lhs = hat_thetas[(a, m + 1)].diff(kap)
        diff = (lhs - th).truncate(lhs.grading.order - 1)
        if not _vanishes(diff):
            failures.append((a, m))
    return {"pass": not failures, "failures": failures}


def hat_omega_from_thetas(result: LegendreResult, hat_thetas: dict,
                          a: int, m1: int, b: int, m2: int) -> TruncSeries:
    """Two-point entry of the hat structure computed from hat data only: the
    straight table's signed sum, over pairings of hat gradients."""
    hv = result.hat_vars

    def pairing(alpha, l1, beta, l2):
        return TruncSeries.sum_of_products(
            (e, hat_thetas[(alpha, l1)].diff(hv[rho]), hat_thetas[(beta, l2)].diff(hv[sig]))
            for rho, row in enumerate(result.tensors.eta_inv) for sig, e in enumerate(row) if e)

    return _signed_pairings(pairing, a, m1 + 1, b, m2)


def verify_omega_transport(result: LegendreResult, order: int, m_max: int) -> dict:
    """Hat two-point functions equal the straight ones after the coordinate map."""
    hat_thetas = transport_calibration(result, m_max)
    failures = []
    checked = 0
    for m1 in range(order + 1):
        for m2 in range(order + 1 - m1):
            if m1 + m2 + 1 > m_max:
                continue
            for a in range(1, result.spec.n + 1):
                for b in range(1, result.spec.n + 1):
                    lhs = hat_omega_from_thetas(result, hat_thetas, a, m1, b, m2)
                    rhs = pullback(result, result.cal.entry(a, m1, b, m2))
                    diff = (lhs - rhs).truncate(lhs.grading.order - 1)
                    checked += 1
                    if not _vanishes(diff):
                        failures.append((a, m1, b, m2))
    return {"pass": not failures, "failures": failures, "checked": checked}


def verify_euler_hat(result: LegendreResult) -> dict:
    """Exact identity: the Euler field in hat coordinates is linear-plus-shift
    with the transformed charge and with shifts from the nilpotent block."""
    spec = result.spec
    keep = spec.exp_filter()
    upper = result.hat_upper_forms()
    failures = []
    for b in range(1, spec.n + 1):
        diff = (spec.euler_residual(upper[b - 1], 1 - result.hat_charge / 2 - spec.mu[b - 1])
                - result.hat_shifts[b - 1])
        if keep:
            diff = diff.filter(keep)
        if not diff.is_zero():
            failures.append(b)
    return {"pass": not failures, "failures": failures,
            "hat_charge": result.hat_charge, "hat_shifts": result.hat_shifts}


def check_metric_transport(result: LegendreResult) -> dict:
    """Jacobian identity: the hat-coordinate differentials pair to the same
    constant metric (equivalently d vhat_a / dv_b = c^b_{kappa a})."""
    spec, t = result.spec, result.tensors
    n = spec.n
    low = result.hat_lower_forms()
    keep = spec.exp_filter()
    failures = []
    for a in range(n):
        # eta^{b rho} d vhat_a / d v^rho = c^b_{kappa a}
        lhs = raise_index([low[a].diff(v) for v in spec.varnames], t.eta_inv)
        for b in range(n):
            diff = lhs[b] - t.c_mixed[b][result.kappa - 1][a]
            if keep:
                diff = diff.filter(keep)
            if not diff.is_zero():
                failures.append((a + 1, b + 1))
    return {"pass": not failures, "failures": failures}


def hat_tensors_series(result: LegendreResult) -> list:
    """Hat structure constants as series: chat^g_{ab} = (dv^rho/dvhat^a) c^g_{rho b}."""
    spec, t = result.spec, result.tensors
    n = spec.n
    inv = result.inverse_map
    dv = [[inv.components[r].diff(result.hat_vars[a]) for a in range(n)] for r in range(n)]
    cmix = [[[pullback(result, t.c_mixed[g][rho][b]) for b in range(n)] for rho in range(n)]
            for g in range(n)]
    return [[[TruncSeries.sum_of_products((1, dv[rho][a], cmix[g][rho][b]) for rho in range(n))
              for b in range(n)] for a in range(n)] for g in range(n)]


def check_structure_transport(result: LegendreResult) -> dict:
    """The hat structure constants computed two ways agree: third derivatives of
    the transported potential versus the chain-rule transport of c."""
    n = result.spec.n
    t = result.tensors
    chat = hat_tensors_series(result)
    order_guard = result.grading.order - 3
    # lower the transported mixed tensor with eta and compare with the third
    # derivatives of the hat potential
    lowered = [[raise_index([chat[rho][a][b] for rho in range(n)], t.eta) for b in range(n)]
               for a in range(n)]
    failures = []
    for g in range(n):
        for a in range(n):
            for b in range(n):
                third = result.hat_potential.diff(result.hat_vars[a]) \
                    .diff(result.hat_vars[b]).diff(result.hat_vars[g])
                if not _vanishes((lowered[a][b][g] - third).truncate(order_guard)):
                    failures.append((a + 1, b + 1, g + 1))
    return {"pass": not failures, "failures": failures}


def check_product_identity(result: LegendreResult) -> dict:
    """Multiplication by the transform direction sends hat coordinate fields to
    the lowered straight ones:  sum_s c^g_{kappa s} dv^s/dvhat_a = eta^{g a}."""
    spec, t = result.spec, result.tensors
    n = spec.n
    inv = result.inverse_map
    order_guard = result.grading.order - 2
    # d v^sig / d vhat_a = eta^{a b} d inv^sig / d yhat^b
    dv = [raise_index([comp.diff(y) for y in result.hat_vars], t.eta_inv)
          for comp in inv.components]
    cmix = [[pullback(result, t.c_mixed[g][result.kappa - 1][sig]) for sig in range(n)]
            for g in range(n)]
    failures = []
    for a in range(n):
        for g in range(n):
            s = TruncSeries.sum_of_products((1, cmix[g][sig], dv[sig][a]) for sig in range(n))
            diff = (s - t.eta_inv[g][a]).truncate(order_guard)
            if not _vanishes(diff):
                failures.append((a + 1, g + 1))
    return {"pass": not failures, "failures": failures}


def round_trip(result: LegendreResult) -> dict:
    """Transforming the hat potential in the original unity direction recovers
    the straight potential modulo quadratic, in the original coordinates."""
    spec = result.spec
    _, f_back = transform_series(result.hat_potential, result.tensors.eta_inv, spec.unity)
    f_orig = localize(spec.potential, spec.varnames, result.center, result.grading,
                      result.localized)
    # the doubled-hat offsets coincide with the straight offsets; compare cubic on
    back = TruncSeries(f_orig.vars, f_orig.center,
                       {idx: c for idx, c in f_back.coeffs.items()}, f_orig.grading)
    diff = (back - f_orig).drop_low_degree(3)
    diff = diff.truncate(result.grading.order - 2)
    return {"pass": _vanishes(diff), "exact": diff.is_zero(),
            "max_residual": diff.max_abs_coeff()}


def verify_pointwise(spec: FrobeniusSpec, kappa: int, hat_potential: ClosedForm,
                     points: list, tol: float = 1e-8,
                     hessian_offset=None, tensors: Tensors | None = None) -> dict:
    """Numeric check of the defining Hessian identity at sample points: the hat
    Hessian of a closed-form candidate equals the straight Hessian of F."""
    t = tensors or build_tensors(spec)
    n = spec.n
    names = spec.varnames
    hat_names = [f"h{i+1}" for i in range(n)]
    if set(hat_potential.variables()) - set(hat_names):
        raise ValueError("hat potential must use variables h1..hn")
    sec = [[spec.potential.diff(names[a]).diff(names[b]) for b in range(n)]
           for a in range(n)]
    hat_sec = [[hat_potential.diff(hat_names[a]).diff(hat_names[b]) for b in range(n)]
               for a in range(n)]

    def check_point(pt):
        vpt = dict(zip(names, [complex(x) for x in pt]))
        hat_pt = dict(zip(hat_names, hat_point(sec[kappa - 1], t.eta_inv, vpt)))
        worst_pt = 0.0
        fails = []
        for a in range(n):
            for b in range(n):
                want = sec[a][b].evaluate(vpt)
                got = hat_sec[a][b].evaluate(hat_pt)
                if hessian_offset is not None:
                    got += complex(hessian_offset[a][b])
                err = abs(got - want) / max(1.0, abs(want))
                worst_pt = max(worst_pt, err)
                if err > tol:
                    fails.append((pt, a + 1, b + 1, err))
        return worst_pt, fails

    results = [check_point(pt) for pt in points]
    worst = max((w for w, _ in results), default=0.0)
    failures = [f for _, fs in results for f in fs]
    return {"pass": not failures, "max_residual": worst, "failures": failures[:5],
            "points": len(points)}
