"""Legendre-type transformations: new flat coordinates from second derivatives
of the potential, transport of potentials, calibrations and two-point tables,
and the structural verifications (metric transport, Euler data, round trip).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from . import specs
from .calibration import (Calibration, ObstructionError, OrderExceededError, _signed_pairings,
                          solve_calibration)
from .closedform import ClosedForm
from .core import FrobeniusSpec, Tensors, build_tensors
from .linalg import raise_index
from .series import Grading, SeriesMap, TruncSeries, compose, invert_map, localize

__all__ = [
    "LegendreResult", "transform", "transform_series", "transport_calibration",
    "verify_omega_transport", "verify_euler_hat", "round_trip", "verify_pointwise",
    "hat_tensors_series", "check_metric_transport",
    "check_gradient_identity", "check_unity_rule", "pullback",
    "check_structure_transport", "check_product_identity",
]

F = Fraction

_FLOAT_TOL = 1e-8           # zero gate of the float path in the checks
_DEPTH_THRESHOLD = 1e-15    # a materialization term below this moves no Hessian entry
_DEPTH_MAX_EXTRA = 16       # degrees probed beyond a truncated spec's own cutoff


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


def _potential_from_hessian_series(hess: dict, vars, center, grading) -> TruncSeries:
    """Series F with d_a d_b F = H_ab and no constant or linear part, for
    hess = {(a, b): H_ab, a <= b} in row-major order, by the rule of
    `calibration._potential_of_hessian`: F's coefficient at t is the quotient
    of the first entry that reaches t, (a, b) with a the first variable of t
    and b that of t - e_a.  Every later entry's quotient must equal it (within
    1e-9 on the float path), or ObstructionError names its (v_a, v_b) and t."""
    def step(idx, a, b, s):     # idx + s (e_a + e_b)
        return tuple(k + s * ((i == a) + (i == b)) for i, k in enumerate(idx))

    # targets in order of first appearance: the float sums downstream follow it
    targets = dict.fromkeys(t for (a, b), h in hess.items()
                            for t in (step(idx, a, b, 1) for idx in h.coeffs)
                            if sum(t) <= grading.cutoff)
    coeffs = {}
    for t in targets:
        (_, _, val), *rest = [(a, b, h.coeffs.get(step(t, a, b, -1), F(0)) / F(t[a] * k))
                              for (a, b), h in hess.items() if t[a] and (k := t[b] - (a == b))]
        for a, b, cand in rest:
            d = val - cand
            if (abs(complex(d)) > 1e-9) if isinstance(d, (float, complex)) else d:
                raise ObstructionError(f"Hessian system is not closed in ({vars[a]}, {vars[b]})"
                                       f" at {t}: {val} vs {cand}")
        if val:
            coeffs[t] = val
    return TruncSeries(vars, center, coeffs, grading)


def _hat_step(hessian, eta_inv, kappa: int):
    """The one S_kappa construction on Hessian series hessian(a, b) (0-based
    indices): hat coordinates eta^{ab} d_kappa d_b F, their inverse map, and
    F-hat integrated, as a calibration level is, from the upper triangle of the
    Hessian transported along it.  The kappa column is built and inverted first,
    so a singular Jacobian costs only n entries (and, in `transform`, no
    calibration level past 1); it is the kappa row too.  Returns (inverse map,
    hat potential)."""
    n, k = len(eta_inv), kappa - 1
    col = [hessian(a, k) for a in range(n)]
    inverse = invert_map(SeriesMap(tuple(raise_index(col, eta_inv))))
    what = {(a, b): compose(col[a] if b == k else col[b] if a == k else hessian(a, b), inverse)
            for a in range(n) for b in range(a, n)}
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
    `_needed_depth` finds for the requested series order; the closedness check
    of the hat Hessian (ObstructionError) is the accuracy gate of that
    materialization.  Raises SingularJacobianError where the kappa direction is
    not invertible, before any calibration level past 1: those are solved once
    the inverse exists."""
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
    names = spec.varnames
    for d in range(base + 1, base + _DEPTH_MAX_EXTRA + 1):
        delta = specs.generator_potential(spec.generator[0], d, d)    # the degree-d terms
        if max(localize(delta.diff(a).diff(b), names, fcenter, grading).max_abs_coeff()
               for i, a in enumerate(names) for b in names[i:]) < _DEPTH_THRESHOLD:  # symmetric
            return d - 1
    return base + _DEPTH_MAX_EXTRA


def _vanishes(s: TruncSeries) -> bool:
    """Exact-zero for exact scalars; below _FLOAT_TOL on the float path."""
    if s.is_zero():
        return True
    if s.is_exact():
        return False
    return s.max_abs_coeff() < _FLOAT_TOL


def _agrees(lhs: TruncSeries, rhs, k: int) -> bool:
    """The comparison rule of the series checks: lhs = rhs below the order that
    is left after k derivatives of a series cut at lhs's order."""
    d = lhs - rhs
    return _vanishes(d.truncate(d.grading.order - k))


def _cut_vanishes(spec: FrobeniusSpec, f: ClosedForm) -> bool:
    """The comparison rule of the closed-form checks: f is exactly zero after
    the spec's exponential cut."""
    keep = spec.exp_filter()
    return (f.filter(keep) if keep else f).is_zero()


def _report(failures: list, **extra) -> dict:
    return {"pass": not failures, "failures": failures, **extra}


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
    """Hat gradients of the transported calibration match the straight gradients."""
    hv, cal = result.hat_vars, result.cal
    return _report([(a, m, b) for (a, m), th in sorted(hat_thetas.items())
                    for b in range(1, result.spec.n + 1)
                    if not _agrees(th.diff(hv[b - 1]), pullback(result, cal.grad(a, m, b)), 1)])


def check_unity_rule(result: LegendreResult, hat_thetas: dict) -> dict:
    """d theta-hat_{a,m+1} / d vhat^kappa = theta-hat_{a,m}."""
    kap = result.hat_vars[result.kappa - 1]
    return _report([(a, m) for (a, m), th in sorted(hat_thetas.items())
                    if (a, m + 1) in hat_thetas
                    and not _agrees(hat_thetas[(a, m + 1)].diff(kap), th, 1)])


def verify_omega_transport(result: LegendreResult, order: int, m_max: int) -> dict:
    """Hat two-point functions equal the straight ones after the coordinate map,
    for every entry of order m1 + m2 <= order; that needs level order + 1 <= m_max.
    The hat side is the straight table's signed sum over pairings of hat gradients;
    each theta-hat it reads is differentiated once, and each pairing formed once."""
    if order + 1 > m_max:
        raise OrderExceededError(f"table order {order} needs level {order + 1} > m_max {m_max}")
    grads = {key: [th.diff(y) for y in result.hat_vars]
             for key, th in transport_calibration(result, order + 1).items()}
    pairings = {}

    def pairing(*key):
        key = min(key, key[2:] + key[:2])   # one entry for both orders, as in Calibration
        if key not in pairings:
            pairings[key] = TruncSeries.sum_of_products(
                (e, grads[key[:2]][rho], grads[key[2:]][sig])
                for rho, row in enumerate(result.tensors.eta_inv) for sig, e in enumerate(row) if e)
        return pairings[key]

    n = result.spec.n
    entries = [(a, m1, b, m2) for m1 in range(order + 1) for m2 in range(order + 1 - m1)
               for a in range(1, n + 1) for b in range(1, n + 1)]
    return _report([(a, m1, b, m2) for a, m1, b, m2 in entries
                    if not _agrees(_signed_pairings(pairing, a, m1 + 1, b, m2),
                                   pullback(result, result.cal.entry(a, m1, b, m2)), 1)],
                   checked=len(entries))


def verify_euler_hat(result: LegendreResult) -> dict:
    """Exact identity: the Euler field in hat coordinates is linear-plus-shift
    with the transformed charge and with shifts from the nilpotent block."""
    spec = result.spec
    upper = result.hat_upper_forms()
    weights = [1 - Fraction(result.hat_charge, 2) - mu for mu in spec.mu]
    return _report([b for b in range(1, spec.n + 1)
                    if not _cut_vanishes(spec, spec.euler_residual(upper[b - 1], weights[b - 1])
                                         - result.hat_shifts[b - 1])],
                   hat_charge=result.hat_charge, hat_shifts=result.hat_shifts)


def check_metric_transport(result: LegendreResult) -> dict:
    """Jacobian identity: the hat-coordinate differentials pair to the same
    constant metric (equivalently d vhat_a / dv_b = c^b_{kappa a})."""
    spec, t = result.spec, result.tensors
    failures = []
    for a, low in enumerate(result.hat_lower_forms()):
        # eta^{b rho} d vhat_a / d v^rho = c^b_{kappa a}
        lhs = raise_index([low.diff(v) for v in spec.varnames], t.eta_inv)
        failures += [(a + 1, b + 1) for b in range(spec.n)
                     if not _cut_vanishes(spec, lhs[b] - t.c_mixed[b][result.kappa - 1][a])]
    return _report(failures)


def _hat_structure(result: LegendreResult, columns) -> list:
    """chat^g_{ab} = (dv^rho/dvhat^a) c^g_{rho b} for the columns b (0-based), as
    chat[g][a][j] for b = columns[j]: each c^g_{rho b} is pulled back once."""
    n, c = result.spec.n, result.tensors.c_mixed
    dv = [[comp.diff(y) for y in result.hat_vars] for comp in result.inverse_map.components]
    cpull = [[[pullback(result, c[g][rho][b]) for b in columns] for rho in range(n)]
             for g in range(n)]
    return [[[TruncSeries.sum_of_products((1, dv[rho][a], cpull[g][rho][j]) for rho in range(n))
              for j in range(len(columns))] for a in range(n)] for g in range(n)]


def hat_tensors_series(result: LegendreResult) -> list:
    """Hat structure constants as series: chat^g_{ab} = (dv^rho/dvhat^a) c^g_{rho b}."""
    return _hat_structure(result, range(result.spec.n))


def check_structure_transport(result: LegendreResult) -> dict:
    """The hat structure constants computed two ways agree: third derivatives of
    the transported potential versus the chain-rule transport of c.  F-hat is
    differentiated along sorted index prefixes, once per index multiset."""
    n, hv = result.spec.n, result.hat_vars
    chat = hat_tensors_series(result)
    # lower the transported mixed tensor with eta: lowered[a][b][g] = chat_{gab}
    lowered = [[raise_index([chat[rho][a][b] for rho in range(n)], result.tensors.eta)
                for b in range(n)] for a in range(n)]
    derivs = {(): result.hat_potential}
    for k in (1, 2, 3):
        for idx in combinations_with_replacement(range(n), k):
            derivs[idx] = derivs[idx[:-1]].diff(hv[idx[-1]])
    return _report([(a + 1, b + 1, g + 1) for g in range(n) for a in range(n) for b in range(n)
                    if not _agrees(lowered[a][b][g], derivs[tuple(sorted((a, b, g)))], 3)])


def check_product_identity(result: LegendreResult) -> dict:
    """Multiplication by the transform direction sends hat coordinate fields to
    the lowered straight ones:  eta^{ab} chat^g_{b kappa} = eta^{g a}."""
    n, eta_inv = result.spec.n, result.tensors.eta_inv
    chat = _hat_structure(result, [result.kappa - 1])
    prod = [raise_index([chat[g][b][0] for b in range(n)], eta_inv) for g in range(n)]
    return _report([(a + 1, g + 1) for a in range(n) for g in range(n)
                    if not _agrees(prod[g][a], eta_inv[g][a], 2)])


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
                     tensors: Tensors | None = None) -> dict:
    """Numeric check of the defining Hessian identity at sample points: the hat
    Hessian of a closed-form candidate equals the straight Hessian of F."""
    t = tensors or build_tensors(spec)
    n = spec.n
    names = spec.varnames
    hat_names = [f"h{i+1}" for i in range(n)]
    if set(hat_potential.variables()) - set(hat_names):
        raise ValueError("hat potential must use variables h1..hn")
    # each symmetric Hessian entry a <= b is differentiated once, and evaluated once per point
    upper = [(a, b) for a in range(n) for b in range(a, n)]
    sec = ClosedForm.evaluator(spec.potential.diff(names[a]).diff(names[b]) for a, b in upper)
    hat_sec = ClosedForm.evaluator(hat_potential.diff(hat_names[a]).diff(hat_names[b])
                                   for a, b in upper)

    def values(side, point):
        out = [[None] * n for _ in range(n)]
        for (a, b), value in zip(upper, side(point)):
            out[a][b] = out[b][a] = value
        return out

    worst, failures = 0.0, []
    for pt in points:
        want = values(sec, dict(zip(names, [complex(x) for x in pt])))
        got = values(hat_sec, dict(zip(hat_names, raise_index(want[kappa - 1], t.eta_inv))))
        for a in range(n):
            for b in range(n):
                err = abs(got[a][b] - want[a][b]) / max(1.0, abs(want[a][b]))
                worst = max(worst, err)
                if err > tol:
                    failures.append((pt, a + 1, b + 1, err))
    return {"pass": not failures, "max_residual": worst, "failures": failures[:5],
            "points": len(points)}
