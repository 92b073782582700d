"""Frobenius manifold data built from a declarative spec: metric, structure
constants, Euler action, multiplication-by-Euler matrix, associativity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Optional

from .closedform import (
    ClosedForm, Cutoff, Mono, _exponent, cf_var, equal_mod_quadratic, mono_exp_degree,
)
from .linalg import SingularMatrixError, mat_inv, raise_index

__all__ = [
    "FrobeniusSpec", "Tensors", "SpecValidationError", "NonConstantMetricError",
    "SingularMetricError", "build_tensors", "validate_spec", "check_wdvv",
    "euler_report", "u_matrix", "hat_point", "WDVVReport",
]


class SpecValidationError(ValueError):
    pass


class NonConstantMetricError(SpecValidationError):
    pass


class SingularMetricError(SpecValidationError):
    pass


@dataclass(frozen=True)
class FrobeniusSpec:
    """Declarative description: flat variables, unity index, potential, Euler data.

    Indices are 1-based to match the usual conventions; `mu` lists the diagonal
    spectrum, `rmats` maps s >= 1 to the nilpotent blocks (R_s)^alpha_beta
    (row alpha, column beta), and `exp_cutoff` marks specs whose potential is
    a truncation graded by total exponential degree.
    """
    name: str
    varnames: tuple[str, ...]
    unity: int
    potential: ClosedForm
    charge: Fraction
    mu: tuple[Fraction, ...]
    rmats: dict[int, tuple[tuple[Fraction, ...], ...]] = field(default_factory=dict)
    euler_shifts: tuple[Fraction, ...] = ()
    exp_cutoff: Optional[Fraction] = None
    generator: Optional[tuple] = None  # (registry name, materialized degree)

    @property
    def n(self) -> int:
        return len(self.varnames)

    def euler_linear(self, beta: int) -> Fraction:
        """Coefficient of v^beta in E^beta (1-based beta)."""
        return 1 - Fraction(self.charge, 2) - self.mu[beta - 1]

    def euler_component(self, beta: int) -> ClosedForm:
        d, r = self.euler_field[self.varnames[beta - 1]]
        return cf_var(self.varnames[beta - 1]) * d + r

    @cached_property
    def euler_field(self) -> dict[str, tuple]:
        """{v: (d_v, r_v)} for E = sum_v (d_v v + r_v) d/dv, built once per spec."""
        shifts = self.euler_shifts or (0,) * self.n
        return {v: (self.euler_linear(b), shifts[b - 1]) for b, v in enumerate(self.varnames, 1)}

    def euler_residual(self, f: ClosedForm, weight) -> ClosedForm:
        """E f - weight * f, term by term (ClosedForm.euler_residual)."""
        return f.euler_residual(self.euler_field, weight)

    def r_entry(self, s: int, alpha: int, beta: int) -> Fraction:
        mat = self.rmats.get(s)
        if mat is None:
            return Fraction(0)
        return mat[alpha - 1][beta - 1]

    def exp_filter(self) -> Optional[Cutoff]:
        if self.exp_cutoff is None:
            return None
        return Cutoff(mono_exp_degree, _exponent(self.exp_cutoff))


@dataclass(frozen=True)
class Tensors:
    eta: tuple[tuple[Fraction, ...], ...]
    eta_inv: tuple[tuple[Fraction, ...], ...]
    c_low: tuple  # [a][b][g] ClosedForm, 0-based
    c_mixed: tuple  # [g][a][b] ClosedForm = eta^{g rho} c_{rho a b}


def build_tensors(spec: FrobeniusSpec) -> Tensors:
    n = spec.n
    names = spec.varnames
    iota = spec.unity - 1
    third: dict[tuple[int, int, int], ClosedForm] = {}
    for trip in combinations_with_replacement(range(n), 3):
        d = spec.potential
        for i in trip:
            d = d.diff(names[i])
        third[trip] = d

    def c3(a, b, g):
        return third[tuple(sorted((a, b, g)))]

    eta_rows = []
    for a in range(n):
        row = []
        for b in range(n):
            e = c3(iota, a, b)
            if e.is_zero():
                row.append(Fraction(0))
                continue
            if set(e.terms) != {Mono((), (), ())}:
                raise NonConstantMetricError(
                    f"{spec.name}: d3 F / dv^{iota+1} dv^{a+1} dv^{b+1} is not constant: {e}")
            row.append(e.constant_term())
        eta_rows.append(tuple(row))
    eta = tuple(eta_rows)
    try:
        eta_inv = tuple(tuple(r) for r in mat_inv([list(r) for r in eta]))
    except SingularMatrixError as exc:
        raise SingularMetricError(f"{spec.name}: metric is singular") from exc

    c_low = tuple(tuple(tuple(c3(a, b, g) for g in range(n)) for b in range(n))
                  for a in range(n))
    up = [[raise_index([c_low[rho][a][b] for rho in range(n)], eta_inv) for b in range(n)]
          for a in range(n)]
    c_mixed = tuple(tuple(tuple(up[a][b][g] for b in range(n)) for a in range(n))
                    for g in range(n))
    return Tensors(eta=eta, eta_inv=eta_inv, c_low=c_low, c_mixed=c_mixed)


def validate_spec(spec: FrobeniusSpec, tensors: Tensors | None = None) -> Tensors:
    """Check the structural invariants; returns the tensors for reuse."""
    n = spec.n
    t = tensors or build_tensors(spec)
    iota = spec.unity
    if spec.mu[iota - 1] != -Fraction(spec.charge, 2):
        raise SpecValidationError(f"{spec.name}: mu_iota must equal -D/2")
    if spec.euler_shifts and spec.euler_shifts[iota - 1] != 0:
        raise SpecValidationError(f"{spec.name}: r^iota must vanish")
    # R_s triangular with respect to the mu spectrum
    for s, mat in spec.rmats.items():
        for a in range(n):
            for b in range(n):
                if mat[a][b] and spec.mu[a] - spec.mu[b] != s:
                    raise SpecValidationError(
                        f"{spec.name}: (R_{s})^{a+1}_{b+1} nonzero needs mu_a - mu_b = {s}")
        # eta^{-1} R_s^T eta = (-1)^{s+1} R_s
        for a in range(n):
            for b in range(n):
                lhs = sum(t.eta_inv[a][i] * mat[j][i] * t.eta[j][b]
                          for i in range(n) for j in range(n))
                if lhs != (-1) ** (s + 1) * mat[a][b]:
                    raise SpecValidationError(f"{spec.name}: R_{s} skew rule fails at {a+1},{b+1}")
    # conformal constraint: eta_ab != 0 forces mu_a + mu_b = 0
    for a in range(n):
        for b in range(n):
            if t.eta[a][b] and spec.mu[a] + spec.mu[b] != 0:
                raise SpecValidationError(f"{spec.name}: eta and mu are inconsistent at {a+1},{b+1}")
    # Euler shifts must be the iota-column of R_1 (calibration coherence)
    if spec.euler_shifts:
        for b in range(1, n + 1):
            if spec.euler_shifts[b - 1] != spec.r_entry(1, b, iota):
                raise SpecValidationError(
                    f"{spec.name}: Euler shift r^{b} must equal (R_1)^{b}_iota")
    return t


@dataclass
class WDVVReport:
    name: str
    ok: bool
    checked: int
    first_failure: Optional[tuple] = None


def wdvv_pairing(tensors: Tensors, x: int, y: int, z: int, w: int,
                 cut: Cutoff | None = None) -> ClosedForm:
    """A(xy|zw) = sum_{rho sigma} c_{xy rho} eta^{rho sigma} c_{sigma zw}."""
    return ClosedForm.sum_of_products(
        ((1, tensors.c_mixed[rho][x][y], tensors.c_low[rho][z][w])
         for rho in range(len(tensors.eta))), cut)


def check_wdvv(spec: FrobeniusSpec, tensors: Tensors | None = None) -> WDVVReport:
    """Associativity holds iff the pairing A(xy|zw) is totally symmetric; it is
    already symmetric within and across pairs, so per index multiset it suffices
    to compare the three distinct pairings."""
    t = tensors or build_tensors(spec)
    n = spec.n
    keep = spec.exp_filter()
    checked = 0
    for quad in combinations_with_replacement(range(n), 4):
        a, b, g, d = quad
        p1 = wdvv_pairing(t, a, b, g, d, keep)
        p2 = wdvv_pairing(t, a, g, b, d, keep)
        p3 = wdvv_pairing(t, a, d, b, g, keep)
        for other in (p2, p3):
            res = p1 - other
            checked += 1
            if not res.is_zero():
                return WDVVReport(spec.name, False, checked, tuple(i + 1 for i in quad))
    return WDVVReport(spec.name, True, checked)


def euler_report(spec: FrobeniusSpec, tensors: Tensors | None = None) -> WDVVReport:
    """E(F) = (3-D) F modulo quadratic, plus the conformal identity on eta."""
    t = tensors or build_tensors(spec)
    keep = spec.exp_filter()
    resid = spec.euler_residual(spec.potential, 3 - spec.charge)
    ok = equal_mod_quadratic(resid, ClosedForm.zero(), spec.varnames, keep=keep)
    checked = 1
    for a in range(spec.n):
        for b in range(spec.n):
            checked += 1
            if t.eta[a][b] and spec.mu[a] + spec.mu[b] != 0:
                ok = False
    return WDVVReport(spec.name, ok, checked)


def u_matrix(spec: FrobeniusSpec, tensors: Tensors | None = None):
    """Multiplication by the Euler field: U^a_b = sum_rho E^rho c^a_{rho b}."""
    t = tensors or build_tensors(spec)
    n = spec.n
    comps = [spec.euler_component(beta) for beta in range(1, n + 1)]
    keep = spec.exp_filter()
    out = []
    for a in range(n):
        row = []
        for b in range(n):
            row.append(ClosedForm.sum_of_products(
                ((1, comps[rho], t.c_mixed[a][rho][b]) for rho in range(n)), keep))
        out.append(tuple(row))
    return tuple(out)


def hat_point(row: list[ClosedForm], eta_inv, point: dict) -> list:
    """Numeric coordinates eta^{ab} d_kappa d_b F of the kappa-direction
    Legendre transform at a point, from the kappa row of second derivatives."""
    return raise_index(ClosedForm.evaluator(row)(point), eta_inv)
