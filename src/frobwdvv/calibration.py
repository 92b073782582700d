"""Calibration solver: coefficient functions of deformed flat coordinates.

The level-m functions are produced by integrating the closed Hessian system
(closedness is associativity), normalized so that the unity-direction
derivative lowers the level, and with the residual affine freedom pinned by
the quasi-homogeneity constraints attached to the spectral data (mu, R).
Remaining free constants (resonant cases) are set to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from .closedform import ClosedForm, Mono, cf_var
from .core import FrobeniusSpec, Tensors, build_tensors
from .linalg import raise_index

__all__ = [
    "Calibration", "ObstructionError", "OrderExceededError",
    "solve_calibration", "two_point_table", "check_homogeneity",
    "theta_matrix_coefficients", "check_orthogonality",
]

F = Fraction


class ObstructionError(ArithmeticError):
    """Quasi-homogeneity cannot be satisfied: wrong (mu, R) for this potential."""


class OrderExceededError(ValueError):
    pass


def _filtered(f: ClosedForm, keep) -> ClosedForm:
    return f.filter(keep) if keep else f


def _constant(f: ClosedForm, message: str):
    """The constant that f is; ObstructionError(message) if f is not one."""
    if f.terms and set(f.terms) != {Mono((), (), ())}:
        raise ObstructionError(message)
    return f.constant_term()


def _euler_rule(spec: FrobeniusSpec, f: ClosedForm, weight, sides, keep) -> ClosedForm:
    """E f - weight f - sum over sides (g, ks, lower) of sum_{k in ks, rho}
    (R_k)^rho_g lower(rho, k), cut by keep: the R-corrected Euler rule that every
    quasi-homogeneity equation of the levels and of the two-point table states."""
    parts = [(1, spec.euler_residual(f, weight))]
    for g, ks, lower in sides:
        for k in ks:
            for rho in range(1, spec.n + 1):
                if r := spec.r_entry(k, rho, g):
                    parts.append((-1, lower(rho, k) * r))
    return _filtered(ClosedForm.signed_sum(parts), keep)


def potential_from_gradient(grad: list[ClosedForm], varnames, keep) -> ClosedForm:
    """Reconstruct f with df = grad, no integration constant; asserts closedness."""
    out = ClosedForm.zero()
    for i, v in enumerate(varnames):
        rem = _filtered(grad[i] - out.diff(v), keep)
        for w in varnames[:i]:
            chk = _filtered(rem.diff(w), keep)
            if not chk.is_zero():
                raise ObstructionError(f"gradient system is not closed in {v},{w}")
        out = out + rem.antiderivative(v)
    return out


@dataclass
class Calibration:
    spec: FrobeniusSpec
    tensors: Tensors
    m_max: int
    theta: dict = field(default_factory=dict)   # (alpha 1-based, m) -> ClosedForm
    grads: dict = field(default_factory=dict)   # (alpha, m, beta) -> ClosedForm
    pairings: dict = field(default_factory=dict, init=False)   # see pairing()
    omega: dict = field(default_factory=dict, init=False)      # see entry()

    def grad(self, alpha: int, m: int, beta: int) -> ClosedForm:
        key = (alpha, m, beta)
        if key not in self.grads:
            self.grads[key] = self.theta[(alpha, m)].diff(self.spec.varnames[beta - 1])
        return self.grads[key]

    def pairing(self, alpha: int, l1: int, beta: int, l2: int) -> ClosedForm:
        """<grad theta_{alpha,l1}, grad theta_{beta,l2}> paired with eta^{-1}; built on
        first use and stored once, under the smaller of its two symmetric keys."""
        key = min((alpha, l1, beta, l2), (beta, l2, alpha, l1))
        if key not in self.pairings:
            a, la, b, lb = key
            eta_inv = self.tensors.eta_inv
            n = self.spec.n
            self.pairings[key] = ClosedForm.sum_of_products(
                ((eta_inv[rho][sig], self.grad(a, la, rho + 1), self.grad(b, lb, sig + 1))
                 for rho in range(n) for sig in range(n) if eta_inv[rho][sig]),
                self.spec.exp_filter())
        return self.pairings[key]

    def entry(self, alpha: int, m1: int, beta: int, m2: int) -> ClosedForm:
        """The two-point function Omega_{alpha,m1;beta,m2}, a signed sum of pairings;
        built on first use and kept in `omega`.  It needs level m1 + m2 + 1."""
        key = (alpha, m1, beta, m2)
        if key not in self.omega:
            if m1 + m2 + 1 > self.m_max:
                raise OrderExceededError(
                    f"need calibration level {m1 + m2 + 1} > m_max {self.m_max}")
            self.omega[key] = _signed_pairings(self.pairing, alpha, m1 + 1, beta, m2)
        return self.omega[key]

    def to_json_obj(self) -> dict:
        return {f"{a},{m}": th.to_json_obj() for (a, m), th in sorted(self.theta.items())}


def solve_calibration(spec: FrobeniusSpec, m_max: int, tensors: Tensors | None = None,
                      cal: Calibration | None = None) -> Calibration:
    """The calibration of `spec` to level m_max; given `cal`, the levels past
    its own m_max are added to it (each level is solved from the one below)."""
    if cal is None:
        t = tensors or build_tensors(spec)
        cal = Calibration(spec, t, 0)
        # theta_{a,0} is the lowered flat coordinate
        for a, th0 in enumerate(raise_index([cf_var(v) for v in spec.varnames], t.eta), 1):
            cal.theta[(a, 0)] = th0
    keep = spec.exp_filter()
    for m in range(cal.m_max, m_max):
        for g in range(1, spec.n + 1):
            cal.theta[(g, m + 1)] = _solve_next_level(spec, cal.tensors, cal, g, m, keep)
        cal.m_max = m + 1
    return cal


def _solve_next_level(spec, t, cal, g, m, keep) -> ClosedForm:
    n = spec.n
    names = spec.varnames
    iota = spec.unity
    level = m + 1

    # Hessian H_{ab} = sum_s c^s_{ab} d theta_{g,m} / dv^s, built for a <= b and mirrored
    grad_prev = [cal.grad(g, m, b) for b in range(1, n + 1)]
    hess = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            hess[a][b] = hess[b][a] = ClosedForm.sum_of_products(
                ((1, t.c_mixed[sig][a][b], grad_prev[sig]) for sig in range(n)), keep)

    # grad[b - 1] is d theta0 / dv^b to the cutoff: potential_from_gradient checks closedness
    grad = [potential_from_gradient([hess[a][b] for a in range(n)], names, keep)
            for b in range(n)]
    theta0 = potential_from_gradient(grad, names, keep)

    # unity-direction normalization: d theta / dv^iota = theta_{g,m}
    affine = {iota: _constant(
        _filtered(cal.theta[(g, m)] - grad[iota - 1], keep),
        f"{spec.name}: unity normalization fails at level {level} for index {g}")}

    # gradient quasi-homogeneity fixes the remaining linear coefficients
    for b in range(1, n + 1):
        coeff = level + spec.mu[g - 1] + spec.mu[b - 1]
        cval = _constant(_euler_rule(
            spec, grad[b - 1], coeff,
            [(g, range(1, level + 1), lambda rho, k: cal.grad(rho, level - k, b))], keep),
            f"{spec.name}: homogeneity obstruction at level {level}, indices ({g},{b}); wrong R?")
        if b == iota:
            # already fixed; the equation must close on its own
            if cval + coeff * affine[iota] != 0:
                raise ObstructionError(
                    f"{spec.name}: unity/homogeneity clash at level {level}, index {g}")
            continue
        if coeff == 0:
            if cval != 0:
                raise ObstructionError(
                    f"{spec.name}: resonant obstruction at level {level}, ({g},{b})")
            affine[b] = F(0)  # free constant: zero choice
        else:
            affine[b] = cval / coeff

    theta1 = theta0
    for b, ab in affine.items():
        if ab:
            theta1 = theta1 + cf_var(names[b - 1]) * ab

    # scalar quasi-homogeneity pins the additive constant
    coeff_s = level + 1 + spec.mu[g - 1] + spec.mu[iota - 1]
    cval = _constant(_euler_rule(
        spec, theta1, coeff_s,
        [(g, range(1, level + 1), lambda rho, k: cal.theta[(rho, level - k)]),
         (g, (level + 1,), lambda rho, k: ClosedForm.const(t.eta[rho - 1][iota - 1]))], keep),
        f"{spec.name}: scalar homogeneity obstruction at level {level}, index {g}")
    if coeff_s == 0:
        if cval != 0:
            raise ObstructionError(
                f"{spec.name}: resonant scalar obstruction at level {level}, index {g}")
    else:
        theta1 = theta1 + ClosedForm.const(cval * (F(1) / coeff_s))
    return theta1


def _signed_pairings(pairing, alpha: int, l: int, beta: int, m: int):
    """sum_{j=0}^{m} (-1)^j P(alpha, l + j; beta, m - j) for a pairing P(alpha, l1;
    beta, l2): the calibration's table, or the hat series pairing in `legendre`,
    added up in one dict by the pairing type's `signed_sum`."""
    parts = [((-1) ** j, pairing(alpha, l + j, beta, m - j)) for j in range(m + 1)]
    return type(parts[0][1]).signed_sum(parts)


def two_point_table(cal: Calibration, order: int) -> Calibration:
    """Builds every entry with m1 + m2 <= order in `cal.omega` and returns `cal`."""
    n = cal.spec.n
    for m1 in range(order + 1):
        for m2 in range(order + 1 - m1):
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    cal.entry(a, m1, b, m2)
    return cal


def check_homogeneity(cal: Calibration) -> dict:
    """The R-corrected Euler rule on every two-point entry built on `cal`;
    exact (or to the cutoff)."""
    spec = cal.spec
    keep = spec.exp_filter()
    failures = []
    for (a, m1, b, m2), om in sorted(cal.omega.items()):
        sides = [(a, range(1, m1 + 1), lambda g, k: cal.entry(g, m1 - k, b, m2)),
                 (b, range(1, m2 + 1), lambda g, k: cal.entry(a, m1, g, m2 - k)),
                 (a, (m1 + m2 + 1,),
                  lambda g, k: ClosedForm.const(cal.tensors.eta[g - 1][b - 1] * (-1) ** m2))]
        weight = m1 + m2 + 1 + spec.mu[a - 1] + spec.mu[b - 1]
        if not _euler_rule(spec, om, weight, sides, keep).is_zero():
            failures.append((a, m1, b, m2))
    return {"pass": not failures, "failures": failures, "entries": len(cal.omega)}


def theta_matrix_coefficients(cal: Calibration, m_max: int | None = None) -> list:
    """Theta_m matrices with (Theta_m)^a_b = eta^{a rho} d theta_{b,m}/dv^rho; they
    supply the resonant levels of the Fuchsian-point solution in `monodromy`."""
    n = cal.spec.n
    m_top = cal.m_max if m_max is None else m_max
    out = []
    for m in range(m_top + 1):
        cols = [raise_index([cal.grad(b + 1, m, rho + 1) for rho in range(n)], cal.tensors.eta_inv)
                for b in range(n)]
        out.append([[cols[b][a] for b in range(n)] for a in range(n)])
    return out


def check_orthogonality(cal: Calibration) -> dict:
    """<grad theta_a(z), grad theta_b(-z)> = eta_ab order by order in z."""
    eta = cal.tensors.eta
    n = cal.spec.n
    failures = []
    for k in range(cal.m_max + 1):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                # (-1)^k times the z^k coefficient: it vanishes with it
                s = _signed_pairings(cal.pairing, a, 0, b, k) - (eta[a - 1][b - 1] if k == 0 else 0)
                if not s.is_zero():
                    failures.append((k, a, b))
    return {"pass": not failures, "failures": failures}
