"""Differential-polynomial algebra in jet variables and the genus-one
free-energy identity under a change of direction in the dispersionless flows.

Jet variables are plain closed-form variables named "<base>_<k>"; the total
space derivative raises the order.  Genus-one free energies are represented as
rational-coefficient combinations sum_i q_i log(P_i) with P_i in the jet ring;
constancy of a combination is checked exactly through its logarithmic
derivative, which stays inside the ring.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .closedform import ClosedForm, NeedsFloatError, cf_mono, cf_var
from .core import FrobeniusSpec, Tensors, build_tensors
from .exact import rational_power
from .specs import load_spec, twodim_spec

__all__ = [
    "JetOrderOverflow", "jet_name", "total_x", "flow_derivation", "LogCombo",
    "combo_substitute", "check_constant_combo", "combo_value",
    "genus1_twodim_family", "genus1_report", "p1_family_data", "a2_family_data",
]

F = Fraction


class JetOrderOverflow(ArithmeticError):
    pass


def jet_name(base: str, k: int) -> str:
    return base if k == 0 else f"{base}_{k}"


def split_jet(name: str) -> tuple[str, int]:
    if "_" in name:
        b, k = name.rsplit("_", 1)
        if k.isdigit():
            return b, int(k)
    return name, 0


def total_x(f: ClosedForm, basenames, kmax: int = 3) -> ClosedForm:
    """Total space derivative: each jet slot feeds the next one up."""
    triples = []
    for v in sorted(f.variables()):
        base, k = split_jet(v)
        if base not in basenames:
            continue
        if k + 1 > kmax:
            raise JetOrderOverflow(f"jet order {k + 1} exceeds cap {kmax}")
        triples.append((1, cf_var(jet_name(base, k + 1)), f.diff(v)))
    return ClosedForm.sum_of_products(triples)


def flow_derivation(spec: FrobeniusSpec, kappa: int, tensors: Tensors | None = None,
                    kmax: int = 3):
    """Derivation for the kappa-direction primary flow: on base variables it is
    d v^g = sum_b c^g_{kappa b} v^b_1, extended to jets through the commuting
    space derivative."""
    t = tensors or build_tensors(spec)
    n = spec.n
    names = spec.varnames
    slopes = [cf_var(jet_name(v, 1)) for v in names]
    vel = [ClosedForm.sum_of_products((1, t.c_mixed[g][kappa - 1][b], slopes[b]) for b in range(n))
           for g in range(n)]

    def dt(f: ClosedForm) -> ClosedForm:
        coeffs = {0: vel}
        triples = []
        for v in sorted(f.variables()):
            base, k = split_jet(v)
            if base not in names:
                continue
            while k not in coeffs:
                kk = max(coeffs)
                coeffs[kk + 1] = [total_x(c, names, kmax) for c in coeffs[kk]]
            triples.append((1, coeffs[k][names.index(base)], f.diff(v)))
        return ClosedForm.sum_of_products(triples)

    return dt


# a genus-one free energy: sum of q_i * log(P_i), P_i in the jet ring
LogCombo = list


def combo_substitute(combo: LogCombo, table: dict) -> LogCombo:
    return [(q, p.substitute_monomials(table)) for q, p in combo]


def _combo_merge(combo: LogCombo) -> LogCombo:
    out: list = []
    for q, p in combo:
        for i, (q0, p0) in enumerate(out):
            if (p - p0).is_zero():
                out[i] = (q0 + q, p0)
                break
        else:
            out.append((q, p))
    return [(q, p) for q, p in out if q]


def check_constant_combo(combo: LogCombo) -> dict:
    """Exact check that sum q_i log P_i has zero derivative in every base and
    jet variable: sum_i q_i (d P_i) prod_{j != i} P_j = 0 in the ring."""
    combo = _combo_merge(combo)
    variables = set()
    for _, p in combo:
        variables |= p.variables()
    denom_lcm = math.lcm(*(q.denominator for q, _ in combo))
    one = ClosedForm.const(1)
    cofactors = [math.prod((p for j, (_, p) in enumerate(combo) if j != i), start=one)
                 for i in range(len(combo))]
    failures = []
    for v in sorted(variables):
        total = ClosedForm.sum_of_products((q * denom_lcm, p.diff(v), cof)
                                           for (q, p), cof in zip(combo, cofactors))
        if not total.is_zero():
            failures.append(v)
    return {"pass": not failures, "failures": failures, "terms": len(combo)}


def combo_value(combo: LogCombo, point: dict) -> complex:
    total = 0j
    for (q, _), value in zip(combo, ClosedForm.evaluator(p for _, p in combo)(point)):
        total += float(q) * cmath.log(value)
    return total


# ---------------------------------------------------------------------------
# the worked two-dimensional family
# ---------------------------------------------------------------------------

def genus1_twodim_family(m: Fraction, c: Fraction) -> dict:
    """F1 data for the potential (1/2) v^2 u + c u^m and its second-direction
    transform; the hat expressions below are the printed closed forms."""
    m, c = F(m), F(c)
    spec = twodim_spec(m, c)
    v, u = "v1", "v2"
    v1, u1 = jet_name(v, 1), jet_name(u, 1)

    qm = cf_mono(F(1), {v1: 2}) - cf_mono(c * m * (m - 1) * (m - 2), {u: m - 3, u1: 2})
    fm1: LogCombo = [(F(1, 24), qm)]
    lc = -(m - 3) * (m - 4) / (24 * (m - 1))
    if lc:
        fm1.append((lc, cf_var(u)))

    base, expo = c * m * (m - 1), F(-1) / (m - 2)
    kconst = rational_power(base, expo)
    if kconst is None:
        raise NeedsFloatError(f"m = {m}, c = {c}: the hat constant "
                              f"(c m (m - 1))^(-1/(m - 2)) = ({base})^({expo}) is not exact")
    qh = (cf_mono(F(1), {"h2_1": 2})
          - cf_mono(kconst * F(1) / (m - 2), {"h1": -(m - 3) / (m - 2), "h1_1": 2}))
    fhat1: LogCombo = [(F(1, 24), qh)]
    lch = -(m - 3) * (2 * m - 5) / (24 * (m - 1) * (m - 2))
    if lch:
        fhat1.append((lch, cf_var("h1")))

    hat_map = {"h1": cf_mono(c * m * (m - 1), {u: m - 2}), "h2": cf_var(v)}
    return {"spec": spec, "fm1": fm1, "fhat1": fhat1, "hat_map": hat_map}


def p1_family_data() -> dict:
    """Printed genus-one data for the exponential two-dimensional example."""
    spec = load_spec("p1")
    qm = cf_mono(F(1), {"v1_1": 2}) - cf_mono(F(1), {"v2_1": 2}, None, {"v2": 1})
    fm1 = [(F(1, 24), qm), (F(-1, 24), cf_mono(F(1), None, None, {"v2": 1}))]
    qh = cf_mono(F(1), {"h2_1": 2}) - cf_mono(F(1), {"h1": -1, "h1_1": 2})
    fhat1 = [(F(1, 24), qh), (F(-1, 12), cf_var("h1"))]
    hat_map = {"h1": cf_mono(F(1), None, None, {"v2": 1}), "h2": cf_var("v1")}
    return {"spec": spec, "fm1": fm1, "fhat1": fhat1, "hat_map": hat_map}


def a2_family_data() -> dict:
    """Genus-one data of a2, the member (1/2) v1^2 v2 + v2^4 / 72 of the general family."""
    return genus1_twodim_family(F(4), F(1, 72))


GENUS1_KAPPA = 2    # the hat direction of every bundled genus-one family
GENUS1_SAMPLE = {"v1": 0.37, "v2": 2.21, "v1_1": 0.59, "v2_1": 0.83}


def genus1_report(data: dict) -> dict:
    """Verify the genus-one identity for one family: after rewriting the hat
    jets through the kappa-flow, the difference of the two free energies has
    zero dependence on every base and jet variable; the leftover constant is
    reported (a constant is allowed in genus one)."""
    spec = data["spec"]
    dt = flow_derivation(spec, GENUS1_KAPPA)
    table = dict(data["hat_map"])
    for hv, form in list(data["hat_map"].items()):
        table[jet_name(hv, 1)] = dt(form)
    hat_sub = combo_substitute(data["fhat1"], table)
    delta = list(data["fm1"]) + [(-q, p) for q, p in hat_sub]
    rep = check_constant_combo(delta)
    rep["constant"] = combo_value(delta, GENUS1_SAMPLE)
    return rep
