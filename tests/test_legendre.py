import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from frobwdvv.closedform import ClosedForm, cf_mono
from frobwdvv.core import build_tensors
from frobwdvv.exact import Exact
import frobwdvv.calibration as calibration
import frobwdvv.legendre as legendre
import frobwdvv.series as series
from frobwdvv.legendre import (
    check_gradient_identity, check_metric_transport, check_product_identity,
    check_structure_transport, check_unity_rule, hat_tensors_series,
    round_trip, transform, transform_series,
    transport_calibration, verify_euler_hat, verify_omega_transport, verify_pointwise,
)
from frobwdvv.series import Grading, SingularJacobianError, TruncSeries, localize
from frobwdvv.solver import recursion_ck, recursion_wk, solve_ckl_and_a
from frobwdvv.specs import ccc_potential, load_spec
from frobwdvv.core import FrobeniusSpec

from conftest import cf_exp, cf_log, series_equal_mod_quadratic

F = Fraction


@pytest.fixture(scope="module")
def p1_res():
    return transform(load_spec("p1"), 2, (F(0), F(0)), 8, m_max=5)


@pytest.fixture(scope="module")
def a2_res():
    return transform(load_spec("a2"), 2, (F(0), F(3)), 8, m_max=5)


def _as_hat_series(res, cand, names):
    s = localize(cand, names, res.hat_center, res.hat_potential.grading)
    return TruncSeries(res.hat_vars, res.hat_center, dict(s.coeffs),
                       res.hat_potential.grading)


def test_p1_s2_matches_printed_potential(p1_res):
    cand = (cf_mono(F(1, 2), {"h1": 1, "h2": 2}) + cf_mono(F(1, 2), {"h1": 2}, {"h1": 1})
            - cf_mono(F(3, 4), {"h1": 2}))
    cs = _as_hat_series(p1_res, cand, ("h1", "h2"))
    assert series_equal_mod_quadratic(p1_res.hat_potential, cs)
    # the defining identity even fixes the quadratic part: Hessians agree exactly
    for x in p1_res.hat_vars:
        for y in p1_res.hat_vars:
            d = (p1_res.hat_potential.diff(x).diff(y) - cs.diff(x).diff(y))
            assert d.truncate(d.grading.order - 2).is_zero()


def test_p1_s2_charge_and_euler(p1_res):
    rep = verify_euler_hat(p1_res)
    assert rep["pass"] and rep["hat_charge"] == -1
    assert rep["hat_shifts"] == (0, 0)


def test_a2_s2_matches_printed_potential(a2_res):
    cand = (cf_mono(F(1, 2), {"h1": 1, "h2": 2})
            + cf_mono(F(4, 5) * Exact({6: F(1, 3)}), {"h1": F(5, 2)}))
    cs = _as_hat_series(a2_res, cand, ("h1", "h2"))
    assert series_equal_mod_quadratic(a2_res.hat_potential, cs)


def test_identity_transform_is_identity():
    spec = load_spec("p1")
    res = transform(spec, spec.unity, (F(0), F(0)), 8, m_max=5)
    f = localize(spec.potential, spec.varnames, res.center, res.grading)
    hat = TruncSeries(f.vars, f.center, dict(res.hat_potential.coeffs), f.grading)
    assert series_equal_mod_quadratic(hat, f)


def test_round_trips(p1_res, a2_res):
    assert round_trip(p1_res)["pass"]
    assert round_trip(a2_res)["pass"]


def test_metric_transport(p1_res, a2_res):
    assert check_metric_transport(p1_res)["pass"]
    assert check_metric_transport(a2_res)["pass"]


def test_calibration_transport(p1_res):
    ht = transport_calibration(p1_res, 3)
    # theta-hat_{a,0} are the lowered hat coordinates
    for a in (1, 2):
        th = ht[(a, 0)]
        got = dict(th.coeffs)
        got.pop(tuple([0] * 2), None)  # center offset
        lin = {k: v for k, v in got.items() if sum(k) == 1}
        assert all(sum(k) <= 1 or v == 0 for k, v in got.items())
        # lowered hat coordinate: eta pairing of the coordinate offsets
        j = 2 - a  # antidiagonal metric
        assert lin == {tuple(int(i == j) for i in range(2)): F(1)}
    assert check_gradient_identity(p1_res, ht)["pass"]
    assert check_unity_rule(p1_res, ht)["pass"]


def test_omega_transport_tables(p1_res, a2_res):
    assert verify_omega_transport(p1_res, 3, 4)["pass"]
    assert verify_omega_transport(a2_res, 2, 4)["pass"]


def test_omega_transport_past_the_levels_raises(p1_res):
    # an order-4 entry needs level 5; it is refused, not skipped
    with pytest.raises(calibration.OrderExceededError, match="level 5"):
        verify_omega_transport(p1_res, 4, 4)


def test_omega_transport_forms_each_hat_pairing_once(p1_res, monkeypatch):
    # the order-3 table reads 80 hat pairings, 30 of them distinct up to the
    # (alpha, l1) <-> (beta, l2) swap; each is formed once
    products, reads, formed = [0], [], []
    real_products, real_signed = TruncSeries.sum_of_products, legendre._signed_pairings

    def counting_products(triples):
        products[0] += 1
        return real_products(triples)

    def signed(pairing, *args):
        def read(*key):
            before = products[0]
            out = pairing(*key)
            reads.append(key)
            formed.extend([key] * (products[0] - before))
            return out
        return real_signed(read, *args)
    monkeypatch.setattr(TruncSeries, "sum_of_products", staticmethod(counting_products))
    monkeypatch.setattr(legendre, "_signed_pairings", signed)
    assert verify_omega_transport(p1_res, 3, 4)["pass"]
    assert len(reads) == 80 and len(formed) == 30
    assert len({min(k, k[2:] + k[:2]) for k in formed}) == 30


def test_potential_from_an_int_hessian_divides_exactly():
    # the Hessian entry x (int coefficient 1) integrates to x^3 / 6 by dividing
    # the int coefficient by the int 3 * 2
    g = Grading.total_degree(2, 4)
    frame = (("x", "y"), (F(0), F(0)))
    zero = TruncSeries(*frame, {}, g)
    wxx = TruncSeries(*frame, {(1, 0): 1}, g, _clean=True)
    pot = legendre._potential_from_hessian_series({(0, 0): wxx, (0, 1): zero, (1, 1): zero},
                                                  *frame, g)
    assert pot.coeffs == {(3, 0): F(1, 6)} and type(pot.coeffs[(3, 0)]) is Fraction


def test_p1orb_hat_euler_data():
    spec = load_spec("p1orb")
    res2 = transform(spec, 2, (F(0), F(0), F(0)), 6, m_max=4)
    rep2 = verify_euler_hat(res2)
    assert rep2["pass"] and rep2["hat_charge"] == 0
    res3 = transform(spec, 3, (F(0), F(0), F(0)), 6, m_max=4)
    rep3 = verify_euler_hat(res3)
    assert rep3["pass"] and rep3["hat_charge"] == -1


def test_p1orb_s2_printed_potential():
    spec = load_spec("p1orb")
    res = transform(spec, 2, (F(0), F(0), F(0)), 7, m_max=4)
    cand = (cf_mono(F(1, 6), {"h2": 3}) + cf_mono(F(1), {"h1": 1, "h2": 1, "h3": 1})
            + cf_mono(F(1, 6), {"h1": 1, "h3": 3})
            + cf_mono(F(1, 2), {"h1": 2}, {"h1": 1}) - cf_mono(F(3, 4), {"h1": 2}))
    cs = _as_hat_series(res, cand, ("h1", "h2", "h3"))
    assert series_equal_mod_quadratic(res.hat_potential, cs)


def test_p1orb_s3_printed_potential():
    spec = load_spec("p1orb")
    res = transform(spec, 3, (F(0), F(0), F(0)), 7, m_max=4)
    cand = (cf_mono(F(1, 2), {"h3": 2, "h1": 1}) + cf_mono(F(1, 2), {"h2": 2, "h3": 1})
            + cf_mono(F(1, 2), {"h1": 2}, {"h2": 1}))
    cs = _as_hat_series(res, cand, ("h1", "h2", "h3"))
    assert series_equal_mod_quadratic(res.hat_potential, cs)


def test_singular_direction_raises():
    spec = load_spec("a2")
    # multiplication by the second direction is nilpotent where v2 = 0
    with pytest.raises(SingularJacobianError):
        transform(spec, 2, (F(0), F(0)), 4, m_max=3)


@pytest.mark.parametrize("name, kappa, center, order, error", [
    pytest.param("ccc_a111", 2, (0, 0, 0), 4, SingularJacobianError, id="ccc_a111"),
    pytest.param("p2", 3, (0, 2, 1), 4, calibration.ObstructionError, id="p2"),
])
def test_singular_jacobian_is_not_retried(monkeypatch, name, kappa, center, order, error):
    # a truncated spec is materialized once; neither a singular Jacobian nor a
    # failed Hessian accuracy gate earns a deeper retry
    import frobwdvv.specs as specs
    calls = []
    deepen = specs.deepen_spec

    def counting(spec, degree):
        calls.append(degree)
        return deepen(spec, degree)

    monkeypatch.setattr(specs, "deepen_spec", counting)
    with pytest.raises(error):
        transform(load_spec(name), kappa, tuple(F(c) for c in center), order, m_max=2)
    assert len(calls) == 1


def test_kappa_column_is_inverted_before_the_rest_of_the_hessian(monkeypatch):
    # a2 at the origin: the kappa column (n = 2 localizations) already shows
    # the singular Jacobian, so no other Hessian entry is expanded
    calls = []
    orig = legendre.localize
    monkeypatch.setattr(legendre, "localize", lambda *a: calls.append(a) or orig(*a))
    with pytest.raises(SingularJacobianError):
        transform(load_spec("a2"), 2, (F(0), F(0)), 4, m_max=3)
    assert len(calls) == 2


@pytest.mark.parametrize("name, center, order, m_max", [
    pytest.param("a2", (0, 0), 4, 3, id="a2"),
    pytest.param("ccc_a111", (0, 0, 0), 4, 2, id="ccc_a111"),
])
def test_singular_jacobian_solves_only_calibration_level_1(monkeypatch, name, center, order,
                                                           m_max):
    # the Hessian reads level 1 only; the levels past it wait for the inverse
    calls = []
    orig = calibration._solve_next_level
    monkeypatch.setattr(calibration, "_solve_next_level",
                        lambda spec, t, cal, g, m, keep: calls.append(m + 1)
                        or orig(spec, t, cal, g, m, keep))
    spec = load_spec(name)
    with pytest.raises(SingularJacobianError):
        transform(spec, 2, tuple(F(c) for c in center), order, m_max=m_max)
    assert calls == [1] * spec.n


@pytest.mark.parametrize("name, center, m_max", [
    pytest.param("a2", (0, 3), 3, id="a2"),
    pytest.param("p1", (0, 0), 4, id="p1"),
    pytest.param("p1", (0, 0), 0, id="p1-m0"),
])
def test_transform_ends_with_the_full_calibration(name, center, m_max):
    res = transform(load_spec(name), 2, tuple(F(c) for c in center), 6, m_max=m_max)
    assert res.cal.m_max == max(m_max, 1)
    want = calibration.solve_calibration(res.spec, max(m_max, 1)).to_json_obj()
    assert json.dumps(res.cal.to_json_obj()) == json.dumps(want)


def test_transform_expands_the_calibration_two_point_entries(monkeypatch):
    # the Hessian of the hat step is Omega_{a,0;b,0} = d_a d_b F, kept on the
    # result's calibration: the kappa column and the upper triangle off the kappa row
    forms = []
    orig = legendre.localize
    monkeypatch.setattr(legendre, "localize", lambda f, *a: forms.append(f) or orig(f, *a))
    kappa = 2
    res = transform(load_spec("a2"), kappa, (F(0), F(3)), 6, m_max=3)
    spec, n = res.spec, res.spec.n
    assert set(res.cal.omega) == (
        {(a, 0, kappa, 0) for a in range(1, n + 1)}
        | {(a, 0, b, 0) for a in range(1, n + 1) for b in range(a, n + 1) if a != kappa})
    assert {id(f) for f in forms} == {id(f) for f in res.cal.omega.values()}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            hess = spec.potential.diff(spec.varnames[a - 1]).diff(spec.varnames[b - 1])
            assert res.cal.entry(a, 0, b, 0) == hess


@pytest.mark.parametrize("name, kappa, center, entries", [
    pytest.param("p1orb", 2, (0, 0, 0), 6, id="p1orb"),
    pytest.param("a2", 2, (0, 3), 3, id="a2"),
])
def test_hat_step_composes_the_upper_triangle(monkeypatch, name, kappa, center, entries):
    # n(n + 1)/2 Hessian entries are transported, as a calibration level integrates
    calls = []
    orig = legendre.compose
    monkeypatch.setattr(legendre, "compose", lambda *a: calls.append(a) or orig(*a))
    transform(load_spec(name), kappa, tuple(F(c) for c in center), 6, m_max=2)
    assert len(calls) == entries


def test_hat_hessian_that_is_not_closed_is_an_obstruction(capsys):
    # p2 at (0,2,1): the accuracy gate of the materialized tail fails first at
    # (2,2,0), where the (y2, y2) entry's quotient disagrees with the (y1, y1) one
    with pytest.raises(calibration.ObstructionError, match=r"\(y2, y2\) at \(2, 2, 0\)"):
        transform(load_spec("p2"), 3, (F(0), F(2), F(1)), 4, m_max=2)
    from frobwdvv.cli import main
    assert main(["legendre", "p2", "--kappa", "3", "--center", "0,2,1", "--order", "4",
                 "--m-max", "2"]) == 4
    assert "ObstructionError" in capsys.readouterr().err


def test_float_transform_does_not_import_numpy():
    # the p2 float op of the benchmark: transform, transport and the five checks
    code = """
import sys
from fractions import Fraction as F
from frobwdvv import legendre as L
from frobwdvv.specs import load_spec
res = L.transform(load_spec("p2"), 3, (F(0), F(0), F(1, 10)), 5, m_max=2)
th = L.transport_calibration(res, 1)
checks = [L.verify_euler_hat(res), L.check_metric_transport(res),
          L.check_gradient_identity(res, th), L.check_unity_rule(res, th), L.round_trip(res)]
assert all(c["pass"] for c in checks), checks
print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_each_monomial_is_localized_once_per_result(monkeypatch):
    # a2 at (0, 3): the transform, the calibration transport and the gradient
    # check share the result's memo; a second transform starts an empty one
    expanded, forms = [], []
    expand, orig = series._expand_monomial, legendre.localize
    monkeypatch.setattr(series, "_expand_monomial",
                        lambda mono, *a: expanded.append(mono) or expand(mono, *a))
    monkeypatch.setattr(legendre, "localize", lambda f, *a: forms.append(f) or orig(f, *a))
    spec = load_spec("a2")
    res = transform(spec, 2, (F(0), F(3)), 8, m_max=3)
    assert check_gradient_identity(res, transport_calibration(res, 2))["pass"]
    monos = {m for f in forms for m in f.terms}
    assert len(expanded) == len(set(expanded)) == len(monos) < sum(len(f.terms) for f in forms)
    assert set(res.localized) == monos
    del expanded[:], forms[:]
    again = transform(spec, 2, (F(0), F(3)), 8, m_max=3)
    assert again.localized is not res.localized
    assert len(expanded) == len({m for f in forms for m in f.terms}) == len(again.localized) > 0


def test_pointwise_p1():
    spec = load_spec("p1")
    cand = (cf_mono(F(1, 2), {"h1": 1, "h2": 2}) + cf_mono(F(1, 2), {"h1": 2}, {"h1": 1})
            - cf_mono(F(3, 4), {"h1": 2}))
    pts = [(0.3, 0.2), (-0.5, 1.1), (1.3, -0.4), (0.05, 2.0), (2.0, 0.7),
           (-1.2, 0.9), (0.8, -1.5), (0.4, 0.6), (-0.9, -0.2), (1.7, 1.2)]
    rep = verify_pointwise(spec, 2, cand, pts, tol=1e-8)
    assert rep["pass"], rep


def test_pointwise_p2_s2(monkeypatch):
    """The c_k candidate passes, and each point evaluates the n(n+1)/2 entries
    a <= b of the straight and of the hat Hessian once: the hat point comes
    from the straight kappa row."""
    spec = load_spec("p2")
    ck = recursion_ck(6).table()
    cand = cf_mono(F(1, 6), {"h2": 3}) + cf_mono(F(1), {"h1": 1, "h2": 1, "h3": 1})
    for k in range(0, 7):
        cand = cand + cf_mono(ck[k] / math.factorial(3 * k), {"h1": 3 * k},
                              None, {"h3": 1 - 2 * k})
    calls = []
    evaluate = ClosedForm.evaluate

    def counted(self, point, factors=None):
        calls.append(1)
        return evaluate(self, point, factors)

    monkeypatch.setattr(ClosedForm, "evaluate", counted)
    pts = [(0.4, 0.1, 0.2), (-0.3, -0.1, 0.15), (0.9, 0.25, 0.1)]
    rep = verify_pointwise(spec, 2, cand, pts, tol=1e-8)
    assert rep["pass"], rep
    assert len(calls) == 12 * len(pts)


def test_pointwise_ccc_s3():
    # the one-variable reduction argument is about 64 e^{v3}: sample well inside
    # its convergence disk, with a dedicated deep truncation for the quartic term
    spec0 = load_spec("ccc_a111")
    from dataclasses import replace
    spec = replace(spec0, potential=ccc_potential(14), exp_cutoff=F(14))
    wk = recursion_wk(10).table()
    cand = (cf_mono(F(1, 2), {"h2": 2, "h3": 1}) + cf_mono(F(1, 2), {"h1": 1, "h3": 2})
            + cf_mono(F(2), {"h1": 2}, {"h2": 1}) - cf_mono(F(3, 2), {"h1": 2}, {"h1": 1}))
    for k, w in wk.items():
        cand = cand + cf_mono(w, {"h1": 2 - 3 * k, "h2": 4 * k})
    # the quadratic term off * h1^2 the printed potential leaves out
    import math
    cand = cand + cf_mono(F((9 - 12 * math.log(2)) / 4), {"h1": 2})
    pts = [(0.3, 1.2, -6.5), (0.7, 0.9, -7.0), (-0.4, 1.4, -8.0)]
    rep = verify_pointwise(spec, 3, cand, pts, tol=1e-8)
    assert rep["pass"], rep


def test_pointwise_p1xp1_s21():
    spec = load_spec("p1xp1")
    sols = solve_ckl_and_a(max_ckl_level=2, max_a_level=19)
    a = sols["a"].table()
    cand = (cf_mono(F(1, 2), {"h3": 2, "h2": 1}) + cf_mono(F(1), {"h1": 1, "h3": 1, "h4": 1})
            + cf_mono(F(1), {"h1": 1, "h2": 1}, {"h1": 1}) - cf_mono(F(1), {"h1": 1, "h2": 1}))
    for (m1, m2), v in a.items():
        if v:
            cand = cand + cf_mono(v, {"h1": F(3 - m1 - 2 * m2, 2), "h2": m1},
                                  None, {"h4": m2})
    pts = [(0.0, -1.6, -1.8, 0.1), (0.1, -2.0, -1.5, 0.08)]
    rep = verify_pointwise(spec, 3, cand, pts, tol=1e-6)
    assert rep["pass"], rep


def test_transform_series_standalone():
    # series-only route agrees with the closed-form route for the line example
    spec = load_spec("p1")
    t = build_tensors(spec)
    f = localize(spec.potential, spec.varnames, (F(0), F(0)),
                 __import__("frobwdvv.series", fromlist=["Grading"]).Grading.total_degree(2, 8))
    _, fhat = transform_series(f, t.eta_inv, 2)
    res = transform(spec, 2, (F(0), F(0)), 8, m_max=5)
    hat = TruncSeries(fhat.vars, fhat.center, dict(res.hat_potential.coeffs), fhat.grading)
    assert series_equal_mod_quadratic(fhat, hat)


def test_truncated_family_series_route():
    # generator-backed specs re-materialize deep enough for the requested
    # series order; the transported calibration then satisfies the gradient
    # identity on the float path
    spec = load_spec("p2")
    res = transform(spec, 2, (F(0), F(0), F(1, 10)), 6, m_max=4)
    assert res.spec.generator[1] > spec.generator[1]
    ht = transport_calibration(res, 3)
    assert check_gradient_identity(res, ht)["pass"]
    assert check_unity_rule(res, ht)["pass"]
    assert round_trip(res)["pass"]
    rep = verify_euler_hat(res)
    assert rep["pass"] and rep["hat_charge"] == 0  # -2 mu_2 with mu_2 = 0


def test_nls_inverse_direction_recovers_line_potential():
    # the unity-direction transform of the transformed manifold is the original
    nls = load_spec("nls")
    res = transform(nls, 1, (F(1), F(0)), 8, m_max=5)
    p1 = load_spec("p1")
    want = localize(p1.potential, p1.varnames, (F(0), F(0)), res.hat_potential.grading)
    got = TruncSeries(want.vars, want.center, dict(res.hat_potential.coeffs),
                      want.grading)
    assert series_equal_mod_quadratic(got, want)


def test_half_integer_family_transform():
    from frobwdvv.specs import twodim_spec
    spec = twodim_spec(F(3, 2), F(1))
    res = transform(spec, 2, (F(0), F(1)), 6, m_max=4)
    rep = verify_euler_hat(res)
    # transformed charge is -2 mu_2 = -D/... the family has D = -3 here
    assert rep["pass"] and rep["hat_charge"] == 3
    assert round_trip(res)["pass"]


def test_p2_s2_hat_euler_shifts():
    # the transformed Euler data of the plane example: charge 0 and a constant
    # shift 3 in the last direction
    spec = load_spec("p2")
    res = transform(spec, 2, (F(0), F(0), F(1, 10)), 5, m_max=3)
    rep = verify_euler_hat(res)
    assert rep["pass"]
    assert rep["hat_charge"] == 0
    assert rep["hat_shifts"] == (0, 0, 3)


def test_p2_s3_hat_euler_data():
    spec = load_spec("p2")
    res = transform(spec, 3, (F(0), F(0), F(1, 10)), 5, m_max=3)
    rep = verify_euler_hat(res)
    assert rep["pass"]
    assert rep["hat_charge"] == -2
    assert rep["hat_shifts"] == (0, 0, 0)


@pytest.mark.parametrize("m, c", [("5/3", "-2/3"), ("7/3", "9/56"), ("7/3", "-9/56"),
                                  ("1/3", "1"), ("1/3", "-2/3")])
def test_twodim_cube_root_members_stay_exact(m, c):
    # u^m with a denominator-3 exponent, localized at u = 1: 1^(p/3) = 1 is
    # exact, so the whole transport stays exact and every check holds
    from frobwdvv.specs import twodim_spec
    res = transform(twodim_spec(F(m), F(c)), 2, (F(0), F(1)), 12, m_max=4)
    assert res.hat_potential.is_exact()
    thetas = transport_calibration(res, 3)
    assert verify_euler_hat(res)["pass"]
    assert check_metric_transport(res)["pass"]
    assert check_gradient_identity(res, thetas)["pass"]
    assert check_unity_rule(res, thetas)["pass"]
    rt = round_trip(res)
    assert rt["pass"] and rt["exact"]


def test_each_mixed_entry_is_pulled_back_once(a2_res, monkeypatch):
    # one pullback per c_mixed entry used: n^3 in hat_tensors_series and
    # n^2 in check_product_identity (n = 2), not one per hat index as well
    calls = []
    orig = legendre.pullback
    monkeypatch.setattr(legendre, "pullback", lambda res, f: calls.append(f) or orig(res, f))
    hat_tensors_series(a2_res)
    assert len(calls) == 8
    calls.clear()
    assert check_product_identity(a2_res)["pass"]
    assert len(calls) == 4


def _p1_result():
    # a fresh result per mutant: some of them edit the calibration's table
    return transform(load_spec("p1"), 2, (F(0), F(0)), 8, m_max=5)


def _hat_monomial(res, idx, coeff):
    return TruncSeries(res.hat_vars, res.hat_center, {idx: coeff}, res.hat_potential.grading)


def test_hat_checks_catch_a_theta_off_the_hat_gradient():
    # theta-hat_{1,2} + x1^2/7: its x1 gradient and the x2 gradient of theta-hat_{1,3}
    res = _p1_result()
    thetas = transport_calibration(res, 3)
    thetas[(1, 2)] = thetas[(1, 2)] + _hat_monomial(res, (2, 0), F(1, 7))
    grad, unity = check_gradient_identity(res, thetas), check_unity_rule(res, thetas)
    assert not grad["pass"] and grad["failures"] == [(1, 2, 1)]
    assert not unity["pass"] and unity["failures"] == [(1, 2)]


def test_two_point_transport_catches_one_wrong_entry():
    res = _p1_result()
    cal = res.cal
    cal.omega[(1, 0, 1, 1)] = cal.entry(1, 0, 1, 1) + cf_mono(F(1, 3), {"v1": 1})
    rep = verify_omega_transport(res, 2, 4)
    assert not rep["pass"] and rep["failures"] == [(1, 0, 1, 1)] and rep["checked"] == 24


def test_structure_transport_catches_a_wrong_hat_potential():
    res = _p1_result()
    res.hat_potential = res.hat_potential + _hat_monomial(res, (2, 1), F(1, 5))
    rep = check_structure_transport(res)
    assert not rep["pass"] and rep["failures"] == [(1, 2, 1), (2, 1, 1), (1, 1, 2)]


def test_product_identity_catches_a_wrong_inverse_map():
    res = _p1_result()
    first, *rest = res.inverse_map.components
    res.inverse_map = series.SeriesMap((first + _hat_monomial(res, (0, 2), F(1, 9)), *rest))
    rep = check_product_identity(res)
    assert not rep["pass"] and rep["failures"] == [(1, 2)]


def test_euler_hat_catches_a_wrong_shift():
    res = _p1_result()
    res.hat_shifts = (0, 1)
    rep = verify_euler_hat(res)
    assert not rep["pass"] and rep["failures"] == [2]


def test_metric_transport_catches_a_wrong_hat_coordinate():
    res = _p1_result()
    cal = res.cal
    cal.omega[(1, 0, 2, 0)] = cal.entry(1, 0, 2, 0) + cf_mono(F(1, 2), {"v2": 2})
    rep = check_metric_transport(res)
    assert not rep["pass"] and rep["failures"] == [(1, 1)]


@pytest.mark.parametrize("name, kappa, center, order, m_max", [
    pytest.param("p1orb", 2, (0, 0, 0), 6, 4, id="p1orb-kappa2"),
    pytest.param("p1orb", 3, (0, 0, 0), 6, 4, id="p1orb-kappa3"),
    pytest.param("nls", 1, (1, 0), 8, 4, id="nls-kappa1"),
])
def test_hat_structure_checks_past_the_plane(name, kappa, center, order, m_max):
    # n = 3 and a kappa = 1 transform reach the structure, product and two-point checks
    res = transform(load_spec(name), kappa, tuple(F(c) for c in center), order, m_max=m_max)
    assert check_structure_transport(res)["pass"]
    assert check_product_identity(res)["pass"]
    rep = verify_omega_transport(res, 2, 3)
    assert rep["pass"] and rep["checked"] == 6 * res.spec.n ** 2


def test_hat_checks_differentiate_each_series_once(p1_res, a2_res, monkeypatch):
    # the two-point check takes the n hat gradients of each of the n(order + 2)
    # theta-hats it reads once, so (a2, order 2, m_max 4) leaves level 4 alone;
    # the structure check takes dv/dvhat (n^2) and F-hat's derivatives along
    # sorted index prefixes: n + n(n+1)/2 + n(n+1)(n+2)/6
    calls = []
    diff = TruncSeries.diff
    monkeypatch.setattr(TruncSeries, "diff", lambda s, var: calls.append(var) or diff(s, var))
    assert verify_omega_transport(p1_res, 3, 4)["pass"]
    assert len(calls) == 20
    calls.clear()
    assert verify_omega_transport(a2_res, 2, 4)["pass"]
    assert len(calls) == 16
    calls.clear()
    assert check_structure_transport(a2_res)["pass"]
    assert len(calls) == 4 + 2 + 3 + 4
