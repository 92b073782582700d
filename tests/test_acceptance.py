"""Acceptance suite: one test per criterion, each at its stated tolerance and
with its runtime budget enforced.  Run with `pytest -v tests/test_acceptance.py`
to get one pass/fail line per criterion.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from frobwdvv.calibration import check_homogeneity, check_orthogonality, solve_calibration, two_point_table
from frobwdvv.closedform import cf_mono
from frobwdvv.core import build_tensors, check_wdvv
from frobwdvv.exact import Exact
from frobwdvv.jets import a2_family_data, genus1_report, genus1_twodim_family, p1_family_data
from frobwdvv.legendre import (
    round_trip, transform, transport_calibration,
    verify_euler_hat, verify_omega_transport,
)
from frobwdvv.monodromy import (
    frame_invariance_report, hamiltonians_and_closedness, monodromy_identities,
    phi_orthogonality_residual, phi_recursion, semisimple_at, stokes_and_connection,
    tensor_monodromy,
)
from frobwdvv.series import TruncSeries, localize
from frobwdvv.solver import (
    nd_via_ode_route, recursion_ck, recursion_mk, recursion_nd, recursion_nkl,
    recursion_qk, recursion_wk, solve_ckl_and_a,
)
from frobwdvv.specs import BUILTIN_SPECS, load_spec

from conftest import series_equal_mod_quadratic

F = Fraction

_budget_report = []


def budget(limit):
    class _Timer:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.t0
            if exc[0] is None:
                assert self.elapsed < limit, f"runtime {self.elapsed:.1f}s over budget {limit}s"
    return _Timer()


def spec_with_params(name):
    return load_spec(name, {"m": "4", "c": "1"} if name == "twodim" else None)


def test_criterion_1_plane_curve_counts():
    """Degree counts 1,1,12,620 and dual-route agreement through degree six."""
    with budget(1.0):
        table = recursion_nd(6).table()
        assert [table[d] for d in (1, 2, 3, 4)] == [1, 1, 12, 620]
        assert nd_via_ode_route(6).table() == table


def test_criterion_2_appendix_coefficient_tables():
    """All printed appendix coefficients, exactly, in under ten seconds."""
    with budget(10.0):
        ck = recursion_ck(6).table()
        assert [ck[k] for k in range(7)] == [1, 1, -2, 104, -24920, 16361976,
                                             -22819065536]
        mk = recursion_mk(6).table()
        assert [mk[k] for k in range(1, 7)] == [1, 1, 8, 177, 6234, -67965]
        qk = recursion_qk(4).table()
        assert [k * qk[k] for k in range(1, 5)] == [-1, 7, -69, 804]
        wk = recursion_wk(1).table()
        assert wk[1] == F(3, 32)
        nkl = recursion_nkl(6)
        t = nkl.table()
        assert t[(0, 1)] == 1 and t[(1, 0)] == 1
        assert nkl.audits["symmetric"]
        assert all(t[(k, l)] == t[(l, k)] for (k, l) in t)


def _match_hat(spec_name, kappa, center, order, candidate, names):
    res = transform(load_spec(spec_name), kappa, center, order, m_max=5)
    cs = localize(candidate, names, res.hat_center, res.hat_potential.grading)
    cs = TruncSeries(res.hat_vars, res.hat_center, dict(cs.coeffs),
                     res.hat_potential.grading)
    return series_equal_mod_quadratic(res.hat_potential, cs)


def test_criterion_3_transformed_potentials():
    """Printed transformed potentials: exact series matches and exact
    coefficient extraction for the truncated families."""
    with budget(60.0):
        nls = (cf_mono(F(1, 2), {"h1": 1, "h2": 2})
               + cf_mono(F(1, 2), {"h1": 2}, {"h1": 1}) - cf_mono(F(3, 4), {"h1": 2}))
        assert _match_hat("p1", 2, (F(0), F(0)), 8, nls, ("h1", "h2"))

        a2h = (cf_mono(F(1, 2), {"h1": 1, "h2": 2})
               + cf_mono(F(4, 5) * Exact({6: F(1, 3)}), {"h1": F(5, 2)}))
        assert _match_hat("a2", 2, (F(0), F(3)), 8, a2h, ("h1", "h2"))

        # plane example, both directions: the packaged series coefficients are
        # exactly the printed cubic/sixth-power and quartic/seventh-power terms
        ck = recursion_ck(2).table()
        assert ck[1] / math.factorial(3) == F(1, 6)
        assert ck[2] / math.factorial(6) == F(-1, 360)
        mk = recursion_mk(2).table()
        assert mk[1] * F(4) ** 0 / math.factorial(4) == F(1, 24)
        assert mk[2] * F(4) ** 1 / math.factorial(7) == F(1, 1260)

        ckl = solve_ckl_and_a(max_ckl_level=8, max_a_level=5)["ckl"].table()
        assert (ckl[(2, 3)], ckl[(3, 2)]) == (2, 2)
        assert (ckl[(3, 5)], ckl[(4, 4)], ckl[(5, 3)]) == (24, 38, 24)


def test_criterion_4_structural_invariant_suite():
    """Associativity, metric row, calibration laws, two-point laws, transport
    identities and round trips on every bundled spec at the exact level."""
    with budget(120.0):
        for name in BUILTIN_SPECS:
            spec = spec_with_params(name)
            t = build_tensors(spec)
            assert check_wdvv(spec, t).ok, name
            iota = spec.unity - 1
            one = cf_mono(F(1))
            for a in range(spec.n):
                for b in range(spec.n):
                    assert t.c_low[iota][a][b] == t.eta[a][b] * one
            cal = solve_calibration(spec, 4, t)
            # unity-direction normalization at every solved level
            for (al, m), th in cal.theta.items():
                if m >= 1:
                    d = th.diff(spec.varnames[iota])
                    diff = d - cal.theta[(al, m - 1)]
                    keep = spec.exp_filter()
                    if keep:
                        diff = diff.filter(keep)
                    assert diff.is_zero(), (name, al, m)
            assert check_orthogonality(cal)["pass"], name
            order = 2 if spec.n >= 4 else 3
            tab = two_point_table(cal, order)
            for (a, m1, b, m2), om in tab.omega.items():
                assert (om - tab.entry(b, m2, a, m1)).is_zero()
            assert check_homogeneity(tab)["pass"], name

        # transport identities on the two closed-form flagships
        from frobwdvv.legendre import (check_gradient_identity, check_metric_transport,
                                       check_product_identity, check_structure_transport,
                                       check_unity_rule)
        for name, kappa, center in (("p1", 2, (F(0), F(0))), ("a2", 2, (F(0), F(3)))):
            res = transform(load_spec(name), kappa, center, 8, m_max=5)
            thetas = transport_calibration(res, 3)
            assert check_gradient_identity(res, thetas)["pass"]
            assert check_unity_rule(res, thetas)["pass"]
            assert verify_omega_transport(res, 2, 4)["pass"]
            rep = verify_euler_hat(res)
            assert rep["pass"]
            assert check_metric_transport(res)["pass"]
            assert check_structure_transport(res)["pass"]
            assert check_product_identity(res)["pass"]
            assert round_trip(res)["pass"]
        # transformed charge and shifts for the flagships
        assert verify_euler_hat(transform(load_spec("p1"), 2, (F(0), F(0)), 6,
                                          m_max=4))["hat_charge"] == -1
        # identity direction is the identity transform
        spec = load_spec("p1")
        res = transform(spec, spec.unity, (F(0), F(0)), 8, m_max=5)
        f = localize(spec.potential, spec.varnames, res.center, res.grading)
        hat = TruncSeries(f.vars, f.center, dict(res.hat_potential.coeffs), f.grading)
        assert series_equal_mod_quadratic(hat, f)


def test_criterion_5_genus_one_identity():
    """Constant residual (exact zero jet and base dependence) for the worked
    pairs and the sampled two-dimensional family, including the log case."""
    with budget(30.0):
        for data in (p1_family_data(), a2_family_data(),
                     genus1_twodim_family(F(4), F(1, 3)),
                     genus1_twodim_family(F(5), F(2, 5)),
                     genus1_twodim_family(F(-1), F(4)),
                     genus1_twodim_family(F(3, 2), F(1))):
            rep = genus1_report(data)
            assert rep["pass"], data["spec"].name


@pytest.fixture(scope="module")
def a2_monodromy():
    spec = load_spec("a2")
    t = build_tensors(spec)
    md = stokes_and_connection(spec, (F(0), F(3)), 3 * math.pi / 4, tensors=t)
    return spec, t, md


def test_criterion_6_numeric_monodromy(a2_monodromy, a2_s2_spec):
    """Stokes and connection matrices at the printed values, the two matrix
    identities, transform invariance, and the line-example invariant."""
    with budget(60.0):
        spec, t, md = a2_monodromy
        want_s = np.array([[1.0, 0.0], [-1.0, 1.0]])
        assert np.abs(md.stokes - want_s).max() < 1e-6
        g23, g13 = math.gamma(2 / 3), math.gamma(1 / 3)
        pref = -1j / math.sqrt(2 * math.pi)
        want_c = pref * np.array([
            [g23, g23 * cmath.exp(5j * math.pi / 3)],
            [g13 * cmath.exp(1j * math.pi), g13 * cmath.exp(4j * math.pi / 3)]])
        assert np.abs(md.central - want_c).max() < 1e-6
        ids = monodromy_identities(md, t.eta)
        assert ids["monodromy_residual"] < 1e-8
        assert ids["stokes_from_central_residual"] < 1e-8

        hat = a2_s2_spec
        th = build_tensors(hat)
        inv = frame_invariance_report(spec, hat, (F(0), F(3)), 2, t, th)
        ss = semisimple_at(spec, (F(0), F(3)), t)
        ss_hat = semisimple_at(hat, inv["hat_point"], th,
                               sign_reference=(1, ss.psi[:, 1]))
        mdh = stokes_and_connection(hat, inv["hat_point"], 3 * math.pi / 4,
                                    tensors=th, sign_choices=ss_hat.sign_choices)
        assert np.abs(md.stokes - mdh.stokes).max() < 1e-6
        assert np.abs(md.central - mdh.central).max() < 1e-6

        p1 = load_spec("p1")
        tp = build_tensors(p1)
        mdp = stokes_and_connection(p1, (F(0), F(0)), 3 * math.pi / 4, tensors=tp)
        s = mdp.stokes
        assert abs((2 - np.trace(np.linalg.inv(s) @ s.T)) - 4) < 1e-6


def test_criterion_7_tensor_monodromy():
    """Kronecker formulas reproduce the printed four-dimensional data exactly."""
    with budget(1.0):
        mu = [F(-1, 2), F(1, 2)]
        r = [[F(0), F(0)], [F(2), F(0)]]
        s = [[F(1), F(2)], [F(0), F(1)]]
        eye = [[F(1), F(0)], [F(0), F(1)]]
        out = tensor_monodromy(mu, r, s, eye, 1, mu, r, s, eye, 1)
        assert [out["mu"][i][i] for i in range(4)] == [-1, 0, 0, 1]
        assert out["R"] == [[0, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0, 0], [0, 2, 2, 0]]
        assert out["S"] == [[1, 2, 2, 4], [0, 1, 0, 2], [0, 0, 1, 2], [0, 0, 0, 1]]


def test_criterion_8_semisimple_frame_suite(a2_monodromy, a2_s2_spec):
    """Frame normalization, transform invariance of the frame, asymptotic
    orthogonality, and closedness of the hamiltonian one-form."""
    with budget(60.0):
        spec, t, _ = a2_monodromy
        ss = semisimple_at(spec, (F(0), F(3)), t)
        assert np.abs(ss.psi.T @ ss.psi - ss.eta).max() < 1e-9
        assert np.abs(ss.v_mat + ss.v_mat.T).max() < 1e-9

        hat = a2_s2_spec
        inv = frame_invariance_report(spec, hat, (F(0), F(3)), 2, t)
        assert inv["psi_residual"] < 1e-9 and inv["v_residual"] < 1e-9

        # the exponential flagship against its own transform
        p1, nls = load_spec("p1"), load_spec("nls")
        invp = frame_invariance_report(p1, nls, (F(1, 5), F(1, 7)), 2)
        assert invp["psi_residual"] < 1e-9 and invp["v_residual"] < 1e-9

        phis = phi_recursion(ss, 8)
        assert phi_orthogonality_residual(phis) < 1e-10

        rep = hamiltonians_and_closedness(spec, (0.0, 3.0), h=1e-4)
        assert rep["closedness_residual"] < 1e-6
        rep1 = hamiltonians_and_closedness(load_spec("p1"), (0.0, 0.0), h=1e-4)
        assert rep1["closedness_residual"] < 1e-6
