from dataclasses import replace
from fractions import Fraction

import pytest

from frobwdvv.calibration import (
    ObstructionError, OrderExceededError, check_homogeneity, check_orthogonality,
    solve_calibration, theta_matrix_coefficients, two_point_table,
)
from frobwdvv.closedform import ClosedForm, Mono, cf_var
from frobwdvv.core import build_tensors
from frobwdvv.specs import load_spec

F = Fraction


@pytest.fixture(scope="module")
def p1_cal():
    return solve_calibration(load_spec("p1"), 4)


@pytest.fixture(scope="module")
def a2_cal():
    return solve_calibration(load_spec("a2"), 4)


def test_theta_zero_is_lowered_coordinate(p1_cal):
    assert p1_cal.theta[(1, 0)] == cf_var("v2")
    assert p1_cal.theta[(2, 0)] == cf_var("v1")


def test_p1_theta21_contains_exponential(p1_cal):
    th = p1_cal.theta[(2, 1)]
    assert any(m.exp_of("v2") == 1 for m in th.terms)


def test_unity_derivative_lowers_level(p1_cal):
    for (a, m), th in p1_cal.theta.items():
        if m >= 1:
            assert th.diff("v1") == p1_cal.theta[(a, m - 1)]


def test_orthogonality(p1_cal, a2_cal):
    assert check_orthogonality(p1_cal)["pass"]
    assert check_orthogonality(a2_cal)["pass"]


def test_two_point_symmetry(p1_cal):
    tab = two_point_table(p1_cal, 3)
    for (a, m1, b, m2), om in tab.omega.items():
        assert (om - tab.entry(b, m2, a, m1)).is_zero()


def test_two_point_second_derivative_property(p1_cal):
    # the gradient of the primary two-point entries is the structure tensor
    tab = two_point_table(p1_cal, 1)
    t = p1_cal.tensors
    for a in range(1, 3):
        for b in range(1, 3):
            om = tab.entry(a, 0, b, 0)
            for g in range(1, 3):
                assert om.diff(p1_cal.spec.varnames[g - 1]) == t.c_low[a - 1][b - 1][g - 1]


def test_two_point_unity_entry_is_theta(p1_cal):
    tab = two_point_table(p1_cal, 3)
    for a in range(1, 3):
        for m in range(3):
            assert (tab.entry(a, m, p1_cal.spec.unity, 0)
                    - p1_cal.theta[(a, m)]).is_zero()


def test_p1_omega_2020_euler_action(p1_cal):
    # E(Omega_{2,0;2,0}) = (1 + 2 mu_2) Omega_{2,0;2,0} here (R column vanishes)
    tab = two_point_table(p1_cal, 1)
    om = tab.entry(2, 0, 2, 0)
    spec = p1_cal.spec
    assert (spec.euler_apply(om) - om * 2).is_zero()


def test_homogeneity_all(p1_cal, a2_cal):
    assert check_homogeneity(two_point_table(p1_cal, 3))["pass"]
    assert check_homogeneity(two_point_table(a2_cal, 3))["pass"]


def test_homogeneity_nls_same_monodromy_blocks():
    cal = solve_calibration(load_spec("nls"), 4)
    assert check_homogeneity(two_point_table(cal, 3))["pass"]


def test_theta_matrix_conditions(p1_cal):
    mats = theta_matrix_coefficients(p1_cal)
    n = 2
    # Theta(v;0) = I
    for a in range(n):
        for b in range(n):
            want = ClosedForm.const(int(a == b))
            assert (mats[0][a][b] - want).is_zero()
    # orthogonality of the matrix series, order by order
    t = p1_cal.tensors
    for k in range(1, p1_cal.m_max + 1):
        for a in range(n):
            for b in range(n):
                s = ClosedForm.zero()
                for j in range(k + 1):
                    for rho in range(n):
                        for sig in range(n):
                            for tau in range(n):
                                e = t.eta_inv[a][rho]
                                if e and t.eta[sig][tau]:
                                    s = s + (mats[j][sig][rho] * mats[k - j][tau][b]
                                             * (e * t.eta[sig][tau] * F((-1) ** j)))
                assert s.is_zero(), (k, a, b)


def test_theta_matrices_match_explicit_index_raising(p1_cal, a2_cal):
    # reference: the eta^{a rho} sum written out entry by entry
    for cal in (p1_cal, a2_cal):
        t, n = cal.tensors, cal.spec.n
        mats = theta_matrix_coefficients(cal, 4)
        for m in range(5):
            for a in range(n):
                for b in range(n):
                    s = ClosedForm.zero()
                    for rho in range(n):
                        e = t.eta_inv[a][rho]
                        if e:
                            s = s + cal.grad(b + 1, m, rho + 1) * e
                    got = mats[m][a][b]
                    assert list(got.terms.items()) == list(s.terms.items())
                    assert got.to_json_obj() == s.to_json_obj()


def test_order_exceeded(p1_cal):
    tab = two_point_table(p1_cal, 0)
    with pytest.raises(OrderExceededError):
        tab.entry(1, 3, 1, 2)


def test_wrong_r_is_obstructed():
    spec = load_spec("p1")
    bad = replace(spec, rmats={1: ((F(0), F(0)), (F(1), F(0)))},
                  euler_shifts=(F(0), F(1)))
    with pytest.raises(ObstructionError):
        solve_calibration(bad, 2)


def test_resonant_family_member_needs_nilpotent_block():
    # spectrum gap 3: with R = 0 the level-3 resonance obstructs; the family
    # constructor carries the block that clears it
    from frobwdvv.specs import twodim_spec
    from frobwdvv.calibration import two_point_table
    spec = twodim_spec(F(3, 2), F(2))
    assert spec.r_entry(3, 1, 2) == -9
    stripped = replace(spec, rmats={})
    with pytest.raises(ObstructionError):
        solve_calibration(stripped, 3)
    cal = solve_calibration(spec, 4)
    assert check_orthogonality(cal)["pass"]
    assert check_homogeneity(two_point_table(cal, 3))["pass"]
