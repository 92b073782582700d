from dataclasses import replace
from fractions import Fraction

import pytest

from frobwdvv import calibration
from frobwdvv.calibration import (
    Calibration, ObstructionError, OrderExceededError, _signed_pairings,
    check_homogeneity, check_orthogonality, solve_calibration, theta_matrix_coefficients,
    two_point_table,
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
    assert spec.euler_residual(om, 2).is_zero()


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


def test_two_point_table_is_kept_on_the_calibration():
    cal = solve_calibration(load_spec("p1"), 2)
    assert two_point_table(cal, 1) is cal
    assert set(cal.omega) == {(a, m1, b, m2) for m1 in range(2) for m2 in range(2 - m1)
                              for a in (1, 2) for b in (1, 2)}
    assert cal.entry(1, 1, 2, 0) is cal.omega[(1, 1, 2, 0)]


def test_homogeneity_reads_the_r_terms():
    # a correct p1 calibration checked against its spec with R_1 doubled (the
    # Euler field is unchanged): only the R-terms of the rule tell them apart
    cal = solve_calibration(load_spec("p1"), 4)
    spec = cal.spec
    doubled = replace(spec, rmats={1: tuple(tuple(2 * x for x in row) for row in spec.rmats[1])})
    bad = Calibration(doubled, cal.tensors, cal.m_max, dict(cal.theta))
    assert check_homogeneity(two_point_table(cal, 3))["pass"]
    rep = check_homogeneity(two_point_table(bad, 3))
    # R_1 acts on index 1 only; 22 of the 40 entries see it
    assert len(rep["failures"]) == 22 and all(1 in (a, b) for a, _, b, _ in rep["failures"])


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


def _fresh_pairing_sum(cal, alpha, beta, levels):
    """Reference: sum of sign * <grad theta_{alpha,l1}, grad theta_{beta,l2}> over
    (sign, l1, l2) in levels, every product formed afresh in one fused loop."""
    eta_inv, n = cal.tensors.eta_inv, cal.spec.n
    return ClosedForm.sum_of_products(
        ((eta_inv[rho][sig] * sign, cal.grad(alpha, l1, rho + 1), cal.grad(beta, l2, sig + 1))
         for sign, l1, l2 in levels for rho in range(n) for sig in range(n)
         if eta_inv[rho][sig]), cal.spec.exp_filter())


@pytest.mark.parametrize("name, m_max", [
    ("p1", 4), ("a2", 4), ("p1orb", 4), ("ccc_a111", 4), ("p1xp1", 2)])
def test_pairing_table_matches_fresh_products(name, m_max):
    # the shared table must give every two-point entry and orthogonality sum
    # (check_orthogonality reads it times (-1)^k) exactly; a key that drops the
    # level swap (or any asymmetric slip) fails
    cal = solve_calibration(load_spec(name), m_max)
    n = cal.spec.n
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for m1 in range(m_max):
                for m2 in range(m_max - m1):
                    want = _fresh_pairing_sum(cal, a, b, [((-1) ** j, m1 + j + 1, m2 - j)
                                                          for j in range(m2 + 1)])
                    assert cal.entry(a, m1, b, m2) == want, (a, m1, b, m2)
            for k in range(m_max + 1):
                want = _fresh_pairing_sum(cal, a, b, [((-1) ** (k - j), j, k - j)
                                                      for j in range(k + 1)])
                assert _signed_pairings(cal.pairing, a, 0, b, k) * (-1) ** k == want, (k, a, b)


def _count_sum_of_products(monkeypatch, is_counted=lambda triples: True):
    calls = [0]
    real = ClosedForm.sum_of_products

    def counting(triples, cut=None):
        triples = list(triples)
        calls[0] += is_counted(triples)
        return real(triples, cut)
    monkeypatch.setattr(ClosedForm, "sum_of_products", staticmethod(counting))
    return calls


def test_p2_order_4_forms_each_pairing_once(monkeypatch):
    # `calibrate p2 --order 4`: orthogonality to k = 4 and the two-point table
    # to m1 + m2 = 3 read the 72 unordered pairings with l1 + l2 <= 4, and
    # each is formed once
    cal = solve_calibration(load_spec("p2"), 4)
    calls = _count_sum_of_products(monkeypatch)
    assert check_orthogonality(cal)["pass"]
    tab = two_point_table(cal, 3)
    assert calls[0] == 72
    monkeypatch.undo()
    assert check_homogeneity(tab)["pass"]
    assert len(cal.pairings) == 72


@pytest.mark.parametrize("name", ["p1", "p2", "ccc_a111"])
def test_hessian_is_built_on_the_upper_triangle(monkeypatch, name):
    spec = load_spec(name)
    n = spec.n
    t = build_tensors(spec)
    structure = {id(f) for plane in t.c_mixed for row in plane for f in row}
    calls = _count_sum_of_products(
        monkeypatch, lambda triples: any(id(f) in structure for _, f, _ in triples))
    per_level = []
    real = calibration._solve_next_level

    def counting(*args):
        before = calls[0]
        out = real(*args)
        per_level.append(calls[0] - before)
        return out
    monkeypatch.setattr(calibration, "_solve_next_level", counting)
    solve_calibration(spec, 3, t)
    assert per_level == [n * (n + 1) // 2] * (3 * n)


def test_euler_residuals_take_no_derivative_or_product(monkeypatch):
    # E f - w f is one pass over the terms of f. Per p2 level, the Euler rules
    # read the gradient that potential_from_gradient built, so no derivative is
    # taken outside the Hessian, the cached gradients and potential_from_gradient,
    # and the Hessian sums are the only products
    spec = load_spec("p2")
    n = spec.n
    t = build_tensors(spec)
    hessian = {id(f) for plane in t.c_mixed for row in plane for f in row}
    products = _count_sum_of_products(
        monkeypatch, lambda triples: not any(id(f) in hessian for _, f, _ in triples))
    diffs = [0]
    real_diff = ClosedForm.diff

    def counting_diff(self, var):
        diffs[0] += 1
        return real_diff(self, var)
    monkeypatch.setattr(ClosedForm, "diff", counting_diff)

    def uncounted(real):
        def run(*args):
            saved = diffs[0], products[0]
            out = real(*args)
            diffs[0], products[0] = saved
            return out
        return run
    monkeypatch.setattr(calibration, "potential_from_gradient",
                        uncounted(calibration.potential_from_gradient))
    monkeypatch.setattr(Calibration, "grad", uncounted(Calibration.grad))
    per_level = []
    real_level = calibration._solve_next_level

    def counting_level(*args):
        before = diffs[0], products[0]
        out = real_level(*args)
        per_level.append((diffs[0] - before[0], products[0] - before[1]))
        return out
    monkeypatch.setattr(calibration, "_solve_next_level", counting_level)
    cal = solve_calibration(spec, 3, t)
    assert per_level == [(0, 0)] * (3 * n)

    diffs[0] = products[0] = 0
    for f in [spec.potential, *cal.theta.values()]:
        spec.euler_residual(f, F(1, 3))
    assert (diffs[0], products[0]) == (0, 0)


@pytest.mark.parametrize("name", ["p1", "p2"])
def test_perturbed_level_two_fails_both_checks(name):
    # one theta_{alpha,2} coefficient off by one: the orthogonality check and
    # the two-point homogeneity check, which share the pairing table, must
    # each still see it
    cal = solve_calibration(load_spec(name), 4)
    for alpha in range(1, cal.spec.n + 1):
        terms = dict(cal.theta[(alpha, 2)].terms)
        mono = min((m for m in terms if m != Mono((), (), ())), key=Mono.sort_key)
        terms[mono] = terms[mono] + 1
        theta = dict(cal.theta)
        theta[(alpha, 2)] = ClosedForm(terms)
        bad = Calibration(cal.spec, cal.tensors, cal.m_max, theta)
        assert not check_orthogonality(bad)["pass"], alpha
        assert not check_homogeneity(two_point_table(bad, 3))["pass"], alpha
