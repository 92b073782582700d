from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from frobwdvv import calibration
from frobwdvv.calibration import (
    Calibration, ObstructionError, OrderExceededError, _signed_pairings,
    check_homogeneity, check_orthogonality, solve_calibration, theta_matrix_coefficients,
    two_point_table,
)
from frobwdvv.closedform import ClosedForm, Mono, cf_mono, cf_var
from frobwdvv.core import FrobeniusSpec, build_tensors
from frobwdvv.specs import BUILTIN_SPECS, load_spec

from conftest import assert_normal_scalar, assert_same_types
from test_closedform import coeffs, small_rats

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
        mats = theta_matrix_coefficients(cal)
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


def _count_calls(monkeypatch, owner, name):
    """Counts the calls of owner.name (a function, or a method of ClosedForm)."""
    calls = [0]
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, staticmethod(counting)
                        if isinstance(owner.__dict__[name], staticmethod) else counting)
    return calls


def _per_level(monkeypatch, *counters):
    """The rise of each counter over each _solve_next_level call."""
    per_level = []
    real = calibration._solve_next_level

    def counting(*args):
        before = [c[0] for c in counters]
        out = real(*args)
        per_level.append(tuple(c[0] - b for c, b in zip(counters, before)))
        return out
    monkeypatch.setattr(calibration, "_solve_next_level", counting)
    return per_level


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


def test_euler_field_is_built_once_per_spec(monkeypatch):
    # every Euler rule reads the spec's cached field {v: (d_v, r_v)}; when each
    # call built it afresh, one seed-3 structure-checks round made 2,483
    # euler_linear calls
    spec = load_spec("p2")
    calls = [0]
    real = FrobeniusSpec.euler_linear

    def counting(self, beta):
        calls[0] += 1
        return real(self, beta)
    monkeypatch.setattr(FrobeniusSpec, "euler_linear", counting)
    cal = solve_calibration(spec, 4)
    assert calls[0] <= spec.n
    assert check_homogeneity(two_point_table(cal, 3))["pass"]
    assert calls[0] <= spec.n


@pytest.mark.parametrize("name", ["p1", "p2", "ccc_a111"])
def test_hessian_is_built_on_the_upper_triangle(monkeypatch, name):
    spec = load_spec(name)
    n = spec.n
    t = build_tensors(spec)
    structure = {id(f) for plane in t.c_mixed for row in plane for f in row}
    calls = _count_sum_of_products(
        monkeypatch, lambda triples: any(id(f) in structure for _, f, _ in triples))
    per_level = _per_level(monkeypatch, calls)
    solve_calibration(spec, 3, t)
    assert per_level == [(n * (n + 1) // 2,)] * (3 * n)


def test_euler_residuals_take_no_derivative_or_product(monkeypatch):
    # E f - w f is one pass over the terms of f. Per p2 level, the level step
    # takes n derivatives for the gradient of theta0 and n(n+1)/2 to check it
    # against the Hessian; the Euler rules read that gradient and the cached
    # ones, so they take none, and the Hessian sums are the only products
    spec = load_spec("p2")
    n = spec.n
    t = build_tensors(spec)
    hessian = {id(f) for plane in t.c_mixed for row in plane for f in row}
    products = _count_sum_of_products(
        monkeypatch, lambda triples: not any(id(f) in hessian for _, f, _ in triples))
    diffs = _count_calls(monkeypatch, ClosedForm, "diff")

    def uncounted(*args):
        saved = diffs[0], products[0]
        out = real_grad(*args)
        diffs[0], products[0] = saved
        return out
    real_grad = Calibration.grad
    monkeypatch.setattr(Calibration, "grad", uncounted)
    in_rules = []
    real_rule = calibration._euler_rule

    def rule(*args):
        before = diffs[0], products[0]
        out = real_rule(*args)
        in_rules.append((diffs[0] - before[0], products[0] - before[1]))
        return out
    monkeypatch.setattr(calibration, "_euler_rule", rule)
    per_level = _per_level(monkeypatch, diffs, products)
    cal = solve_calibration(spec, 3, t)
    assert per_level == [(n + n * (n + 1) // 2, 0)] * (3 * n)
    assert in_rules == [(0, 0)] * ((n + 1) * 3 * n)

    diffs[0] = products[0] = 0
    for f in [spec.potential, *cal.theta.values()]:
        spec.euler_residual(f, F(1, 3))
    assert (diffs[0], products[0]) == (0, 0)


@pytest.mark.parametrize("name", BUILTIN_SPECS)
def test_level_gradients_are_the_derivatives_of_the_levels(name):
    # the level step keeps d theta0/dv^b plus its linear coefficient as the
    # gradient: it must be theta's own derivative, term for term and in order
    spec = load_spec(name, {"m": "4", "c": "1/72"} if name == "twodim" else None)
    cal = solve_calibration(spec, 4)
    assert len(cal.grads) == 5 * spec.n ** 2     # levels 0-4
    for (g, m, b), grad in cal.grads.items():
        want = cal.theta[(g, m)].diff(spec.varnames[b - 1])
        assert list(grad.terms.items()) == list(want.terms.items()), (g, m, b)
        assert_same_types(grad, want.terms)


def test_level_gradients_keep_the_linear_coefficients():
    # at charge 1 the unity coordinate theta_{1,0} of p1 may take a constant;
    # then theta_{1,1} has the linear term v1 / 3 that the Hessian leaves out,
    # and its stored gradient must carry the constant 1/3
    spec = load_spec("p1")
    cal = solve_calibration(spec, 0)
    cal.theta[(1, 0)] = cal.theta[(1, 0)] + F(1, 3)
    solve_calibration(spec, 3, cal=cal)
    assert cal.grads[(1, 1, 1)].constant_term() == F(1, 3)
    for (g, m, b), grad in cal.grads.items():
        want = cal.theta[(g, m)].diff(spec.varnames[b - 1])
        assert list(grad.terms.items()) == list(want.terms.items()), (g, m, b)


def test_only_level_zero_gradients_are_differentiated(monkeypatch):
    # levels 1-4 keep the gradients their step built, so `Calibration.grad`
    # differentiates the n^2 level-0 gradients only; when it differentiated
    # every level, p1xp1 took n^2 = 16 derivatives at each of the five
    spec = load_spec("p1xp1")
    diffs = _count_calls(monkeypatch, ClosedForm, "diff")
    per_level = Counter()
    real = Calibration.grad

    def counting(self, alpha, m, beta):
        before = diffs[0]
        out = real(self, alpha, m, beta)
        per_level[m] += diffs[0] - before
        return out
    monkeypatch.setattr(Calibration, "grad", counting)
    cal = solve_calibration(spec, 4)
    assert check_orthogonality(cal)["pass"]
    assert dict(per_level) == {m: 16 * (m == 0) for m in range(5)}


@pytest.mark.parametrize("name", ["p1", "p2", "p1xp1"])
def test_level_integration_takes_two_antiderivative_passes(monkeypatch, name):
    # a level integrates its Hessian once: n(n+1)/2 antiderivatives of its
    # entries and n of their sums, which join disjoint terms, so no signed_sum
    spec = load_spec(name)
    n = spec.n
    antiderivatives = _count_calls(monkeypatch, ClosedForm, "antiderivative")
    sums = _count_calls(monkeypatch, ClosedForm, "signed_sum")
    in_integration = []
    real = calibration._potential_of_hessian

    def integrating(*args):
        before = sums[0]
        out = real(*args)
        in_integration.append(sums[0] - before)
        return out
    monkeypatch.setattr(calibration, "_potential_of_hessian", integrating)
    per_level = _per_level(monkeypatch, antiderivatives)
    solve_calibration(spec, 3)
    assert len(per_level) == 3 * n
    assert all(0 < k <= n * (n + 1) // 2 + n for k, in per_level)
    assert in_integration == [0] * (3 * n)


def _hessian(f, names):
    return {(a, b): f.diff(names[a]).diff(names[b])
            for a in range(len(names)) for b in range(a, len(names))}


def _without_affine_part(f, names):
    """f less its constant and the linear part of its gradient: the constant of
    d_b f is the coefficient of v^b there (x log x has d_x = log x + 1, so x)."""
    out = f - f.constant_term()
    for v in names:
        out = out - cf_var(v) * f.diff(v).constant_term()
    return out


@st.composite
def integrable_terms(draw, names, first=None):
    """One term c * prod_v v^q log^k v e^{cv}: a variable carries a rational power
    with logs, or a natural power with an exponential, so that every derivative
    of it stays integrable.  `first` forces a nonzero power of that variable."""
    used = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names),
                         unique=True))
    if first is not None and first not in used:
        used.append(first)
    powers, logs, exps = {}, {}, {}
    for v in used:
        if draw(st.booleans()) and v != first:
            powers[v] = draw(st.integers(0, 2))
            exps[v] = draw(st.fractions(min_value=-2, max_value=2, max_denominator=2).filter(bool))
        else:
            q = draw(st.fractions(min_value=-2, max_value=3, max_denominator=2))
            powers[v] = q if q or v != first else 1
            logs[v] = draw(st.integers(0, 2))
    return cf_mono(draw(coeffs()), powers, logs, exps)


@st.composite
def integrable_forms(draw):
    names = ["x", "y", "z"][:draw(st.integers(2, 3))]
    f = ClosedForm.const(draw(small_rats))
    for _ in range(draw(st.integers(1, 4))):
        f = f + draw(integrable_terms(names))
    return f, names


@settings(max_examples=60, deadline=None)
@given(integrable_forms())
@example((cf_mono(1, {"x": 1}, {"x": 1}) + cf_mono(2, {"x": 1, "y": 1}) + cf_var("y"), ["x", "y"]))
def test_hessian_integrates_to_the_potential_less_its_affine_part(case):
    f, names = case
    theta0, grad = calibration._potential_of_hessian(_hessian(f, names), names)
    want = _without_affine_part(f, names)
    assert theta0.terms == want.terms
    assert [g.terms for g in grad] == [want.diff(v).terms for v in names]
    assert all(not g.constant_term() for g in grad)


@settings(max_examples=60, deadline=None)
@given(integrable_forms(), st.data())
def test_hessian_changed_by_one_term_is_obstructed_at_that_entry(case, data):
    # H_ab (a < b) or H_bb changed by a term that carries v_a: theta0 takes from
    # that entry only the terms free of v_1..v_{b-1}, so d d theta0 misses the
    # change there and matches H everywhere else (a term free of v_1..v_{b-1}
    # would be integrated into theta0 and show at another entry)
    f, names = case
    a, b = sorted(data.draw(st.lists(st.sampled_from(range(len(names))), min_size=2,
                                     max_size=2, unique=True)))
    i = b if data.draw(st.booleans(), label="diagonal") else a
    hess = _hessian(f, names)
    hess[i, b] = hess[i, b] + data.draw(integrable_terms(names, names[a]))
    with pytest.raises(ObstructionError, match=rf"\({names[i]}, {names[b]}\)"):
        calibration._potential_of_hessian(hess, names)


def _perturbed(cal, alpha):
    """cal with one theta_{alpha,2} coefficient off by one."""
    terms = dict(cal.theta[(alpha, 2)].terms)
    mono = min((m for m in terms if m != Mono((), (), ())), key=Mono.sort_key)
    terms[mono] = terms[mono] + 1
    return Calibration(cal.spec, cal.tensors, cal.m_max,
                       {**cal.theta, (alpha, 2): ClosedForm(terms)})


@pytest.mark.parametrize("name, m_max", [("p1", 4), ("p2", 4), ("p1xp1", 2)])
def test_orthogonality_sums_skipped_by_symmetry(name, m_max):
    # check_orthogonality sums b >= a only (b > a at odd k): from fresh products,
    # each skipped (k, b, a) sum is (-1)^k times the (k, a, b) sum term for term,
    # and the (k, a, a) sum at odd k is zero.  On a perturbed calibration it
    # reports exactly the summed (k, a, b) whose fresh sum is off
    cal = solve_calibration(load_spec(name), m_max)
    n, eta = cal.spec.n, cal.tensors.eta
    bad = _perturbed(cal, 1)
    off = []
    for k in range(m_max + 1):
        levels = [((-1) ** (k - j), j, k - j) for j in range(k + 1)]
        for a in range(1, n + 1):
            if k % 2:
                assert not _fresh_pairing_sum(cal, a, a, levels).terms, (k, a)
            for b in range(a + 1, n + 1):
                s_ab = _fresh_pairing_sum(cal, a, b, levels)
                assert _fresh_pairing_sum(cal, b, a, levels).terms == (s_ab * (-1) ** k).terms
            off += [(k, a, b) for b in range(a + k % 2, n + 1)
                    if _fresh_pairing_sum(bad, a, b, levels) != (eta[a - 1][b - 1] if k == 0 else 0)]
    assert check_orthogonality(cal)["pass"]
    assert off and check_orthogonality(bad)["failures"] == off


@pytest.mark.parametrize("name", ["p1", "p2"])
def test_perturbed_level_two_fails_both_checks(name):
    # one theta_{alpha,2} coefficient off by one: the orthogonality check and
    # the two-point homogeneity check, which share the pairing table, must
    # each still see it
    cal = solve_calibration(load_spec(name), 4)
    for alpha in range(1, cal.spec.n + 1):
        bad = _perturbed(cal, alpha)
        assert not check_orthogonality(bad)["pass"], alpha
        assert not check_homogeneity(two_point_table(bad, 3))["pass"], alpha


def test_bundled_calibrations_and_tables_are_in_normal_form():
    # every coefficient of the level-4 calibration and of the two-point table on
    # every bundled spec is an int exactly when it is integral, never a float
    for name in BUILTIN_SPECS:
        spec = load_spec(name, {"m": "4", "c": "1/72"} if name == "twodim" else None)
        cal = two_point_table(solve_calibration(spec, 4), 2 if spec.n >= 4 else 3)
        for form in (*cal.theta.values(), *cal.omega.values()):
            for c in form.terms.values():
                assert_normal_scalar(c)


def test_level_solve_divides_exactly_with_an_integral_spectrum(monkeypatch):
    # the bundled specs leave every constant of the gradient and scalar steps
    # at 0.  Raised by 1 at p2's last level past the unity direction, where no
    # weight vanishes, and with p2's integral spectrum given as ints, each step
    # divides an int constant by an int weight, which must stay exact
    real = calibration._constant

    def raised(f, message):
        if "obstruction at level 2," in message and ",1)" not in message:
            return f.constant_term() + 1
        return real(f, message)

    monkeypatch.setattr(calibration, "_constant", raised)
    spec = load_spec("p2")
    want = solve_calibration(spec, 2)
    got = solve_calibration(replace(spec, mu=tuple(int(m) for m in spec.mu)), 2)
    assert got.theta.keys() == want.theta.keys()
    for key, th in want.theta.items():
        assert got.theta[key].terms == th.terms, key
        assert_same_types(got.theta[key], th)
    # the raised constants reach theta as proper fractions
    assert any(type(c) is Fraction for c in want.theta[(3, 2)].terms.values())
