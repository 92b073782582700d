from dataclasses import replace
from fractions import Fraction

import pytest

from frobwdvv.calibration import solve_calibration
from frobwdvv.closedform import ClosedForm, cf_exp, cf_mono, cf_var
from frobwdvv.core import (
    FrobeniusSpec, NonConstantMetricError, SpecValidationError, build_tensors,
    check_wdvv, euler_report, u_matrix, validate_spec, wdvv_pairing,
)
from frobwdvv.specs import BUILTIN_SPECS, load_spec, twodim_spec

from conftest import assert_same_types

F = Fraction

TWODIM_PARAMS = {"m": "4", "c": "1/72"}


def params_for(name):
    return TWODIM_PARAMS if name == "twodim" else None


@pytest.fixture(scope="module")
def all_specs():
    return {name: load_spec(name, params_for(name)) for name in BUILTIN_SPECS}


def test_eta_read_off(all_specs):
    t = build_tensors(all_specs["p1"])
    assert t.eta == ((F(0), F(1)), (F(1), F(0)))


def test_a2_c222(all_specs):
    t = build_tensors(all_specs["a2"])
    assert t.c_low[1][1][1] == cf_mono(F(1, 3), {"v2": 1})


def test_nls_c111_is_reciprocal(all_specs):
    t = build_tensors(all_specs["nls"])
    assert t.c_low[0][0][0] == cf_var("v1", -1)


def test_c_with_unity_index_is_eta(all_specs):
    for spec in all_specs.values():
        t = build_tensors(spec)
        i = spec.unity - 1
        for a in range(spec.n):
            for b in range(spec.n):
                assert t.c_low[i][a][b] == t.eta[a][b] * cf_mono(F(1))


def test_wdvv_all_bundled(all_specs):
    for spec in all_specs.values():
        assert check_wdvv(spec).ok, spec.name


def test_wdvv_detects_failure():
    bad = FrobeniusSpec(
        name="bad", varnames=("v1", "v2", "v3"), unity=1,
        potential=(cf_mono(F(1, 2), {"v1": 2, "v3": 1}) + cf_mono(F(1, 2), {"v1": 1, "v2": 2})
                   + cf_mono(F(1), {"v2": 3, "v3": 1})),
        charge=F(0), mu=(F(-1, 2), F(0), F(1, 2)))
    assert not check_wdvv(bad).ok


def wdvv_residual(tensors, a: int, b: int, g: int, d: int) -> ClosedForm:
    """Associativity residual of the quartic identity for (a, b, g, d), 0-based."""
    return wdvv_pairing(tensors, a, b, g, d) - wdvv_pairing(tensors, d, b, g, a)


def test_wdvv_residual_antisymmetry(all_specs):
    t = build_tensors(all_specs["p1orb"])
    r = wdvv_residual(t, 0, 1, 1, 2)
    s = wdvv_residual(t, 2, 1, 1, 0)
    assert (r + s).is_zero()


def test_euler_all_bundled(all_specs):
    for spec in all_specs.values():
        assert euler_report(spec).ok, spec.name


@pytest.mark.parametrize("name, wrong", [
    pytest.param("p1", lambda s: replace(s, charge=s.charge + F(1, 7)), id="p1-charge"),
    pytest.param("p1", lambda s: replace(s, euler_shifts=(F(0), s.euler_shifts[1] + 1)),
                 id="p1-exp-shift"),
    pytest.param("nls", lambda s: replace(s, charge=s.charge + F(1, 7)), id="nls-log-charge"),
])
def test_euler_report_fails_on_wrong_euler_data(all_specs, name, wrong):
    # p1 carries a shift on its exponential variable v2, nls a log term
    spec = all_specs[name]
    assert euler_report(spec).ok
    assert not euler_report(wrong(spec)).ok


def test_euler_residual_matches_derivative_route_on_bundled_specs(all_specs):
    # the term-wise kernel against sum_beta E^beta d_beta f - w f, built
    # through diff and sum_of_products, on every potential and every theta
    for spec in all_specs.values():
        forms = [spec.potential, *solve_calibration(spec, 3).theta.values()]
        for f in forms:
            for w in (0, F(5, 7)):
                want = ClosedForm.sum_of_products(
                    (1, spec.euler_component(b), f.diff(v))
                    for b, v in enumerate(spec.varnames, 1)) - f * w
                got = spec.euler_residual(f, w)
                assert got.terms == want.terms, spec.name
                assert_same_types(got, want)


def test_int_charge_keeps_euler_data_exact(all_specs):
    # a spec built in code with an int charge: D/2 stays a Fraction, so the
    # Euler weights and residual coefficients stay exact and in normal form
    spec = replace(all_specs["p2"], charge=2)
    validate_spec(spec)
    assert [type(spec.euler_linear(b)) for b in (1, 2, 3)] == [Fraction] * 3
    f = sum((cf_mono(F(1, 3), {v: 2}) for v in spec.varnames), ClosedForm.const(0))
    resid = spec.euler_residual(f, F(1, 2))
    assert resid.terms
    assert_same_types(resid, resid)


def test_u_matrix_values(all_specs):
    a2 = all_specs["a2"]
    u = u_matrix(a2)
    pt = {"v1": F(0), "v2": F(3)}
    vals = [[u[a][b].evaluate_exact(pt) for b in range(2)] for a in range(2)]
    assert vals == [[0, 2], [2, 0]]

    p1 = all_specs["p1"]
    u1 = u_matrix(p1)
    pt0 = {"v1": F(0), "v2": F(0)}
    vals1 = [[u1[a][b].evaluate_exact(pt0) for b in range(2)] for a in range(2)]
    assert vals1 == [[0, 2], [2, 0]]


def test_u_times_unity_column_is_euler(all_specs):
    # U applied to the unity direction returns the Euler components
    for name in ("p1", "a2", "p1orb"):
        spec = all_specs[name]
        u = u_matrix(spec)
        i = spec.unity - 1
        for a in range(spec.n):
            assert u[a][i] == spec.euler_component(a + 1)


def test_validation_catches_bad_mu():
    spec = FrobeniusSpec(
        name="bad", varnames=("v1", "v2"), unity=1,
        potential=cf_mono(F(1, 2), {"v1": 2, "v2": 1}) + cf_exp("v2"),
        charge=F(1), mu=(F(-1, 2), F(1, 3)))
    with pytest.raises(SpecValidationError):
        validate_spec(spec)


def test_validation_catches_bad_r():
    spec = FrobeniusSpec(
        name="bad", varnames=("v1", "v2"), unity=1,
        potential=cf_mono(F(1, 2), {"v1": 2, "v2": 1}) + cf_exp("v2"),
        charge=F(1), mu=(F(-1, 2), F(1, 2)),
        rmats={1: ((F(0), F(1)), (F(2), F(0)))},
        euler_shifts=(F(0), F(2)))
    with pytest.raises(SpecValidationError):
        validate_spec(spec)


def test_nonconstant_metric_error():
    spec = FrobeniusSpec(
        name="bad", varnames=("v1", "v2"), unity=1,
        potential=cf_mono(F(1), {"v1": 3, "v2": 1}),
        charge=F(0), mu=(F(0), F(0)))
    with pytest.raises(NonConstantMetricError):
        build_tensors(spec)


def test_twodim_specializes_to_a2(all_specs):
    td = twodim_spec(F(4), F(1, 72))
    a2 = all_specs["a2"]
    assert td.charge == a2.charge
    assert td.mu == a2.mu
    assert (td.potential - a2.potential).is_zero()


def test_r_triangularity_all(all_specs):
    for spec in all_specs.values():
        for s, mat in spec.rmats.items():
            for a in range(spec.n):
                for b in range(spec.n):
                    if mat[a][b]:
                        assert spec.mu[a] - spec.mu[b] == s
