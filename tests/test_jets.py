import cmath
from fractions import Fraction

import pytest

from frobwdvv.closedform import cf_mono, cf_var
from frobwdvv.jets import (
    JetOrderOverflow, a2_family_data, check_constant_combo, combo_value,
    flow_derivation, genus1_report, genus1_twodim_family, jet_name,
    p1_family_data, total_x,
)
from frobwdvv.specs import load_spec

from conftest import cf_exp, cf_log

F = Fraction


def test_total_x_basics():
    assert total_x(cf_var("v1"), ("v1",)) == cf_var("v1_1")
    assert total_x(cf_log("v1_1"), ("v1",)) == cf_mono(F(1), {"v1_1": -1, "v1_2": 1})
    f = cf_exp("v2") * cf_var("v2_1")
    got = total_x(f, ("v2",))
    want = cf_mono(F(1), {"v2_1": 2}, None, {"v2": 1}) + cf_mono(F(1), {"v2_2": 1}, None, {"v2": 1})
    assert got == want


def test_total_x_is_a_derivation():
    p = cf_var("v1") * cf_var("v1_1") + cf_exp("v1")
    q = cf_var("v1_1") ** 2
    lhs = total_x(p * q, ("v1",))
    rhs = total_x(p, ("v1",)) * q + p * total_x(q, ("v1",))
    assert lhs == rhs


def test_jet_order_overflow():
    with pytest.raises(JetOrderOverflow):
        total_x(cf_var("v1_3"), ("v1",), kmax=3)


def test_nls_flow_equations():
    # d/dt phi = rho_x and d/dt rho = rho phi_x with phi = v, rho = e^u
    spec = load_spec("p1")
    dt = flow_derivation(spec, 2)
    rho = cf_exp("v2")
    assert dt(cf_var("v1")) == total_x(rho, spec.varnames)
    assert dt(rho) == rho * cf_var("v1_1")


def test_a2_flow_equations():
    spec = load_spec("a2")
    dt = flow_derivation(spec, 2)
    rho = cf_mono(F(1, 6), {"v2": 2})
    # d rho/dt = (u/3) v_x, which is sqrt(6 rho)/3 phi_x on the u > 0 branch
    assert dt(rho) == cf_mono(F(1, 3), {"v2": 1, "v1_1": 1})
    assert dt(cf_var("v2")) == cf_var("v1_1")


def test_general_family_flow():
    data = genus1_twodim_family(F(5), F(2, 5))
    spec = data["spec"]
    dt = flow_derivation(spec, 2)
    # u_t = v_x, v_t = f'''(u) u_x
    assert dt(cf_var("v2")) == cf_var("v1_1")
    f3 = cf_mono(F(2, 5) * 5 * 4 * 3, {"v2": 2})
    assert dt(cf_var("v1")) == f3 * cf_var("v2_1")


def test_flow_commutes_with_total_x():
    spec = load_spec("p1")
    dt = flow_derivation(spec, 2, kmax=4)
    for f in (cf_var("v1"), cf_exp("v2"), cf_var("v1") * cf_var("v2_1")):
        lhs = dt(total_x(f, spec.varnames, kmax=4))
        rhs = total_x(dt(f), spec.varnames, kmax=4)
        assert lhs == rhs


def test_genus1_p1_pair():
    rep = genus1_report(p1_family_data())
    assert rep["pass"]
    # the leftover constant for this pair is i pi / 24 (ratio -1 inside the log)
    assert abs(rep["constant"] - cmath.pi * 1j / 24) < 1e-12


def test_genus1_a2_pair():
    rep = genus1_report(a2_family_data())
    assert rep["pass"]


def test_genus1_sampled_family():
    for m, c in [(F(4), F(1, 3)), (F(5), F(2, 5)), (F(-1), F(4)), (F(3, 2), F(1))]:
        rep = genus1_report(genus1_twodim_family(m, c))
        assert rep["pass"], (m, c)


def test_a2_is_family_instance():
    a2 = load_spec("a2")
    data = a2_family_data()
    assert (data["spec"].potential, data["spec"].mu) == (a2.potential, a2.mu)
    r1 = genus1_report(data)
    r2 = genus1_report(genus1_twodim_family(F(4), F(1, 72)))
    assert abs(r1["constant"] - r2["constant"]) < 1e-12


def test_exponent_bookkeeping_identity():
    # rational identity of bounded degree: checking more samples than the
    # degree proves it
    for m in (F(4), F(5), F(-1), F(7, 3), F(9, 2), F(11), F(-5, 2)):
        lhs = (m - 3) / 24 - (m - 3) * (2 * m - 5) / (24 * (m - 1) * (m - 2)) * (m - 2)
        rhs = -(m - 3) * (m - 4) / (24 * (m - 1))
        assert lhs == rhs


def test_constant_combo_detects_dependence():
    combo = [(F(1, 24), cf_var("v1_1") ** 2 + cf_var("v2"))]
    rep = check_constant_combo(combo)
    assert not rep["pass"]
