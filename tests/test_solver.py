import json
import math
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import slot_oracle
from frobwdvv import solver
from frobwdvv.cli import main
from frobwdvv.closedform import ClosedForm, Mono, mono_exp_degree
from frobwdvv.linalg import mat_inv
from frobwdvv.solver import (
    InconsistentSystemError, _a21_output, _ckl_output, _frame, _theta, divisor_sigma,
    gamma_series, nd_via_ode_route, recursion_ck, recursion_mk, recursion_nd, recursion_nkl, recursion_qk,
    recursion_wk, solve_a21, solve_ckl, solve_ckl_and_a,
)
from slot_oracle import (
    _c_rows, _pair_residual, p1xp1_family, p2_family, p2_s2_hat_family, s21_family,
    s22_family, slot_a21, slot_ckl, solve_slot_family,
)

from conftest import merge_product

F = Fraction


def test_nd_first_values():
    out = recursion_nd(4).table()
    assert [out[d] for d in (1, 2, 3, 4)] == [1, 1, 12, 620]


def test_nd_dual_route_agreement():
    a = recursion_nd(6).table()
    b = nd_via_ode_route(6).table()
    assert a == b


def test_nd_slot_route_agrees():
    sol = solve_slot_family(p2_family(5), 5, 4)
    got = {k[1]: v for k, v in sol.values.items() if k[0] == "N"}
    want = recursion_nd(4).table()
    for d, v in want.items():
        assert got[d] == v


def test_ck_values_and_integrality():
    out = recursion_ck(12)
    t = out.table()
    assert [t[k] for k in range(7)] == [1, 1, -2, 104, -24920, 16361976, -22819065536]
    assert all(out.audits["integrality"].values())


def test_ck_hat_ansatz_cross_check():
    # the slot monomials carry the 1/(3k)! normalization, so values are C_k
    sol = solve_slot_family(p2_s2_hat_family(), 5, 4)
    got = {k[1]: v for k, v in sol.values.items() if k[0] == "C"}
    want = recursion_ck(4).table()
    for k in range(1, 5):
        assert got[k] == want[k]


def test_mk_values_and_two_integrality():
    out = recursion_mk(12)
    t = out.table()
    assert [t[k] for k in range(1, 7)] == [1, 1, 8, 177, 6234, -67965]
    assert all(out.audits["two_integrality"].values())


def test_qk_values():
    out = recursion_qk(10)
    t = out.table()
    assert [k * t[k] for k in range(1, 5)] == [-1, 7, -69, 804]
    assert all(out.audits["k_qk_integral"].values())


def test_wk_seed_and_integrality():
    out = recursion_wk(8)
    t = out.table()
    assert t[1] == F(3, 32)
    # leading terms printed in the crystallographic kappa=3 potential
    assert t[2] == F(3, 4096)
    assert t[3] == F(1, 65536)
    assert all(out.audits["scaled_integrality"].values())


def chazy_residual_orders(max_m: int) -> dict:
    """Residual of gamma''' = 6 gamma gamma'' - 9 gamma'^2 through e-degree max_m,
    as {order: coefficient} over its nonzero orders."""
    x, series = _frame("q", max_m)
    g = series(gamma_series(max_m))
    g1 = _theta(g)
    g2 = _theta(g1)
    res = x.sum_of_products(((1, _theta(g2), series({0: 1})), (-6, g, g2), (9, g1, g1)))
    return {i: c for (i,), c in res.coeffs.items()}


def test_chazy_series():
    assert divisor_sigma(6) == 12
    assert chazy_residual_orders(10) == {}


def test_nkl_values_and_symmetry():
    out = recursion_nkl(4)
    t = out.table()
    assert t[(0, 1)] == 1 and t[(1, 0)] == 1
    assert t[(1, 1)] == 1
    assert t[(2, 0)] == 0
    assert out.audits["symmetric"]


def test_nkl_two_routes_agree():
    """The scalar WDVV recursion and the solve of the whole slot family give the
    same N_{k,l} table, in value and in type, at every cut."""
    assert recursion_nkl(0).values == []
    for m in range(1, 8):
        sol = solve_slot_family(p1xp1_family(m + 1), m + 1, m)
        slot = sorted((key[1:], v) for key, v in sol.values.items() if sum(key[1:]) <= m)
        got = recursion_nkl(m).values
        assert got == slot
        assert [type(v) for _, v in got] == [type(v) for _, v in slot]
    t = recursion_nkl(7).table()
    assert [t[2, 2], t[2, 3], t[2, 4], t[3, 3], t[3, 4]] == [12, 96, 640, 3510, 87544]


def test_nkl_prefix_stability():
    small = recursion_nkl(3).table()
    large = recursion_nkl(4).table()
    for k, v in small.items():
        assert large[k] == v


def test_ckl_two_routes_agree():
    """The scalar WDVV recursion and the slot solve of the whole s22 ansatz
    give the same c_{k,l} table and audit, in value and in type, at every
    bound from the least the CLI takes to the golden's, and at 11 and 14,
    past the first products of two unequal slots (k + l = 11)."""
    for m in [*range(2, 9), 11, 14]:
        got, slot = solve_ckl(m), slot_ckl(m)
        assert got.values == slot.values and got.audits == slot.audits, m
        assert [type(v) for _, v in got.values] == [type(v) for _, v in slot.values], m


def test_a21_two_routes_agree():
    """As above for a_{m1,m2} and the s21 ansatz, zeros included, at every
    bound up to the golden's and at 23: below 21 every nonzero product in the
    sum has o2 = 1, so the o2^2 of the displayed equation counts from 21."""
    for m in [*range(5, 20), 23]:
        got, slot = solve_a21(m), slot_a21(m)
        assert got.values == slot.values and got.audits == slot.audits, m
        assert [type(v) for _, v in got.values] == [type(v) for _, v in slot.values], m
        assert all(type(v) is Fraction for _, v in got.values), m


def test_ckl_and_a21_prefix_stability():
    for fn, small, large in ((solve_ckl, 8, 14), (solve_a21, 19, 31)):
        got, deeper = fn(small).values, fn(large).table()
        assert got and all(deeper[k] == v for k, v in got), fn.__name__


def test_ckl_and_a21_take_no_closed_form_products(monkeypatch, capsys):
    """The two tables are scalar recursions: neither the solvers nor the
    commands form a ClosedForm product, and no slot solver is left in src."""
    calls = []
    kernel = ClosedForm.sum_of_products

    def counted(triples, cut=None):
        calls.append(1)
        return kernel(triples, cut)

    monkeypatch.setattr(ClosedForm, "sum_of_products", staticmethod(counted))
    solve_ckl(8), solve_a21(19)
    assert main(["recursion", "ckl"]) == 0 and main(["recursion", "a21"]) == 0
    capsys.readouterr()
    assert calls == []
    assert not hasattr(solver, "solve_slot_family")


@pytest.fixture(scope="module")
def hat_families():
    return solve_ckl_and_a(max_ckl_level=8, max_a_level=19)


def test_ckl_printed_values(hat_families):
    t = hat_families["ckl"].table()
    assert t[(2, 3)] == 2 and t[(3, 2)] == 2
    assert t[(3, 5)] == 24 and t[(4, 4)] == 38 and t[(5, 3)] == 24
    assert hat_families["ckl"].audits["pattern_as_expected"]


def test_a21_printed_values(hat_families):
    t = hat_families["a"].table()
    assert t[(1, 1)] == 1
    assert t[(3, 1)] == F(1, 6)
    assert t[(5, 1)] == F(1, 120) and t[(5, 2)] == F(2, 120)
    assert t[(7, 1)] == F(1, 5040)
    assert t[(7, 2)] == F(20, 5040)
    assert t[(7, 3)] == F(24, 5040)
    assert hat_families["a"].audits["pattern_exceptions"] in ([], [(1, 1)])


def test_wrong_ansatz_is_inconsistent():
    # pinning a coefficient off the value forced by the seeds must surface as
    # an inconsistent overdetermined system (rescalings cannot absorb it)
    fam = p1xp1_family(4)
    fam.seeds[("N", 1, 1)] = F(5)
    with pytest.raises(InconsistentSystemError):
        solve_slot_family(fam, 4, 3)


def test_prefix_stability_univariate():
    for fn in (recursion_nd, recursion_ck, recursion_mk, recursion_qk, recursion_wk):
        small = fn(4).table()
        large = fn(7).table()
        for k, v in small.items():
            assert large[k] == v, fn.__name__


def test_qk_deeper_printed_tail():
    # power-tail coefficients of the displayed transformed potential: the
    # (k+2)-th power terms carry Q_k directly
    t = recursion_qk(6).table()
    assert [t[k] for k in range(1, 7)] == [
        F(-1), F(7, 2), F(-23), F(201), F(-10368, 5), F(23871)]


# -- the sparse pairing kernel against the dense loop -------------------------

def dense_c(f, fam):
    """Every c_{abg} (a <= b <= g) of f, zero entries included."""
    def d(i, g):
        out = g.diff(fam.varnames[i])
        pre = (fam.prefactors or {}).get(fam.varnames[i])
        return out if pre is None else pre * out

    n = len(fam.varnames)
    return {(a, b, g): d(g, d(b, d(a, f)))
            for a, b, g in combinations_with_replacement(range(n), 3)}


def dense_pair_residual(f1, f2, fam, depth_cap):
    """The pairing differences over every rho, sigma, quad and all three
    pairings, with sorted index lookups and plain ClosedForm arithmetic."""
    n = len(fam.varnames)
    eta_inv = mat_inv([list(r) for r in fam.eta])
    c1, c2 = dense_c(f1, fam), dense_c(f2, fam)

    def get(c, a, b, g):
        return c[tuple(sorted((a, b, g)))]

    def pairing(x, y, z, w):
        total = ClosedForm.zero()
        for rho in range(n):
            for sig in range(n):
                if eta_inv[rho][sig]:
                    for g1, g2 in ((c1, c2), (c2, c1)):
                        total = total + get(g1, rho, x, y) * get(g2, sig, z, w) * eta_inv[rho][sig]
        return total.filter(lambda m: fam.depth(m) <= depth_cap)

    out = {}
    for quad in combinations_with_replacement(range(n), 4):
        a, b, g, d_ = quad
        p1 = pairing(a, b, g, d_)
        for slot_id, other in ((0, pairing(a, g, b, d_)), (1, pairing(a, d_, b, g))):
            for m, c in (p1 - other).terms.items():
                out[(quad, slot_id, m)] = c
    return out


def sparse_pair_residual(f1, f2, fam, depth_cap):
    n = len(fam.varnames)
    eta_inv = mat_inv([list(r) for r in fam.eta])
    eta_nz = [[(s, e) for s, e in enumerate(row) if e] for row in eta_inv]
    rows = [_c_rows(f, fam.varnames, fam.prefactors, fam.depth) for f in (f1, f2)]
    return _pair_residual(*rows, eta_nz, n, fam.depth, depth_cap)


# (family, ansatz level, a slot, two slots): p1xp1 and p2 are polynomial times
# exp, s22 has derivation prefactors and logs, s21 exponentials and negative
# powers; the slots are chosen so that no residual below is empty
PAIRING_CASES = [
    (p1xp1_family(3), 3, ("N", 1, 1), (("N", 0, 1), ("N", 1, 0))),
    (p2_family(3), 3, ("N", 2), (("N", 1), ("N", 1))),
    (s22_family(), 8, ("C", 0, 0), (("C", 0, 1), ("C", 1, 0))),
    (s21_family(), 11, ("a", 1, 1), (("a", 1, 1), ("a", 2, 1))),
]


def pairing_case(fam, level, one, two):
    """Depth cap and the fixed-fixed, fixed-slot, slot-fixed and slot-slot pairs."""
    slot = {key: m for lv in range(level + 1) for key, m in fam.slot_gen(lv)}
    pairs = [(fam.fixed, fam.fixed), (fam.fixed, slot[one]), (slot[one], fam.fixed),
             (slot[two[0]], slot[two[1]])]
    return fam.excluded_min_depth(level) - 1, pairs


@pytest.mark.parametrize("case", PAIRING_CASES, ids=lambda c: c[0].name)
def test_pair_residual_matches_dense_loop(case):
    cap, pairs = pairing_case(*case)
    for i, (f1, f2) in enumerate(pairs):
        want = dense_pair_residual(f1, f2, case[0], cap)
        assert sparse_pair_residual(f1, f2, case[0], cap) == want
        assert want or i == 0


@pytest.mark.parametrize("case", PAIRING_CASES, ids=lambda c: c[0].name)
def test_pair_residual_pairs_each_index_pair_once(case, monkeypatch):
    calls = []
    kernel = ClosedForm.sum_of_products

    def counted(triples, cut=None):
        calls.append(1)
        return kernel(triples, cut)

    monkeypatch.setattr(ClosedForm, "sum_of_products", staticmethod(counted))
    n = len(case[0].varnames)
    distinct = math.comb(n * (n + 1) // 2 + 1, 2)       # 55 for n = 4, 21 for n = 3
    cap, pairs = pairing_case(*case)
    for f1, f2 in pairs:
        calls.clear()
        sparse_pair_residual(f1, f2, case[0], cap)
        assert 0 < len(calls) <= distinct


@pytest.mark.parametrize("case", PAIRING_CASES, ids=lambda c: c[0].name)
def test_pruned_pair_residual_is_exact_at_every_cap(case):
    """The row and entry depth bounds drop only pairs the cap would drop: from
    one below the least bound sum, where nothing is kept, up to the excluded
    depth, the pruned residual equals the dense loop key for key.  The slots'
    entries have one depth each, so the sum of the fixed part and the case's
    slots, whose entries mix depths, is paired with itself too."""
    fam, level, one, two = case
    _, pairs = pairing_case(*case)
    slot = {key: m for lv in range(level + 1) for key, m in fam.slot_gen(lv)}
    mixed = fam.fixed + slot[one] + slot[two[0]] + slot[two[1]]
    pairs.append((mixed, mixed))

    def top(row):
        return max(fam.depth(m) for _, c in row.values() for m in c.terms)

    cuts_inside = []
    for f1, f2 in pairs:
        rows1, rows2 = (_c_rows(f, fam.varnames, fam.prefactors, fam.depth) for f in (f1, f2))
        least = min(lo for lo, _ in rows1.values()) + min(lo for lo, _ in rows2.values())
        for cap in range(least - 1, fam.excluded_min_depth(level) + 1):
            want = dense_pair_residual(f1, f2, fam, cap)
            assert sparse_pair_residual(f1, f2, fam, cap) == want, cap
            assert cap >= least or not want
            # a row pair the cap keeps, with terms past it
            cuts_inside += [cap for lo1, r1 in rows1.values() for lo2, r2 in rows2.values()
                            if lo1 + lo2 <= cap < top(r1) + top(r2)]
    assert cuts_inside


def test_slot_solver_work_is_pinned(monkeypatch):
    """Before the pairings were pruned by depth bounds, the slot solve of
    s22_family to c_{k,l}, k + l <= 8 (the family cut at level 10), made
    7,837 sum_of_products calls, 6,702 of them empty, and that of s21_family
    to level 19 made 3,441, 1,781 of them empty, for the same 1,174 and 1,693
    kept terms.  Before slot pairs were skipped by their per-rho entry bounds,
    401 of the 557 _pair_residual calls of the s22 solve formed no product at
    all, 47 of 157 for the s21 solve and 24 of 170 for the quadric's slot
    route at N_{k,l}, k + l <= 6 (the family cut at level 7)."""
    sizes = []
    kernel = ClosedForm.sum_of_products

    def counted(triples, cut=None):
        out = kernel(triples, cut)
        sizes.append(len(out.terms))
        return out

    idle = []
    pair_residual = slot_oracle._pair_residual

    def pairing(*args):
        before = len(sizes)
        out = pair_residual(*args)
        idle.append(len(sizes) == before)
        return out

    monkeypatch.setattr(ClosedForm, "sum_of_products", staticmethod(counted))
    monkeypatch.setattr(slot_oracle, "_pair_residual", pairing)
    golden = Path(__file__).parent / "golden"
    for fam, level, output, bound, most, name in (
            (s22_family(), 10, _ckl_output, 8, 1200, "recursion_ckl_max_8.json"),
            (s21_family(), 19, _a21_output, 19, 1700, "recursion_a21_max_19.json")):
        sizes.clear()
        idle.clear()
        sol = solve_slot_family(fam, level, bound)
        assert len(sizes) <= most, len(sizes)
        assert sizes.count(0) <= len(sizes) / 100, sizes.count(0)
        assert idle.count(True) <= len(idle) / 100, (idle.count(True), len(idle))
        out = output({key[1:]: v for key, v in sol.values.items()}, bound)
        table = json.loads((golden / name).read_text())["table"]
        assert [[str(k), str(v)] for k, v in out.values] == table
    idle.clear()
    sol = solve_slot_family(p1xp1_family(7), 7, 6)
    assert idle and idle.count(True) <= len(idle) / 100, (idle.count(True), len(idle))
    got = {str(key[1:]): str(v) for key, v in sol.values.items()}
    table = json.loads((golden / "recursion_nkl_max_4.json").read_text())["table"]
    assert all(got[k] == v for k, v in table)


# every grading a product kernel truncates by: the spec exp degree and each
# slot family's depth (s21's is signed, mixing exponentials and powers)
GRADINGS = [("exp", mono_exp_degree, ("v1", "v2", "v3", "v4"))] + [
    (fam.name, fam.depth, fam.varnames)
    for fam in (p1xp1_family(2), p2_family(2), p2_s2_hat_family(), s22_family(), s21_family())]


@st.composite
def mono_pairs(draw, varnames):
    """Two monomials whose exponents often cancel in the product."""
    exps = st.sampled_from([-2, -1, F(-1, 2), 1, 2, F(3, 2)])
    part = st.dictionaries(st.sampled_from(varnames), exps, max_size=len(varnames))
    logs = st.dictionaries(st.sampled_from(varnames), st.integers(1, 2), max_size=2)
    m1 = Mono.make(draw(part), draw(logs), draw(part))
    flip = draw(st.sets(st.sampled_from(varnames)))
    # the second factor inverts some of the first's powers and exponentials
    powers, exps_ = dict(draw(part)), dict(draw(part))
    powers.update({v: -e for v, e in m1.powers if v in flip})
    exps_.update({v: -e for v, e in m1.exps if v in flip})
    return m1, Mono.make(powers, draw(logs), exps_)


@pytest.mark.parametrize("grading", GRADINGS, ids=lambda g: g[0])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gradings_are_additive_under_products(grading, data):
    _, depth, varnames = grading
    m1, m2 = data.draw(mono_pairs(varnames))
    prod = merge_product(m1, m2)
    assert depth(prod) == depth(m1) + depth(m2)


def test_round_loop_substitutes_only_into_equations_with_new_values(monkeypatch):
    """Live equations are kept in their last reduced form, so the round loop
    substitutes into one only after one of its unknowns has been pinned; the
    final consistency pass still substitutes into every equation."""
    eqs = [{("u",): F(2), (): F(-1)},           # u = 1/2
           {("u", "v"): F(1), ("w",): F(1)},    # u v + w = 0
           {("v",): F(1), (): F(-3)},           # v = 3
           {("x", "y"): F(1), ("z",): F(1)}]    # never reduced
    fresh = []
    substitute = slot_oracle._poly_substitute

    def spy(poly, known):
        fresh.append(any(k in known for ukeys in poly for k in ukeys))
        return substitute(poly, known)

    monkeypatch.setattr(slot_oracle, "_poly_substitute", spy)
    known = slot_oracle._solve_polynomial_equations("toy", eqs, ["u", "v", "w", "x", "y", "z"], {})
    assert known == {"u": F(1, 2), "v": F(3), "w": F(-3, 2)}
    assert len(fresh) == 4 + len(eqs) and all(fresh[:-len(eqs)])


def test_univariate_pivot_divides_exactly_with_ints():
    # the kernel keeps a coefficient as an int when it is handed one; the pivot
    # step then divides an int residual by an int slope, which must stay exact
    from frobwdvv.series import Grading, TruncSeries
    grading = Grading.total_degree(1, 0)

    def residual(a):    # 3 - 2 c_1, an int whenever c_1 is integral
        r = 3 - 2 * a[1]
        r = r.numerator if r.denominator == 1 else r
        return TruncSeries(("t",), (0,), {(0,): r} if r else {}, grading, _clean=True)

    got = solver._solve_univariate("t", residual, [1])
    assert got == {1: F(3, 2)} and type(got[1]) is Fraction


def test_univariate_work_is_pinned(monkeypatch):
    """The one-variable reductions below made 44,233 Fractions when they ran on
    their own dict series that added and multiplied one Fraction at a time;
    on the series kernel's integer views they make about 3,700."""
    made = [0]
    real = F.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    nd_via_ode_route(8), recursion_ck(6), recursion_mk(6), recursion_qk(4), recursion_wk(10)
    monkeypatch.undo()
    assert made[0] <= 6000, made[0]


# -- sympy as an independent oracle for the one-variable reductions ------------

def _reduction_oracles(sympy):
    """name -> (solver, order through which the displayed equation must vanish
    for a table of size n, equation of a table as a sympy expression in t).
    Each equation is the one its solver's docstring displays, with its
    normalisation of the table's entries."""
    t, R = sympy.Symbol("t", positive=True), sympy.Rational
    th = lambda e: sympy.expand(t * sympy.diff(e, t))    # the Euler operator
    d = lambda e: sympy.diff(e, t)
    q = lambda v: R(v.numerator, v.denominator)
    fact = sympy.factorial

    def nd(tab):
        f = sum(q(v) * t ** k / fact(3 * k - 1) for k, v in tab.items())
        f1, f2, f3 = th(f), th(th(f)), th(th(th(f)))
        return 27 * f3 - 3 * f2 * f3 + 2 * f1 * f3 - f2 ** 2 - 54 * f2 + 33 * f1 - 6 * f

    def ck(tab):
        p = sum(q(v) * t ** k / fact(3 * k) for k, v in tab.items())
        p1, p2, p3 = d(p), d(d(p)), d(d(d(p)))
        return (144 * t ** 4 * p3 * p2 + 24 * t ** 3 * (p3 * p1 + 12 * p2 ** 2)
                + 27 * t ** 2 * (p3 * p + 3 * p1 * p2) + 6 * t * (9 * p * p2 + p1 ** 2)
                + 6 * p * p1 - 1)

    def mk(tab):
        m = sum(4 ** (k - 1) * q(v) * t ** k / fact(3 * k + 1) for k, v in tab.items())
        m1, m2, m3 = th(m), th(th(m)), th(th(th(m)))
        return (9 * (3 + 2 * m1 + 6 * m2) * m3 - 3 * (4 * m1 + 3 * m2) * m2
                - 3 * (1 + m1) * m1 - t * (8 * m3 - 2 * m1 + 1))

    def qk(tab):    # the Laurent form, not the power series the solver runs on
        p = 1 / (24 * t) + sympy.log(t) / 2 - R(3, 4) + sum(q(v) * t ** k for k, v in tab.items())
        p1, p2, p3 = th(p), th(th(p)), th(th(th(p)))
        return 12 * t * (p1 + 3 * p2) * (2 * p1 + 3 * p2 + p3) - 1

    def wk(tab):
        m = sympy.log(t) / 2 + sum(q(v) * t ** k for k, v in tab.items())
        m1, m2, m3 = th(m), th(th(m)), th(th(th(m)))
        # 3 th(3th-1)(3th-2) m = 27 th^3 m - 27 th^2 m + 6 th m
        return (32 * m1 * (m2 + m3) - 16 * m2 * (13 * m2 - 12 * m3)
                - 3 * t * (9 * m3 - 9 * m2 + 2 * m1))

    return t, {"nd": (nd_via_ode_route, lambda n: n, nd),
               "ck": (recursion_ck, lambda n: n - 1, ck),
               "mk": (recursion_mk, lambda n: n, mk),
               "qk": (recursion_qk, lambda n: n, qk),
               "wk": (recursion_wk, lambda n: n, wk)}


@pytest.mark.parametrize("name", ["nd", "ck", "mk", "qk", "wk"])
def test_reductions_solve_their_displayed_equations(name):
    """The returned table, as a truncated series in the displayed equation,
    leaves no residual at any order up to the one where its last entry first
    acts; with any one entry changed by 1, some such order is left."""
    sympy = pytest.importorskip("sympy")
    t, oracles = _reduction_oracles(sympy)
    fn, cut, equation = oracles[name]
    n = 5
    table = fn(n).table()

    def residual_orders(tab):
        e = sympy.expand(equation(tab))
        return [j for j in range(-2, cut(n) + 1) if e.coeff(t, j) != 0]

    assert residual_orders(table) == []
    for k in table:
        assert residual_orders({**table, k: table[k] + 1}), k


def _hat_table_equations(sympy):
    """name -> (solver, bound, raw coefficients of its table, [(displayed
    equation of the raw coefficients, the monomials at which it must
    vanish)]).  Each equation is one that its solver's docstring displays,
    in the flat coordinate u; e^t is written T, with d/dt = T d/dT."""
    u, y, z, T = sympy.symbols("u y z T", positive=True)
    R, d = sympy.Rational, sympy.diff
    q = lambda v: R(v.numerator, v.denominator)

    def ckl_raw(out, n):        # undo the table's scaling by ((2s + 5)/3)!
        tab = out.table()
        return {(k, s - k): q(tab.get((k, s - k), 0))
                / (math.factorial((2 * s + 5) // 3) if s % 3 == 2 else 1)
                for s in range(n + 1) for k in range(s + 1)}

    def ckl(c):
        G = sum(v * u ** R(2 * (k + l) + 5, 3) * y ** -k * z ** -l for (k, l), v in c.items())
        eq = (d(G, u, u, u) - 1 / (y * z) - d(G, u, y, y) / z - d(G, u, z, z) / y
              + d(G, u, u, y) * d(G, y, z, z) + d(G, u, u, z) * d(G, y, y, z)
              - d(G, u, y, y) * d(G, u, z, z) - d(G, u, y, z) ** 2)
        return [(eq, [(R(2 * (k + l) - 4, 3), -k, -l, 0) for k, l in c])]

    def a21(a):
        n = max(m1 + 4 * m2 for m1, m2 in a)
        G = sum(v * u ** R(3 - m1 - 2 * m2, 2) * y ** m1 * T ** m2 for (m1, m2), v in a.items())
        th = lambda e: T * d(e, T)
        Gt, Gtt, Gttt = th(G), th(th(G)), th(th(th(G)))
        wytt = Gttt / u - d(Gt, y, y) + d(G, u, u, y) * Gttt - d(Gt, u, u) * d(Gtt, y)
        wwtt = -y * Gttt / u ** 2 - 2 * d(Gt, u, y) + d(G, u, u, u) * Gttt - d(Gt, u, u) * d(Gtt, u)
        return [(wytt, [(R(1 - j, 2) - m, j, 0, m) for m in range(1, n)
                        for j in range(n) if j + 2 + 4 * m <= n]),
                (wwtt, [(-m, 0, 0, m) for m in range(2, n) if 1 + 4 * m <= n])]

    def residual(eq, at):
        """The monomials of `at` where the expanded equation is not zero."""
        got = {}
        for term in sympy.Add.make_args(sympy.expand(eq)):
            c, mono = term.as_independent(u, y, z, T)
            powers = mono.as_powers_dict()
            key = tuple(powers.get(v, 0) for v in (u, y, z, T))
            got[key] = got.get(key, 0) + c
        return [key for key in at if got.get(key, 0) != 0]

    return residual, {
        "ckl": (solve_ckl, 8, ckl_raw, ckl, [(0, 0), (3, 2), (4, 4)]),
        "a21": (solve_a21, 13, lambda out, n: {k: q(v) for k, v in out.values}, a21,
                [(2, 1), (1, 2), (5, 2)]),
    }


@pytest.mark.parametrize("name", ["ckl", "a21"])
def test_hat_tables_solve_their_displayed_equations(name):
    """The table, as the coefficients of the displayed hat potential, leaves
    each displayed WDVV equation no residual at any monomial where it pins an
    entry.  Changed by 1, an entry with no product term, one pinned by a
    linear term and one pinned by products of lower entries each leave a
    residual; so, for a21, does the bottom entry a_{1,2} in (u, u, t, t)."""
    sympy = pytest.importorskip("sympy")
    residual, oracles = _hat_table_equations(sympy)
    fn, n, raw, equations, changed = oracles[name]
    coeffs = raw(fn(n), n)
    for eq, at in equations(coeffs):
        assert at and residual(eq, at) == []
    for key in changed:
        broken = equations({**coeffs, key: coeffs[key] + 1})
        assert any(residual(eq, at) for eq, at in broken), key
    if name == "a21":   # (u, y, t, t) only ties a_{1,2} to a_{3,2}
        wwtt, at = equations({**coeffs, (1, 2): coeffs[1, 2] + 1})[1]
        assert residual(wwtt, at) == [(-2, 0, 0, 2)]
