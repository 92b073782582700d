from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from frobwdvv.closedform import cf_exp, cf_log, cf_mono, cf_var
from frobwdvv.exact import Exact, as_exact_scalar
from frobwdvv.series import (
    CenterMismatchError, Grading, SeriesMap, SingularCenterError, SingularJacobianError,
    TruncSeries, compose, invert_map, localize,
)

F = Fraction


def g(n, order):
    return Grading.total_degree(n, order)


def test_localize_polynomial_is_itself():
    f = cf_mono(F(1, 2), {"v1": 2, "v2": 1})
    s = localize(f, ("v1", "v2"), (F(0), F(0)), g(2, 4))
    assert s.coeffs == {(2, 1): F(1, 2)}


def test_localize_exp():
    s = localize(cf_exp("v2"), ("v1", "v2"), (F(0), F(0)), g(2, 3))
    assert s.coeffs == {(0, 0): F(1), (0, 1): F(1), (0, 2): F(1, 2), (0, 3): F(1, 6)}


def test_localize_shifted_power():
    # (v2)^4/72 at center v2=3, order 2: 9/8 + (3/2) x + (3/4) x^2
    f = cf_mono(F(1, 72), {"v2": 4})
    s = localize(f, ("v1", "v2"), (F(0), F(3)), g(2, 2))
    assert s.coeffs == {(0, 0): F(9, 8), (0, 1): F(3, 2), (0, 2): F(3, 4)}


def test_localize_log_at_one_is_exact():
    s = localize(cf_log("u"), ("u",), (F(1),), g(1, 4))
    assert s.coeffs == {(1,): F(1), (2,): F(-1, 2), (3,): F(1, 3), (4,): F(-1, 4)}
    assert s.is_exact()


def test_localize_singular_center():
    with pytest.raises(SingularCenterError):
        localize(cf_log("u"), ("u",), (F(0),), g(1, 3))
    with pytest.raises(SingularCenterError):
        localize(cf_var("u", F(1, 2)), ("u",), (F(0),), g(1, 3))
    # fractional power away from zero is fine
    s = localize(cf_var("u", F(5, 2)), ("u",), (F(3, 2),), g(1, 2))
    assert s.is_exact()


def test_invert_one_variable_catalan():
    # y = x + x^2 inverts to x = y - y^2 + 2y^3 - 5y^4 + 14y^5
    gr = g(1, 5)
    x = TruncSeries.coordinate(0, ("x",), (F(0),), gr)
    m = SeriesMap((x + x * x,))
    inv = invert_map(m)
    assert inv.components[0].coeffs == {
        (1,): F(1), (2,): F(-1), (3,): F(2), (4,): F(-5), (5,): F(14)}
    # composition both ways gives the identity
    back = compose(inv.components[0], m)
    assert back.coeffs == {(1,): F(1)}


def test_invert_identity():
    gr = g(2, 6)
    comps = tuple(TruncSeries.coordinate(i, ("a", "b"), (F(0), F(0)), gr) + F(i)
                  for i in range(2))
    m = SeriesMap(comps)
    inv = invert_map(m)
    round1 = compose(inv.components[0], m)
    assert round1.coeffs == {(1, 0): F(1)}


def test_invert_p1_hat_map_order8():
    # hat coordinates of the two-variable toy: (e^{v2} - 1 shifted, v1)
    gr = g(2, 8)
    f1 = localize(cf_exp("v2"), ("v1", "v2"), (F(0), F(0)), gr)
    f2 = localize(cf_var("v1"), ("v1", "v2"), (F(0), F(0)), gr)
    m = SeriesMap((f1, f2))
    inv = invert_map(m)
    for i in range(2):
        src = compose(inv.components[i], m)
        want = TruncSeries.coordinate(i, ("v1", "v2"), (F(0), F(0)), gr)
        assert (src - want).is_zero()
    center = m.target_center()
    for i in range(2):
        tgt = compose(m.components[i], inv)
        want = TruncSeries.coordinate(i, inv.components[0].vars, center, gr) + center[i]
        assert (tgt - want).is_zero()


def test_singular_jacobian():
    gr = g(2, 4)
    x = TruncSeries.coordinate(0, ("a", "b"), (F(0), F(0)), gr)
    m = SeriesMap((x, x * x))
    with pytest.raises(SingularJacobianError):
        invert_map(m)


def test_compose_center_mismatch():
    gr = g(1, 4)
    f = TruncSeries(("y",), (F(1),), {(1,): F(1)}, gr)
    x = TruncSeries.coordinate(0, ("x",), (F(0),), gr)
    with pytest.raises(CenterMismatchError):
        compose(f, SeriesMap((x,)))  # constant term 0 != center 1


def test_compose_square_substitution():
    # (x^2) composed with x = y - y^2 gives y^2 - 2y^3 + y^4
    gr = g(1, 4)
    y = TruncSeries.coordinate(0, ("y",), (F(0),), gr)
    m = SeriesMap((y - y * y,))
    f = TruncSeries(("x",), (F(0),), {(2,): F(1)}, gr)
    out = compose(f, m)
    assert out.coeffs == {(2,): F(1), (3,): F(-2), (4,): F(1)}


def test_truncation_is_an_ideal():
    gr = g(1, 5)
    x = TruncSeries.coordinate(0, ("x",), (F(0),), gr)
    f = 1 + x + x ** 5
    h = x ** 3 + x ** 2
    full = f * h
    assert all(sum(i) <= 5 for i in full.coeffs)  # unit weights: degree = sum


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                min_size=2, max_size=4))
def test_invert_random_unit_jacobian(coefs):
    # x + sum c_k x^k: unit Jacobian, inverse composes to identity exactly
    gr = g(1, 6)
    x = TruncSeries.coordinate(0, ("x",), (F(0),), gr)
    m0 = x
    p = x
    for c in coefs:
        p = p * x
        m0 = m0 + p * c
    m = SeriesMap((m0,))
    inv = invert_map(m)
    assert compose(inv.components[0], m).coeffs == {(1,): F(1)}


def test_scalar_product_drops_only_zero_products():
    s = TruncSeries(("u",), (F(0),), {(0,): F(3), (1,): 1e-200, (2,): Exact({2: F(1)})},
                    g(1, 4))
    assert (s * 1e-200).coeffs == {(0,): 3e-200, (2,): complex(2 ** 0.5 * 1e-200)}
    assert (s * Exact({2: F(1, 2)})).coeffs == {(0,): Exact({2: F(3, 2)}), (1,): complex(
        2 ** 0.5 / 2 * 1e-200), (2,): F(1)}
    assert (s * 0).coeffs == {}


def test_exact_and_float_paths_agree():
    f = cf_exp("u", 2) * cf_mono(F(1, 3), {"u": 2})
    exact = localize(f, ("u",), (F(0),), g(1, 6))
    approx = localize(f, ("u",), (0.0,), g(1, 6))
    for idx, c in exact.coeffs.items():
        assert abs(complex(approx.coeffs[idx]) - complex(c)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=2),
                min_size=4, max_size=4))
def test_invert_random_two_variable_map(cs):
    # identity plus quadratic perturbation: unit Jacobian, exact inverse
    gr = g(2, 5)
    x = TruncSeries.coordinate(0, ("a", "b"), (F(0), F(0)), gr)
    y = TruncSeries.coordinate(1, ("a", "b"), (F(0), F(0)), gr)
    m = SeriesMap((x + x * y * cs[0] + y * y * cs[1],
                   y + x * x * cs[2] + x * y * cs[3]))
    inv = invert_map(m)
    for i, want in enumerate((x, y)):
        assert (compose(inv.components[i], m) - want).is_zero()


def test_series_json_emission():
    gr = g(2, 3)
    s = TruncSeries(("x", "y"), (F(0), F(1)), {(1, 0): F(2), (0, 2): F(-1, 3)}, gr)
    obj = s.to_json_obj()
    assert obj["center"] == ["0", "1"]
    assert obj["grading"]["order"] == "3"
    assert [[1, 0], "2"] in obj["coeffs"] and [[0, 2], "-1/3"] in obj["coeffs"]


# -- the integer-graded product kernel against a term-by-term reference -------

def _fdeg(gr, idx):
    return sum((w * k for w, k in zip(gr.weights, idx)), F(0))


def _reference_product(a, b):
    """Every pair formed, summed, then cut with Fraction weighted degrees."""
    out = {}
    for i1, c1 in a.coeffs.items():
        for i2, c2 in b.coeffs.items():
            idx = tuple(x + y for x, y in zip(i1, i2))
            out[idx] = out.get(idx, 0) + c1 * c2
    return {i: as_exact_scalar(c) for i, c in out.items()
            if c and _fdeg(a.grading, i) <= a.grading.order}


def _typed(coeffs):
    return {i: (type(c), c) for i, c in coeffs.items()}


weights = st.sampled_from([F(1), F(1, 2), F(3, 2), F(1, 3), F(2, 3), F(2)])
small_ints = st.sampled_from([1, -1, 2, -2, 3])


@st.composite
def scalars(draw, kind):
    if kind == "fraction":
        return draw(st.one_of(small_ints.map(F),
                              st.fractions(min_value=-3, max_value=3, max_denominator=4)))
    if kind == "exact":
        q = [draw(st.fractions(min_value=-2, max_value=2, max_denominator=3)) for _ in range(3)]
        return as_exact_scalar(q[0] + Exact.sqrt(2) * q[1] + Exact.sqrt(6) * q[2])
    # small integer parts make float cancellations happen too
    return complex(draw(small_ints), draw(st.sampled_from([0, 1, -1, 0.5])))


@st.composite
def series_pairs(draw):
    n = draw(st.integers(1, 3))
    gr = Grading(tuple(draw(weights) for _ in range(n)),
                 draw(st.fractions(min_value=0, max_value=4, max_denominator=3)))
    kind = draw(st.sampled_from(["fraction", "exact", "complex"]))
    vars, center = tuple("xyz"[:n]), tuple([F(0)] * n)
    idx = st.tuples(*[st.integers(0, 4)] * n)
    raw = [draw(st.dictionaries(idx, scalars(kind), max_size=7)) for _ in range(2)]
    return [(TruncSeries(vars, center, r, gr), r) for r in raw]


@settings(max_examples=150, deadline=None)
@given(series_pairs())
def test_product_matches_pairwise_reference(pair):
    (a, raw_a), (b, _) = pair
    gr = a.grading
    kept = {i: as_exact_scalar(c) for i, c in raw_a.items() if c and _fdeg(gr, i) <= gr.order}
    assert _typed(a.coeffs) == _typed(kept)
    assert _typed((a * b).coeffs) == _typed(_reference_product(a, b))
    # cancellation: a*b - b*a is zero, and (a + b)(a - b) = a^2 - b^2
    assert (a * b - b * a).is_zero()
    if a.is_exact():
        assert _typed(((a + b) * (a - b)).coeffs) == _typed((a * a - b * b).coeffs)


@settings(max_examples=60, deadline=None)
@given(series_pairs(), st.fractions(min_value=0, max_value=4, max_denominator=3))
def test_degree_filters_match_fraction_degrees(pair, deg):
    (a, _), _ = pair
    gr = a.grading
    assert a.drop_low_degree(deg).coeffs == {
        i: c for i, c in a.coeffs.items() if _fdeg(gr, i) >= deg}
    assert a.homogeneous_part(deg).coeffs == {
        i: c for i, c in a.coeffs.items() if _fdeg(gr, i) == deg}
    assert a.truncate(deg).coeffs == {i: c for i, c in a.coeffs.items() if _fdeg(gr, i) <= deg}


def test_integer_grading_floors_a_fractional_cutoff():
    gr = Grading((F(1, 2), F(3, 2)), F(7, 3))
    assert (gr.scale, gr.int_weights, gr.cutoff) == (2, (1, 3), 4)
    x = TruncSeries.coordinate(0, ("x", "y"), (F(0), F(0)), gr)
    y = TruncSeries.coordinate(1, ("x", "y"), (F(0), F(0)), gr)
    # x^4 (degree 2) and x y (degree 2) stay, x^5 and y^2 (degree 5/2, 3) go
    assert (x ** 5 + x ** 4 + x * y + y * y).coeffs == {(4, 0): F(1), (1, 1): F(1)}
    # (sqrt2 x + y)(sqrt2 x - y) = 2 x^2 - y^2: the x y terms cancel, y^2 is
    # past the cutoff, and sqrt2 * sqrt2 comes back as a Fraction
    r2 = Exact.sqrt(2)
    assert _typed(((x * r2 + y) * (x * r2 - y)).coeffs) == {(2, 0): (F, F(2))}


# -- inversion and the per-map power table -----------------------------------

@st.composite
def invertible_maps(draw):
    n = draw(st.integers(2, 3))
    w = draw(st.sampled_from([F(1), F(1, 2)]))
    gr = Grading(tuple([w] * n), draw(st.sampled_from([F(3), F(4), F(7, 2)])) * w)
    src = tuple(draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
                for _ in range(n))
    tgt = [draw(st.fractions(min_value=-2, max_value=2, max_denominator=3)) for _ in range(n)]
    jac = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    assume(round(np.linalg.det(np.array(jac, dtype=float))) != 0)
    vars = tuple("abc"[:n])
    x = [TruncSeries.coordinate(i, vars, src, gr) for i in range(n)]
    comps = []
    for i in range(n):
        s = TruncSeries.constant(tgt[i], vars, src, gr)
        for j in range(n):
            s = s + x[j] * jac[i][j]
        for _ in range(draw(st.integers(0, 3))):
            mono = TruncSeries.constant(draw(st.fractions(min_value=-1, max_value=1,
                                                          max_denominator=3)), vars, src, gr)
            for _ in range(draw(st.integers(2, 3))):
                mono = mono * x[draw(st.integers(0, n - 1))]
            s = s + mono
        comps.append(s)
    return SeriesMap(tuple(comps))


@settings(max_examples=25, deadline=None)
@given(invertible_maps())
def test_inverse_composes_to_identity(m):
    inv = invert_map(m)
    frame = m.components[0]
    for i in range(len(m.components)):
        want = TruncSeries.coordinate(i, frame.vars, frame.center, frame.grading) \
            + frame.center[i]
        assert compose(inv.components[i], m) == want


def test_second_compose_forms_no_offset_powers(monkeypatch):
    gr = g(2, 8)
    x = TruncSeries.coordinate(0, ("a", "b"), (F(0), F(0)), gr)
    y = TruncSeries.coordinate(1, ("a", "b"), (F(0), F(0)), gr)
    m = SeriesMap((x + x * y + 1, y - x * x * F(1, 2)))
    f = TruncSeries(("u", "v"), (F(1), F(0)), {(3, 2): F(1), (4, 0): F(2), (0, 5): F(-1)}, gr)
    calls = []
    mul = TruncSeries.__mul__

    def counting(a, b):
        calls.append(b)
        return mul(a, b)

    monkeypatch.setattr(TruncSeries, "__mul__", counting)
    first = compose(f, m)
    n_first = len(calls)
    del calls[:]
    assert compose(f, m) == first
    # one multiplication per variable factor of each monomial, none for the powers
    assert len(calls) == sum(1 for idx in f.coeffs for k in idx if k) < n_first


# -- localize against a sympy Taylor oracle -------------------------------------

CUBES = [F(1), F(8), F(27, 8), F(1, 8), F(64)]
OTHER_CENTRES = [F(9, 4), F(2), F(-8), F(-1, 2), complex(1.5, 0.5), complex(-0.75, 1.25),
                 complex(2, 0)]


@st.composite
def taylor_cases(draw):
    """A rational or complex centre and a closed form in powers (denominators
    1 to 3), logs and exponentials that is analytic there.  Half the draws
    keep to perfect cubes, logs at 1 and no exponentials, where every
    coefficient is exact."""
    exact = draw(st.booleans())
    centre = tuple(draw(st.sampled_from(CUBES if exact else CUBES + OTHER_CENTRES))
                   for _ in range(2))
    f = cf_mono(F(0), {})
    for _ in range(draw(st.integers(1, 3))):
        powers, logs, exps = {}, {}, {}
        for v, c in zip(("x", "y"), centre):
            den = draw(st.integers(1, 3))
            powers[v] = F(draw(st.integers(-3 * den, 3 * den)), den)
            if c == 1 or not exact:
                logs[v] = draw(st.sampled_from([0, 0, 1, 2]))
            if not exact:
                exps[v] = draw(st.sampled_from([0, 0, 1, F(-3, 2)]))
        coeff = draw(st.sampled_from([F(1), F(-2, 3), F(5, 2), Exact({2: F(1, 3)})]))
        f = f + cf_mono(coeff, powers, logs, exps)
    return centre, f


def _sympy_scalar(sympy, c):
    if isinstance(c, Exact):
        return sum(_sympy_scalar(sympy, q) * sympy.sqrt(m) for m, q in c.terms.items())
    if isinstance(c, complex):
        return sympy.Rational(c.real) + sympy.I * sympy.Rational(c.imag)
    return sympy.Rational(F(c).numerator, F(c).denominator)


def _sympy_terms(sympy, f, symbols):
    """The monomials of a closed form as sympy expressions."""
    terms = []
    for m, c in f.terms.items():
        t = _sympy_scalar(sympy, c)
        for v, q in m.powers:
            t *= symbols[v] ** _sympy_scalar(sympy, q)
        for v, k in m.logs:
            t *= sympy.log(symbols[v]) ** k
        for v, e in m.exps:
            t *= sympy.exp(_sympy_scalar(sympy, e) * symbols[v])
        terms.append(t)
    return terms


@settings(max_examples=40, deadline=None)
@given(taylor_cases())
def test_localize_matches_sympy_taylor_coefficients(case):
    sympy = pytest.importorskip("sympy")
    centre, f = case
    symbols = {v: sympy.Symbol(v, positive=True) for v in ("x", "y")}
    terms = _sympy_terms(sympy, f, symbols)
    at = {symbols[v]: _sympy_scalar(sympy, c) for v, c in zip(("x", "y"), centre)}
    s = localize(f, ("x", "y"), centre, g(2, 3))
    # d^idx f / idx! at the centre, term by term
    parts = {}
    for t in terms:
        dx = t
        for i in range(4):
            d = dx
            for j in range(4 - i):
                parts.setdefault((i, j), []).append(
                    d.subs(at) / (sympy.factorial(i) * sympy.factorial(j)))
                d = sympy.diff(d, symbols["y"])
            dx = sympy.diff(dx, symbols["x"])
    for idx, ps in parts.items():
        want, got = sum(ps), s.coeffs.get(idx, F(0))
        if s.is_exact():
            assert sympy.expand(want - _sympy_scalar(sympy, got)) == 0
        else:
            # relative to the size of the terms, which may cancel
            scale = sum(abs(complex(p.evalf(30))) for p in ps)
            assert abs(complex(got) - complex(want.evalf(30))) <= 1e-12 * scale
