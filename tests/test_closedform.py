import cmath
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from frobwdvv import closedform, kernel
from frobwdvv.calibration import check_orthogonality, solve_calibration
from frobwdvv.closedform import (
    BranchPointError, ClosedForm, Cutoff, Mono, NeedsFloatError, NotIntegrableError,
    cf_exp, cf_log, cf_mono, cf_var, equal_mod_quadratic, mono_exp_degree,
)
from frobwdvv.core import build_tensors
from frobwdvv.exact import Exact, as_exact_scalar, normal_scalar
from frobwdvv.specs import load_spec

from conftest import assert_normal_scalar, assert_same_types

F = Fraction


def p1_potential():
    # (1/2)(v1)^2 v2 + e^{v2}
    return cf_mono(F(1, 2), {"v1": 2, "v2": 1}) + cf_exp("v2")


def test_diff_product_of_examples():
    f = p1_potential()
    d2 = f.diff("v2")
    assert d2 == cf_mono(F(1, 2), {"v1": 2}) + cf_exp("v2")

    g = cf_mono(F(1, 2), {"u": 2}, {"u": 1})  # (1/2) u^2 log u
    assert g.diff("u") == cf_mono(F(1), {"u": 1}, {"u": 1}) + cf_mono(F(1, 2), {"u": 1})

    h = cf_mono(F(3), {"u": F(5, 2)})  # 3 u^{5/2}
    assert h.diff("u") == cf_mono(F(15, 2), {"u": F(3, 2)})


def test_diff_commutes():
    f = p1_potential() * cf_log("v1") + cf_exp("v1", 2) * cf_var("v2", -3)
    assert f.diff("v1").diff("v2") == f.diff("v2").diff("v1")


def test_evaluate():
    f = cf_mono(F(1, 72), {"v2": 4})
    assert abs(f.evaluate({"v2": 3.0}) - 81 / 72) < 1e-14
    assert abs(cf_exp("v2").evaluate({"v2": 0.0}) - 1) < 1e-15
    assert abs(cf_log("u").evaluate({"u": -1.0}) - cmath.pi * 1j) < 1e-15


def test_evaluate_branch_point():
    with pytest.raises(BranchPointError):
        cf_log("u").evaluate({"u": 0.0})
    with pytest.raises(BranchPointError):
        cf_var("u", F(1, 2)).evaluate({"u": 0.0})
    assert cf_var("u", 3).evaluate({"u": 0.0}) == 0


def test_equal_mod_quadratic():
    f = p1_potential()
    g = f + cf_mono(F(1), {"v1": 1, "v2": 1}) + ClosedForm.const(7)
    assert equal_mod_quadratic(f, g, ["v1", "v2"])
    h = f + cf_mono(F(1), {"v1": 3})
    assert not equal_mod_quadratic(f, h, ["v1", "v2"])


def test_equal_mod_quadratic_nls_display():
    # (1/2) r^2 log r minus (3/4) r^2 differ by a quadratic
    a = cf_mono(F(1, 2), {"r": 2}, {"r": 1})
    b = a - cf_mono(F(3, 4), {"r": 2})
    assert equal_mod_quadratic(a, b, ["r"])


def test_antiderivative_power_log_exp():
    x = "x"
    assert cf_var(x, 2).antiderivative(x) == cf_mono(F(1, 3), {x: 3})
    assert cf_var(x, -1).antiderivative(x) == cf_log(x)
    f = cf_mono(F(1), {x: 1}, {x: 1})  # x log x
    F_ = f.antiderivative(x)
    assert F_.diff(x) == f
    g = cf_mono(F(1), {x: 2}, None, {x: F(3)})  # x^2 e^{3x}
    G = g.antiderivative(x)
    assert G.diff(x) == g
    with pytest.raises(NotIntegrableError):
        cf_mono(F(1), {x: F(1, 2)}, None, {x: 1}).antiderivative(x)


def test_mono_pow_radical_coeff():
    f = cf_mono(F(2, 3), {"u": 2})
    g = f.mono_pow(F(1, 2))
    (m, c), = g.terms.items()
    assert c == Exact({6: F(1, 3)})
    assert m.pow_of("u") == 1


def test_evaluate_exact_sqrt():
    f = cf_mono(F(4, 5), {"u": F(5, 2)})
    v = f.evaluate_exact({"u": F(3, 2)})
    # (4/5) * (3/2)^{5/2} = (4/5)(9/4)sqrt(3/2) = (9/5) sqrt(3/2) -> (3/10) sqrt(6) * 3 ...
    assert v == Exact({6: F(9, 10)})


def test_json_roundtrip():
    f = p1_potential() + cf_mono(Exact.sqrt(6), {"u": F(5, 2)}) + cf_log("u", 2)
    assert ClosedForm.from_json_obj(f.to_json_obj()) == f


names = st.sampled_from(["x", "y"])
small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def forms(draw):
    f = ClosedForm.zero()
    for _ in range(draw(st.integers(0, 3))):
        powers = {draw(names): draw(st.fractions(min_value=-2, max_value=3, max_denominator=2))}
        logs = {draw(names): draw(st.integers(0, 1))}
        exps = {draw(names): draw(st.fractions(min_value=-1, max_value=2, max_denominator=1))}
        f = f + cf_mono(draw(small_rats), powers, logs, exps)
    return f


@settings(max_examples=60)
@given(forms(), forms(), forms())
def test_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f - f).is_zero()


@settings(max_examples=40)
@given(forms())
def test_derivative_matches_finite_difference(f):
    pt = {"x": 0.7 + 0.31j, "y": 1.3 - 0.2j}
    h = 1e-6
    for var in ("x", "y"):
        up = dict(pt)
        dn = dict(pt)
        up[var] += h
        dn[var] -= h
        fd = (f.evaluate(up) - f.evaluate(dn)) / (2 * h)
        ex = f.diff(var).evaluate(pt)
        assert abs(fd - ex) <= 1e-6 * (1 + abs(ex))


# -- the fused product kernel -------------------------------------------------

radicals = st.sampled_from([Exact.sqrt(2), Exact.sqrt(3) + 1, Exact.rational(F(1, 3))])


@st.composite
def coeffs(draw):
    q = draw(small_rats.filter(bool))
    return q * draw(radicals) if draw(st.booleans()) else q


@st.composite
def kernel_forms(draw):
    """Forms with Fraction and Exact coefficients, integral and rational
    exponents, logs and exponentials."""
    f = ClosedForm.zero()
    for _ in range(draw(st.integers(0, 4))):
        powers = {draw(names): draw(st.fractions(min_value=-2, max_value=3, max_denominator=2))}
        logs = {draw(names): draw(st.integers(0, 2))}
        exps = {draw(names): draw(st.fractions(min_value=-1, max_value=3, max_denominator=2))}
        f = f + cf_mono(draw(coeffs()), powers, logs, exps)
    return f


def mono_product(m1, m2):
    """The product of two monomials through dicts and Mono.make."""
    def add(a, b):
        out = dict(a)
        for v, e in b:
            out[v] = out.get(v, 0) + e
        return out
    return Mono.make(add(m1.powers, m2.powers), add(m1.logs, m2.logs), add(m1.exps, m2.exps))


def reference_product(f, g):
    """Term-by-term product through dicts and Mono.make, independent of the kernel."""
    out = ClosedForm.zero()
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            out = out + ClosedForm({mono_product(m1, m2): c1 * c2})
    return out


def signed_depth(m):
    """A signed grading on powers and exponentials, like the solver's s21 family."""
    return 2 * m.exp_of("x") - m.pow_of("y")


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(small_rats, kernel_forms(), kernel_forms()), max_size=4),
       st.sampled_from([None, mono_exp_degree, signed_depth]),
       st.sampled_from([0, 1, F(3, 2), -1, F(-1, 2)]))
def test_sum_of_products_equals_filtered_sum(triples, depth, cap):
    cut = None if depth is None else Cutoff(depth, cap)
    want = ClosedForm.zero()
    for scale, f, g in triples:
        want = want + reference_product(f, g) * scale
    if cut is not None:
        want = want.filter(cut)
    got = ClosedForm.sum_of_products(triples, cut)
    assert got.terms == want.terms
    assert_same_types(got, want)
    # cancelling terms leave no zero coefficients behind
    assert not ClosedForm.sum_of_products(triples + [(-s, f, g) for s, f, g in triples],
                                          cut).terms


def test_sum_of_products_forms_only_the_pairs_within_the_cap(monkeypatch):
    # p1xp1's Hessian sums over the level-1 gradients: each formed pair merges
    # its powers, and its logs and exponentials when both factors carry them;
    # the pairs whose exp degree exceeds the cap cost no merge
    spec = load_spec("p1xp1")
    t = build_tensors(spec)
    cal = solve_calibration(spec, 1)
    cut = spec.exp_filter()
    n = spec.n
    sums = [[(1, t.c_mixed[sig][a][b], cal.grad(g, 1, sig + 1)) for sig in range(n)]
            for g in range(1, n + 1) for a in range(n) for b in range(a, n)]
    pairs = [(m1, m2) for triples in sums for _, f, h in triples
             for m1 in f.terms for m2 in h.terms]
    formed = [1 + bool(m1.logs and m2.logs) + bool(m1.exps and m2.exps)
              for m1, m2 in pairs if cut.depth(m1) + cut.depth(m2) <= cut.cap]
    merges = [0]
    real = closedform._merge

    def counting(a, b):
        merges[0] += 1
        return real(a, b)
    monkeypatch.setattr(closedform, "_merge", counting)
    for triples in sums:
        ClosedForm.sum_of_products(triples, cut)
    assert 0 < len(formed) < len(pairs)
    assert merges[0] == sum(formed)


def test_integer_views_and_depth_orders_are_built_once(monkeypatch):
    # a calibration and its orthogonality check pair the same gradients again
    # and again: each form's integer view, and its order under the spec's
    # grading, is built on its first kernel use only.  Only the forms that
    # reach the patch with no view count as new: `load_spec` differentiates the
    # potential, and so builds its view, before the patch is installed
    spec = load_spec("p1xp1")
    forms, fresh, seen, views, orders = {}, set(), {}, Counter(), Counter()
    calls = [0]
    real = kernel.view

    def counting(form, attr, depth=None, raw=False):
        # a build is an entry of the form's cache that was not there before
        cache = getattr(form, "_view", None) or {}
        if id(form) not in forms:
            fresh.update([] if cache else [id(form)])
            seen.update({(id(form), *key): v for key, v in cache.items()})
        forms[id(form)] = form      # kept alive, so that no id is reused
        calls[0] += 1
        out = real(form, attr, depth, raw)
        for (d, r), v in form._view.items():
            if seen.get((id(form), d, r)) is not v:
                seen[(id(form), d, r)] = v
                if d is None:
                    views[id(form)] += 1
                else:
                    orders[(id(form), d)] += 1
        return out
    monkeypatch.setattr(kernel, "view", counting)
    cal = solve_calibration(spec, 4)
    assert check_orthogonality(cal)["pass"]
    assert set(views.values()) == {1} and set(views) == fresh
    assert set(orders.values()) == {1} and orders
    # forms are reused, so a lost cache would show; building an order calls the
    # patch once more, for the plain view
    assert calls[0] - sum(orders.values()) > len(forms)
    # a second sum over the same factors builds nothing
    triples = [(1, cal.grad(1, 3, b), cal.grad(2, 1, b)) for b in range(1, spec.n + 1)]
    first = ClosedForm.sum_of_products(triples, spec.exp_filter())
    built = sum(views.values()), sum(orders.values())
    assert ClosedForm.sum_of_products(triples, spec.exp_filter()).terms == first.terms
    assert (sum(views.values()), sum(orders.values())) == built


@settings(max_examples=80, deadline=None)
@given(kernel_forms(), kernel_forms(), st.data())
def test_add_and_sub_match_dict_reference(f, g, data):
    def reference(f, g, sign):
        out = {}
        for form, s in ((f, 1), (g, sign)):
            for m, c in form.terms.items():
                out[m] = out.get(m, 0) + s * c
        return {m: normal_scalar(c) for m, c in out.items() if c}

    for sign, op in ((1, ClosedForm.__add__), (-1, ClosedForm.__sub__)):
        # g takes over some of f's terms so that they cancel in f op g
        h = dict(g.terms)
        h.update({m: -sign * c for m, c in f.terms.items() if data.draw(st.booleans())})
        h = ClosedForm(h)
        got = op(f, h)
        want = reference(f, h, sign)
        assert got.terms == want
        assert_same_types(got, want)
        assert op(f, F(5, 2)).terms == reference(f, ClosedForm.const(F(5, 2)), sign)
    assert not (f - f).terms and not (f + -f).terms


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(names, st.integers(-4, 4)), st.dictionaries(names, st.integers(0, 3)),
       st.dictionaries(names, st.integers(-3, 3)))
def test_mono_integral_fraction_exponents_are_ints(powers, logs, exps):
    m_int = Mono.make(powers, logs, exps)
    m_frac = Mono.make({v: F(e) for v, e in powers.items()}, logs,
                       {v: F(e) for v, e in exps.items()})
    assert m_int == m_frac and hash(m_int) == hash(m_frac)
    assert all(type(e) is int for _, e in m_frac.powers + m_frac.exps)
    f_int, f_frac = ClosedForm({m_int: F(2, 3)}), ClosedForm({m_frac: F(2, 3)})
    assert f_int.to_json_obj() == f_frac.to_json_obj() and repr(f_int) == repr(f_frac)
    # products normalise exponents that sum to an integer as well
    half = ClosedForm({Mono.make({v: F(1, 2) for v in powers}, None,
                                 {v: F(1, 2) for v in exps}): F(1)})
    (square,) = (half * half).terms
    assert all(type(e) is int for _, e in square.powers + square.exps)


@settings(max_examples=60, deadline=None)
@given(kernel_forms(), kernel_forms())
def test_product_evaluates_to_product_of_values(f, g):
    pt = {"x": 0.7 + 0.31j, "y": 1.3 - 0.2j}
    want = f.evaluate(pt) * g.evaluate(pt)
    assert abs((f * g).evaluate(pt) - want) <= 1e-9 * (1 + abs(want))


# -- sympy as an independent oracle for the calculus --------------------------

def to_sympy(f, sympy, symbols):
    """A closed form as a sympy expression, term by term."""
    def scalar(c):
        if isinstance(c, Exact):
            return sum(sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(m)
                       for m, q in c.terms.items())
        return sympy.Rational(c.numerator, c.denominator)

    def exponent(e):
        e = F(e)
        return sympy.Rational(e.numerator, e.denominator)

    out = sympy.Integer(0)
    for m, c in f.terms.items():
        term = scalar(c)
        for v, q in m.powers:
            term *= symbols[v] ** exponent(q)
        for v, k in m.logs:
            term *= sympy.log(symbols[v]) ** k
        for v, e in m.exps:
            term *= sympy.exp(exponent(e) * symbols[v])
        out += term
    return out


@settings(max_examples=60, deadline=None)
@given(kernel_forms(), names)
def test_diff_matches_sympy(f, var):
    sympy = pytest.importorskip("sympy")
    symbols = {v: sympy.Symbol(v, positive=True) for v in ("x", "y")}
    want = sympy.diff(to_sympy(f, sympy, symbols), symbols[var])
    got = to_sympy(f.diff(var), sympy, symbols)
    assert sympy.expand(sympy.powsimp(want - got)) == 0
    # the output keeps the kernel's normal form: int for integral exponents
    assert all(type(e) is int or e.denominator != 1
               for m in f.diff(var).terms for _, e in m.powers + m.exps)


# the Euler field E = sum_v (d_v v + r_v) d/dv: a shift r_v may sit on a
# variable that carries a log or an exponential
euler_fields = st.dictionaries(names, st.tuples(small_rats, small_rats))


def reference_euler_residual(f, field, weight):
    """E f - weight f through diff and sum_of_products, independent of the kernel."""
    return ClosedForm.sum_of_products(
        (1, cf_var(v) * d + r, f.diff(v)) for v, (d, r) in field.items()) - f * weight


@settings(max_examples=80, deadline=None)
@given(kernel_forms(), euler_fields, small_rats)
def test_euler_residual_matches_derivative_route(f, field, weight):
    got = f.euler_residual(field, weight)
    want = reference_euler_residual(f, field, weight)
    assert got.terms == want.terms
    assert_same_types(got, want)
    assert all(type(e) is int or e.denominator != 1
               for m in got.terms for _, e in m.powers + m.exps)


@settings(max_examples=40, deadline=None)
@given(kernel_forms(), euler_fields, small_rats)
def test_euler_residual_matches_sympy(f, field, weight):
    sympy = pytest.importorskip("sympy")
    symbols = {v: sympy.Symbol(v, positive=True) for v in ("x", "y")}
    rat = lambda q: sympy.Rational(q.numerator, q.denominator)  # noqa: E731
    f_sym = to_sympy(f, sympy, symbols)
    want = sum((rat(d) * symbols[v] + rat(r)) * sympy.diff(f_sym, symbols[v])
               for v, (d, r) in field.items()) - rat(weight) * f_sym
    got = to_sympy(f.euler_residual(field, weight), sympy, symbols)
    assert sympy.expand(sympy.powsimp(want - got)) == 0


@st.composite
def integrable_forms(draw):
    """Forms whose every term antidifferentiates in x: a rational power of x
    times a power of log x, or a polynomial in x times an exponential in x."""
    f = ClosedForm.zero()
    for _ in range(draw(st.integers(0, 3))):
        y_pow = draw(st.fractions(min_value=-2, max_value=3, max_denominator=2))
        if draw(st.booleans()):
            # x^-1 log^k x integrates to a log power: draw it often
            x_pow = st.one_of(st.just(F(-1)),
                              st.fractions(min_value=-2, max_value=3, max_denominator=3))
            powers = {"x": draw(x_pow), "y": y_pow}
            logs = {"x": draw(st.integers(0, 2))}
            exps = {"y": draw(st.fractions(min_value=-1, max_value=2, max_denominator=2))}
        else:
            powers = {"x": draw(st.integers(0, 3)), "y": y_pow}
            logs = {"y": draw(st.integers(0, 1))}
            exps = {"x": draw(st.fractions(min_value=-2, max_value=2, max_denominator=2)
                              .filter(bool))}
        f = f + cf_mono(draw(coeffs()), powers, logs, exps)
    return f


@settings(max_examples=40, deadline=None)
@given(integrable_forms())
def test_antiderivative_differentiates_back_in_sympy(f):
    sympy = pytest.importorskip("sympy")
    symbols = {v: sympy.Symbol(v, positive=True) for v in ("x", "y")}
    back = sympy.diff(to_sympy(f.antiderivative("x"), sympy, symbols), symbols["x"])
    assert sympy.expand(sympy.powsimp(back - to_sympy(f, sympy, symbols))) == 0


@settings(max_examples=40, deadline=None)
@given(kernel_forms())
def test_evaluate_matches_sympy(f):
    sympy = pytest.importorskip("sympy")
    symbols = {v: sympy.Symbol(v) for v in ("x", "y")}
    # y sits left of the branch cut of log and of the fractional powers
    exact_pt = {"x": sympy.Rational(7, 10) + sympy.Rational(31, 100) * sympy.I,
                "y": sympy.Rational(-13, 10) - sympy.Rational(1, 5) * sympy.I}
    want = complex(to_sympy(f, sympy, symbols)
                   .subs({symbols[v]: z for v, z in exact_pt.items()}).evalf(30))
    got = f.evaluate({"x": 0.7 + 0.31j, "y": -1.3 - 0.2j})
    assert abs(got - want) <= 1e-9 * (1 + abs(want))


@st.composite
def exactly_evaluable(draw):
    """A rational point and a form with an exact value there: half-integral
    powers of positive coordinates, third-integral ones of perfect cubes,
    integral ones of zero, logs only at 1 and exponentials only at 0."""
    cubes = [F(1), F(8), F(27, 8), F(1, 8)]
    pt = {v: draw(st.sampled_from([F(0), F(1, 4), F(2), F(9, 4), F(3, 2)] + cubes))
          for v in ("x", "y")}
    f = ClosedForm.zero()
    for _ in range(draw(st.integers(0, 4))):
        powers, logs, exps = {}, {}, {}
        for v, z in pt.items():
            if z == 0:
                powers[v] = draw(st.integers(0, 3))
                exps[v] = draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
            else:
                den = draw(st.sampled_from([1, 2, 3] if z in cubes else [1, 2]))
                powers[v] = F(draw(st.integers(-3 * den, 3 * den)), den)
                if z == 1:
                    logs[v] = draw(st.integers(0, 2))
        f = f + cf_mono(draw(coeffs()), powers, logs, exps)
    return pt, f


@settings(max_examples=60, deadline=None)
@given(exactly_evaluable())
# a rational value that sympy.nsimplify rewrites as a product of radicals
@example(({"x": F(8), "y": F(8)},
          cf_mono(F(-5, 2), {"x": -1, "y": -3}) + cf_mono(F(1, 4), {"x": F(-2, 3)})
          + cf_mono(F(-1, 9), {"x": 1, "y": 3})))
def test_evaluate_exact_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    pt, f = case
    symbols = {v: sympy.Symbol(v, nonnegative=True) for v in ("x", "y")}
    want = to_sympy(f, sympy, symbols).subs(
        {symbols[v]: sympy.Rational(z.numerator, z.denominator) for v, z in pt.items()})
    got = f.evaluate_exact(pt)
    assert sympy.expand(want - to_sympy(ClosedForm.const(got), sympy, symbols)) == 0
    # the value comes back normalized: a Fraction exactly when it is rational
    assert (type(got) is Fraction) == bool(want.is_rational)


def test_evaluate_exact_keeps_the_principal_branch():
    # a cube root is exact at a perfect cube; at a negative point the
    # principal value that `evaluate` takes is not real
    f = cf_var("u", F(5, 3))
    assert f.evaluate_exact({"u": F(27, 8)}) == F(243, 32)
    with pytest.raises(NeedsFloatError):
        f.evaluate_exact({"u": F(-8)})
    assert abs(f.evaluate({"u": -8.0}) - 32 * cmath.exp(5j * cmath.pi / 3)) < 1e-12


# -- the coefficient normal form ----------------------------------------------

# denominators near the machine word and a large prime: the kernels' lcm of
# such denominators runs far past 64 bits
HUGE = [F(1, 2**61 - 1), F(-5, 2**61 - 1), F(1, 10**9 + 7), F(3, 2 * (10**9 + 7))]


@st.composite
def normal_coeffs(draw):
    """An integral, a proper rational, a radical or a huge-denominator
    coefficient (plain or times sqrt 2), as often each."""
    kind = draw(st.sampled_from(["integral", "rational", "radical", "huge"]))
    if kind == "integral":
        return draw(st.integers(-6, 6).filter(bool))
    if kind == "huge":
        q = draw(st.sampled_from(HUGE))
        return q * Exact.sqrt(2) if draw(st.booleans()) else q
    q = draw(st.fractions(min_value=-3, max_value=3, max_denominator=6)
             .filter(lambda q: q.denominator != 1))
    return q if kind == "rational" else q * draw(radicals)


@st.composite
def mixed_forms(draw):
    """kernel_forms with int, Fraction and Exact coefficients drawn alike."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        m = Mono.make({draw(names): draw(st.fractions(min_value=-2, max_value=3,
                                                      max_denominator=2))},
                      {draw(names): draw(st.integers(0, 2))},
                      {draw(names): draw(st.fractions(min_value=-1, max_value=3,
                                                      max_denominator=2))})
        terms[m] = draw(normal_coeffs())
    return ClosedForm(terms)


# rationals as callers pass them: ints, Fractions that may be integral, and huge ones
rationals = st.one_of(st.integers(-3, 3), small_rats, st.sampled_from(HUGE))


def fraction_terms(f):
    """The coefficients of f as Fraction or Exact, never int."""
    return {m: as_exact_scalar(c) for m, c in f.terms.items()}


def _ref_acc(out, m, c):
    out[m] = out.get(m, F(0)) + c


def _ref_done(out):
    return {m: c for m, c in out.items() if c}


def _ref_sum_of_products(triples, cut):
    out = {}
    for scale, f, g in triples:
        for m1, c1 in fraction_terms(f).items():
            for m2, c2 in fraction_terms(g).items():
                m = mono_product(m1, m2)
                if cut is None or cut(m):
                    _ref_acc(out, m, as_exact_scalar(scale) * c1 * c2)
    return _ref_done(out)


def _ref_signed_sum(pairs):
    out = {}
    for scale, f in pairs:
        for m, c in fraction_terms(f).items():
            _ref_acc(out, m, as_exact_scalar(scale) * c)
    return _ref_done(out)


def _ref_diff(f, v):
    """d/dv term by term, in Fraction arithmetic: v^q log^k v e^{ev} goes to
    q v^{q-1} log^k v e^{ev} + k v^{q-1} log^{k-1} v e^{ev} + e v^q log^k v e^{ev}."""
    out = {}
    for m, c in fraction_terms(f).items():
        q, k, e = m.pow_of(v), m.log_of(v), m.exp_of(v)
        powers, logs, exps = dict(m.powers), dict(m.logs), dict(m.exps)
        down = {**powers, v: q - 1}
        _ref_acc(out, Mono.make(down, logs, exps), c * F(q))
        _ref_acc(out, Mono.make(down, {**logs, v: k - 1}, exps), c * F(k))
        _ref_acc(out, m, c * F(e))
    return _ref_done(out)


def _ref_euler_residual(f, field, weight):
    """sum_v (d_v v + r_v) d/dv f - weight f, in Fraction arithmetic."""
    out = {}
    for v, (d, r) in field.items():
        for m, c in _ref_diff(f, v).items():
            up = Mono.make({**dict(m.powers), v: m.pow_of(v) + 1}, dict(m.logs), dict(m.exps))
            _ref_acc(out, up, c * F(d))
            _ref_acc(out, m, c * F(r))
    for m, c in fraction_terms(f).items():
        _ref_acc(out, m, -c * F(weight))
    return _ref_done(out)


def _ref_antiderivative(f, v):
    """The power rule c v^q -> c / (q + 1) v^(q + 1) in Fraction arithmetic; the
    log and exponential shapes through the kernel's per-term integration."""
    out = {}
    for m, c in fraction_terms(f).items():
        q = m.pow_of(v)
        if q == -1 or m.log_of(v) or m.exp_of(v):
            for m2, c2 in fraction_terms(closedform._integrate_term(m, c, v)).items():
                _ref_acc(out, m2, c2)
        else:
            up = Mono.make({**dict(m.powers), v: q + 1}, dict(m.logs), dict(m.exps))
            _ref_acc(out, up, c / F(q + 1))
    return _ref_done(out)


# a form of many terms, every coefficient type among them
_BIG = ClosedForm({Mono.make({"x": k}, None, {"y": k % 2}): c for k, c in enumerate(
    [1, F(2, 3), -5, HUGE[0], Exact.sqrt(2), F(-7, 4), 3 * Exact.sqrt(3) + 1, HUGE[2], 9])})
_SOME = ClosedForm({Mono.make({"x": 1}): 2, Mono.make({"y": 1}): F(1, 3)})


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.one_of(normal_coeffs(), small_rats), mixed_forms(), mixed_forms()),
                min_size=1, max_size=3),
       st.lists(st.tuples(st.one_of(rationals, normal_coeffs(), st.just(0)), mixed_forms()),
                min_size=1, max_size=4),
       st.sampled_from([None, mono_exp_degree, signed_depth]),
       st.sampled_from([0, 1, F(3, 2), -1]), names,
       st.dictionaries(names, st.tuples(rationals, rationals)), rationals)
@example(  # huge denominators, with and without sqrt 2, in every kernel at once
    triples=[(HUGE[2], ClosedForm({Mono.make({"x": 1}): HUGE[0],
                                   Mono.make({"y": 2}, {"x": 1}): HUGE[2] * Exact.sqrt(2)}),
              ClosedForm({Mono.make({"x": -1}): HUGE[1], Mono.make(None, None, {"y": 1}): HUGE[3],
                          Mono.make({"x": F(1, 2)}): Exact.sqrt(2) - HUGE[3]})),
             (F(-1, 3), ClosedForm({Mono.make({"x": 1}): 7, Mono.make({"y": 2}, {"x": 1}): HUGE[1]}),
              ClosedForm({Mono.make({"x": -1}): 2**61 - 1, Mono.make({"y": -2}): HUGE[0]}))],
    summands=[(HUGE[1], ClosedForm({Mono.make({"x": 1}): HUGE[0]})),
              (Exact.sqrt(2), ClosedForm({Mono.make({"x": 1}): HUGE[2] * Exact.sqrt(2)}))],
    depth=mono_exp_degree, cap=0, var="x",
    field={"x": (HUGE[3], HUGE[0]), "y": (F(2), HUGE[2])}, weight=HUGE[1])
@example(  # a many-term form plus a one-term form that lands on one of its keys
    triples=[(1, _SOME, _SOME)],
    summands=[(1, _BIG), (F(-1, 3), ClosedForm({Mono.make({"x": 1}, None, {"y": 1}): F(3, 5)}))],
    depth=None, cap=0, var="x", field={}, weight=1)
@example(  # keys that cancel and then come back: the first summand's x and y,
    # and every key of _BIG among the other summands
    triples=[(1, _SOME, _SOME)],
    summands=[(1, _SOME), (-1, _SOME), (F(1, 2), _BIG), (F(-1, 2), _BIG), (2, _SOME + _BIG)],
    depth=None, cap=0, var="y", field={}, weight=1)
def test_kernel_results_are_in_normal_form(triples, summands, depth, cap, var, field, weight):
    # every kernel that stores a coefficient, against a reference that keeps
    # every coefficient a Fraction (or an Exact) and never normalizes
    cut = None if depth is None else Cutoff(depth, cap)
    (scale, f, g), *_ = triples
    cases = [
        (ClosedForm.sum_of_products(triples), _ref_sum_of_products(triples, None)),
        (ClosedForm.sum_of_products(triples, cut), _ref_sum_of_products(triples, cut)),
        (ClosedForm.signed_sum(summands), _ref_signed_sum(summands)),
        (f * scale, _ref_done({m: c * as_exact_scalar(scale)
                               for m, c in fraction_terms(f).items()})),
        (f.diff(var), _ref_diff(f, var)),
        (f.euler_residual(field, weight), _ref_euler_residual(f, field, weight)),
    ]
    try:
        cases.append((f.antiderivative(var), _ref_antiderivative(f, var)))
    except NotIntegrableError:
        pass
    for got, want in cases:
        assert got.terms == want
        for c in got.terms.values():
            assert_normal_scalar(c)


def test_antiderivative_of_an_int_coefficient_is_exact():
    # c / (q + 1) with c and q + 1 both ints
    f = ClosedForm({Mono.make({"x": 1}): 3, Mono.make({"x": 2, "y": 1}): -3})
    got = f.antiderivative("x")
    assert got.terms == {Mono.make({"x": 2}): F(3, 2), Mono.make({"x": 3, "y": 1}): -1}
    assert_same_types(got, {Mono.make({"x": 2}): F(3, 2), Mono.make({"x": 3, "y": 1}): -1})


@settings(max_examples=60, deadline=None)
@given(mixed_forms())
def test_json_round_trip_keeps_values_and_normal_form(f):
    back = ClosedForm.from_json_obj(f.to_json_obj())
    assert back.terms == f.terms
    assert_same_types(back, f)
