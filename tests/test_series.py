import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from frobwdvv import kernel, series
from frobwdvv.closedform import cf_mono, cf_var
from frobwdvv.exact import Exact, as_exact_scalar
from frobwdvv.series import (
    CenterMismatchError, Grading, SeriesMap, SingularCenterError, SingularJacobianError,
    TruncSeries, compose, invert_map, localize,
)

from conftest import cf_exp, cf_log

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


def _linear_complex_map(jac):
    """The map x -> (1j, 2) + jac x in two complex variables."""
    gr = g(2, 3)
    return SeriesMap(tuple(
        TruncSeries(("a", "b"), (0j, 0j), {(0, 0): c, (1, 0): row[0], (0, 1): row[1]}, gr)
        for c, row in zip((1j, 2.0), jac)))


@pytest.mark.parametrize("jac, message", [
    # rank one: the second row is (1 - 2j) times the first
    pytest.param([[0.3 + 0.7j, 1.1 - 0.2j], [(0.3 + 0.7j) * (1 - 2j), (1.1 - 0.2j) * (1 - 2j)]],
                 "numerically singular", id="rank-deficient"),
    # invertible in exact arithmetic, but |det| = 3e-14 is below the gate
    pytest.param([[1e-7j, 0.5], [0.0, 3e-7]], "numerically singular", id="tiny-det"),
])
def test_singular_complex_jacobian(jac, message):
    with pytest.raises(SingularJacobianError, match=message):
        invert_map(_linear_complex_map(jac))


def test_complex_jacobian_just_above_the_gate_inverts():
    # |det| = 2e-13: inverted, and the inverse composes to the identity
    m = _linear_complex_map([[2e-7j, 0.5], [0.0, 1e-6]])
    inv = invert_map(m)
    for i in range(2):
        out = compose(inv.components[i], m)
        want = TruncSeries.coordinate(i, ("a", "b"), (0j, 0j), g(2, 3))
        assert (out - want).max_abs_coeff() < 1e-9


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


# -- the total-degree product kernel against a term-by-term reference ---------

def _reference_product(a, b):
    """Every pair formed, summed, then cut at the (possibly fractional) order."""
    out = {}
    for i1, c1 in a.coeffs.items():
        for i2, c2 in b.coeffs.items():
            idx = tuple(x + y for x, y in zip(i1, i2))
            out[idx] = out.get(idx, 0) + c1 * c2
    return {i: as_exact_scalar(c) for i, c in out.items() if c and sum(i) <= a.grading.order}


def _typed(coeffs):
    return {i: (type(c), c) for i, c in coeffs.items()}


def _assert_normal(s):
    """An exact coefficient is a Fraction, or an Exact while a radical is left."""
    for c in s.coeffs.values():
        assert type(c) in (F, Exact, complex, float), type(c)
        assert not (type(c) is Exact and c.is_rational()), c


def _pairwise(terms, frame):
    """The sum of scale * c * b over (scale, [(idx, c)], series) terms, one pair
    at a time in plain scalar arithmetic and in the kernels' order: each term,
    each (idx, c), each term of the series shifted by idx, as (c * scale) * b
    (c * b for a scale of 1); a sum that comes to 0 is dropped, and restarts
    from the next pair.  Terms past the cutoff are not formed."""
    out = {}
    for scale, items, s in terms:
        for i1, c in items:
            c = c if scale == 1 else c * scale
            for i2, b in s.coeffs.items():
                idx = tuple(x + y for x, y in zip(i1, i2))
                if sum(idx) <= frame.grading.cutoff:
                    p = c * b if idx not in out else out[idx] + c * b
                    out[idx] = p
                    if not p:
                        del out[idx]
    return {i: as_exact_scalar(c) for i, c in out.items()}


small_ints = st.sampled_from([1, -1, 2, -2, 3])
# numerators and denominators past 64 bits once multiplied
huge = st.sampled_from([F(1, 2 ** 61 - 1), F(-3, 10 ** 9 + 7), F(2 ** 61 - 1, 6)])


@st.composite
def scalars(draw, kind):
    if kind == "fraction":
        return draw(st.one_of(small_ints.map(F), huge,
                              st.fractions(min_value=-3, max_value=3, max_denominator=4)))
    if kind == "exact":
        q = [draw(st.one_of(huge, st.fractions(min_value=-2, max_value=2, max_denominator=3)))
             for _ in range(3)]
        return as_exact_scalar(q[0] + Exact.sqrt(2) * q[1] + Exact.sqrt(6) * q[2])
    if kind == "mixed":
        return draw(scalars(draw(st.sampled_from(["fraction", "complex"]))))
    # small integer parts make float cancellations happen too
    return complex(draw(small_ints), draw(st.sampled_from([0, 1, -1, 0.5])))


@st.composite
def series_pairs(draw):
    """Two series in one frame with a fractional order, and 1 to 3 scales for
    `sum_of_products`: 0, 1, -1, a rational or one of the coefficients' kind
    (a mixed series holds both Fraction and complex coefficients)."""
    n = draw(st.integers(1, 3))
    gr = g(n, draw(st.fractions(min_value=0, max_value=4, max_denominator=3)))
    kind = draw(st.sampled_from(["fraction", "exact", "complex", "mixed"]))
    vars, center = tuple("xyz"[:n]), tuple([F(0)] * n)
    idx = st.tuples(*[st.integers(0, 4)] * n)
    raw = [draw(st.dictionaries(idx, scalars(kind), max_size=7)) for _ in range(2)]
    scales = draw(st.lists(st.one_of(st.sampled_from([0, 1, -1]), scalars("fraction"),
                                     scalars(kind)), min_size=1, max_size=3))
    return [(TruncSeries(vars, center, r, gr), r) for r in raw], scales, kind


@settings(max_examples=150, deadline=None)
@given(series_pairs())
def test_product_matches_pairwise_reference(case):
    ((a, raw_a), (b, _)), scales, kind = case
    gr = a.grading
    kept = {i: as_exact_scalar(c) for i, c in raw_a.items() if c and sum(i) <= gr.order}
    assert _typed(a.coeffs) == _typed(kept)
    assert _typed((a * b).coeffs) == _typed(_reference_product(a, b))
    # cancellation: a*b - b*a is zero, and (a + b)(a - b) = a^2 - b^2; a
    # Fraction and a complex product round apart, so not on mixed series
    if kind != "mixed":
        assert (a * b - b * a).is_zero()
    if a.is_exact() and b.is_exact():
        assert _typed(((a + b) * (a - b)).coeffs) == _typed((a * a - b * b).coeffs)
    # sum_of_products: one dict over 1 to 3 triples equals the sum of the
    # scaled pairs, term for term, in normal form
    triples = [(s, *fg) for s, fg in zip(scales, [(a, b), (b, a), (a, a)])]
    got = TruncSeries.sum_of_products(triples)
    assert _typed(got.coeffs) == _typed(_pairwise(
        [(s, f.coeffs.items(), h) for s, f, h in triples if s], a))
    _assert_normal(got)
    # terms cancelling across triples leave no zero coefficients behind, when
    # no product rounds: a complex one with a scale that a float cannot hold does
    if kind in ("fraction", "exact") or kind == "complex" and all(complex(x) == x for x in scales):
        assert TruncSeries.sum_of_products(
            triples + [(-s, h, f) for s, f, h in triples]).is_zero()
    # every series must share the frame of the first, a zero-scale one too
    moved = TruncSeries(a.vars, tuple([F(1)] * a.nvars), raw_a, gr)
    for mixed in ([(1, a, moved)], [(0, a, b), (1, moved, a)],
                  [(1, a, b), (0, a, b.truncate(gr.order + 1))]):
        with pytest.raises(CenterMismatchError):
            TruncSeries.sum_of_products(mixed)


@settings(max_examples=60, deadline=None)
@given(series_pairs(), st.fractions(min_value=0, max_value=4, max_denominator=3))
def test_degree_filters_match_fraction_degrees(case, deg):
    ((a, _), _), _, _ = case
    assert a.drop_low_degree(deg).coeffs == {
        i: c for i, c in a.coeffs.items() if sum(i) >= deg}
    assert a.homogeneous_part(deg).coeffs == {
        i: c for i, c in a.coeffs.items() if sum(i) == deg}
    assert a.truncate(deg).coeffs == {i: c for i, c in a.coeffs.items() if sum(i) <= deg}


def test_integer_grading_floors_a_fractional_cutoff():
    gr = g(2, F(7, 3))
    assert (gr.cutoff, gr.weights) == (2, (F(1), F(1)))
    x = TruncSeries.coordinate(0, ("x", "y"), (F(0), F(0)), gr)
    y = TruncSeries.coordinate(1, ("x", "y"), (F(0), F(0)), gr)
    # x^2 and x y (degree 2) stay, x^3 and x y^2 (degree 3 > 7/3) go
    assert (x ** 3 + x ** 2 + x * y + x * y * y).coeffs == {(2, 0): F(1), (1, 1): F(1)}
    # (sqrt2 x + y)(sqrt2 x - y) = 2 x^2 - y^2: the x y terms cancel, and
    # sqrt2 * sqrt2 comes back as a Fraction
    r2 = Exact.sqrt(2)
    assert _typed(((x * r2 + y) * (x * r2 - y)).coeffs) == {(2, 0): (F, F(2)), (0, 2): (F, F(-1))}


# -- inversion and the per-map power table -----------------------------------

@st.composite
def invertible_maps(draw):
    n = draw(st.integers(2, 3))
    gr = g(n, draw(st.sampled_from([F(3), F(4), F(7, 2)])))
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
    # the basis table holds f's indices and, under each, the chain that drops
    # one factor of the last variable at a time; every entry past degree 1 is
    # one series product, and no term is scaled into a temporary series
    chains = {(3, 2), (3, 1), (3, 0), (2, 0), (4, 0), (0, 5), (0, 4), (0, 3), (0, 2)}
    assert set(m._basis) == chains | {(1, 0), (0, 1)}
    assert len(calls) == len(chains)
    assert all(isinstance(b, TruncSeries) for b in calls)
    del calls[:]
    assert compose(f, m) == first
    assert calls == []


@settings(max_examples=25, deadline=None)
@given(invertible_maps())
def test_invert_map_forms_each_basis_product_once(m):
    maps, products = {}, []
    basis, mul = SeriesMap.basis, TruncSeries.__mul__

    def recording_basis(self, idx):
        maps[id(self)] = self
        return basis(self, idx)

    def counting(a, b):
        if isinstance(b, TruncSeries):
            products.append((a, b))
        return mul(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SeriesMap, "basis", recording_basis)
        mp.setattr(TruncSeries, "__mul__", counting)
        invert_map(m)
    # one product per table entry past degree 1 of the map and of the linear
    # seed (used once a correction is due), and no (map, index) product twice
    assert m in maps.values() and len(maps) <= 2
    assert len(products) == sum(1 for t in maps.values() for i in t._basis if sum(i) >= 2)
    assert len({(id(a), id(b)) for a, b in products}) == len(products)


# -- the per-term pullback that `compose` and `invert_map` replaced, as oracles

def _ref_compose(f, m):
    """f after m with one product chain per term, summed into a dict."""
    frame = m.components[0]
    powers = [[c - c.constant_term()] for c in m.components]
    out = {}
    for idx, c in sorted(f.coeffs.items()):
        term = None
        for row, k in zip(powers, idx):
            if k:
                while len(row) < k:
                    row.append(row[-1] * row[0])
                term = row[k - 1] * c if term is None else term * row[k - 1]
        if term is None:
            term = TruncSeries.constant(c, frame.vars, frame.center, frame.grading)
        for j, b in term.coeffs.items():
            s = out[j] + b if j in out else b
            if s:
                out[j] = s
            else:
                out.pop(j, None)
    return TruncSeries(frame.vars, frame.center, out, frame.grading)


def _ref_invert_map(m):
    """The inverse map that recomposes the whole candidate at every degree."""
    frame = m.components[0]
    gr, n = frame.grading, len(m.components)
    jac = m.jacobian()
    if all(isinstance(x, Fraction) for row in jac for x in row):
        from frobwdvv.linalg import mat_inv
        jinv = mat_inv(jac)
    else:
        jinv = np.linalg.inv(np.array([[complex(x) for x in row] for row in jac])).tolist()
    tgt_vars, tgt_center = tuple(f"y{i + 1}" for i in range(n)), m.target_center()
    comps = []
    for i in range(n):
        s = TruncSeries.constant(frame.center[i], tgt_vars, tgt_center, gr)
        for j in range(n):
            if jinv[i][j]:
                s = s + TruncSeries.coordinate(j, tgt_vars, tgt_center, gr) * jinv[i][j]
        comps.append(s)
    lin_map = SeriesMap(tuple(comps))
    for deg in range(2, gr.cutoff + 1):
        err = [(_ref_compose(comps[i], m) - frame.center[i]
                - TruncSeries.coordinate(i, frame.vars, frame.center, gr)).homogeneous_part(deg)
               for i in range(n)]
        for i in range(n):
            if not err[i].is_zero():
                comps[i] = comps[i] - _ref_compose(err[i], lin_map)
    return SeriesMap(tuple(comps))


@st.composite
def complex_maps(draw):
    """An exact invertible map with each component scaled by a nonzero complex
    number and given complex terms of degree 2 and 3: the Jacobian stays
    invertible."""
    m = draw(invertible_maps())
    frame = m.components[0]
    high = st.tuples(*[st.integers(0, 3)] * frame.nvars).filter(lambda i: 2 <= sum(i) <= 3)
    comps = []
    for comp in m.components:
        z = draw(scalars("complex"))
        coeffs = {i: complex(c) * z for i, c in comp.coeffs.items()}
        for i, c in draw(st.dictionaries(high, scalars("complex"), max_size=3)).items():
            coeffs[i] = coeffs.get(i, 0) + c
        comps.append(TruncSeries(frame.vars, frame.center, coeffs, frame.grading))
    return SeriesMap(tuple(comps))


def _target_series(draw, m, kind):
    """A series in the frame of m's image, with coefficients of one kind."""
    n = len(m.components)
    raw = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), scalars(kind), max_size=6))
    return TruncSeries(tuple("uvw"[:n]), m.target_center(), raw, m.components[0].grading)


def _assert_close(a, b, residue=0.0, rel=1e-14):
    """Every coefficient agrees to rel times its modulus.  A sum that cancels
    leaves a rounding residue in either order of summation, so with `residue`
    set, rel times residue * (the largest modulus in the series) also passes."""
    assert a.same_frame(b)
    floor = residue * max(a.max_abs_coeff(), b.max_abs_coeff())
    for i in set(a.coeffs) | set(b.coeffs):
        x, y = complex(a.coeffs.get(i, 0)), complex(b.coeffs.get(i, 0))
        assert abs(x - y) <= rel * max(abs(x), abs(y), floor), (i, x, y)


@settings(max_examples=25, deadline=None)
@given(invertible_maps(), st.sampled_from(["fraction", "exact"]), st.data())
def test_exact_pullback_equals_the_per_term_reference(m, kind, data):
    f = _target_series(data.draw, m, kind)
    assert _typed(compose(f, m).coeffs) == _typed(_ref_compose(f, m).coeffs)
    for a, b in zip(invert_map(m).components, _ref_invert_map(m).components):
        assert a.same_frame(b) and _typed(a.coeffs) == _typed(b.coeffs)


@settings(max_examples=25, deadline=None)
@given(complex_maps(), st.data())
def test_complex_pullback_matches_the_per_term_reference(m, data):
    f = _target_series(data.draw, m, "complex")
    _assert_close(compose(f, m), _ref_compose(f, m), residue=1.0)
    # each degree step of the inversion starts from the rounding of the last,
    # and these random Jacobians are not well conditioned: over 400 draws the
    # two orders of summation differed by up to 9.4e-15 of the largest modulus
    for a, b in zip(invert_map(m).components, _ref_invert_map(m).components):
        _assert_close(a, b, residue=1.0, rel=1e-13)


def test_p2_float_transform_matches_the_per_term_reference(monkeypatch):
    # p2 at (0, 0, 1/10) in the kappa = 3 direction runs on complex floats
    from frobwdvv import legendre
    from frobwdvv.specs import load_spec
    args = (load_spec("p2"), 3, (F(0), F(0), F(1, 10)), 5)
    new = legendre.transform(*args, m_max=2)
    monkeypatch.setattr(legendre, "compose", _ref_compose)
    monkeypatch.setattr(legendre, "invert_map", _ref_invert_map)
    ref = legendre.transform(*args, m_max=2)
    assert not new.hat_potential.is_exact()
    _assert_close(new.hat_potential, ref.hat_potential)
    for a, b in zip(new.inverse_map.components, ref.inverse_map.components):
        _assert_close(a, b)


@settings(max_examples=40, deadline=None)
@given(st.one_of(invertible_maps(), complex_maps()),
       st.sampled_from(["fraction", "exact", "complex", "mixed"]), st.data())
def test_compose_matches_the_pairwise_reference(m, kind, data):
    # sum_idx f_idx * B_idx, one coefficient pair at a time
    f = _target_series(data.draw, m, kind)
    got = compose(f, m)
    zero = (0,) * f.nvars
    want = _pairwise([(1, [(zero, c)], m.basis(idx)) for idx, c in f.coeffs.items()],
                     m.components[0])
    assert _typed(got.coeffs) == _typed(want)
    _assert_normal(got)


@st.composite
def localize_cases(draw):
    """A centre (2 puts a complex log 2 under the Fraction terms of log x) and a
    closed form with int, Fraction (huge ones too) and Exact coefficients."""
    centre = tuple(draw(st.sampled_from([F(1), F(2), F(1, 3), complex(1.5, 0.5)]))
                   for _ in range(2))
    f = cf_mono(F(0), {})
    for _ in range(draw(st.integers(1, 4))):
        powers = {v: draw(st.integers(0, 3)) for v in ("x", "y")}
        logs = {v: draw(st.sampled_from([0, 0, 1])) for v in ("x", "y")}
        coeff = draw(st.one_of(small_ints, huge, scalars("exact")))
        f = f + cf_mono(coeff, powers, logs, {"x": draw(st.sampled_from([0, 1, F(-1, 2)]))})
    return centre, f


@settings(max_examples=40, deadline=None)
@given(localize_cases())
@example(((F(2), F(1)), cf_log("x") * 3 + cf_mono(F(1, 2 ** 61 - 1), {"x": 2, "y": 1})))
def test_localize_matches_the_pairwise_reference(case):
    # sum_mono coeff * (the monomial's expansion), one coefficient pair at a time
    centre, f = case
    memo, gr = {}, g(2, 5)
    got = localize(f, ("x", "y"), centre, gr, memo)
    want = _pairwise([(1, [((0, 0), c)], memo[m]) for m, c in f.terms.items()], got)
    assert _typed(got.coeffs) == _typed(want)
    _assert_normal(got)


def test_log_away_from_one_is_a_mixed_series():
    # log x at x = 2: a complex log 2 under the exact terms (-1)^(j+1) / (j 2^j)
    s = localize(cf_log("x"), ("x", "y"), (F(2), F(1)), g(2, 3))
    assert _typed(s.coeffs) == {(0, 0): (complex, complex(math.log(2))), (1, 0): (F, F(1, 2)),
                                (2, 0): (F, F(-1, 8)), (3, 0): (F, F(1, 24))}


def test_raw_negation_keeps_signed_zeros():
    # (-1) * z is a complex product, which turns the -0.0 of -z into 0.0: the
    # raw branch negates a float or complex coefficient as it is
    b = TruncSeries(("x", "y"), (0, 0), {(1, 0): complex(1.0, 0.0)}, g(2, 2))
    a = TruncSeries(("x", "y"), (0, 0), {(0, 1): complex(2.0, 0.0)}, g(2, 2))
    for s in (-b, a - b):
        assert s.coeffs[(1, 0)] == -1
        assert math.copysign(1.0, s.coeffs[(1, 0)].imag) == -1.0


def test_index_keys_add_within_a_fractional_order():
    # order 15/2 cuts at total degree 7: three bits a field, and the degree in
    # the top field, so every pair within the cut adds without a carry
    gr = g(2, F(15, 2))
    keys = series._IndexKeys(2, gr.cutoff)
    kept = [(i, j) for i in range(8) for j in range(8) if i + j <= 7]
    for i1 in kept:
        assert keys[keys[i1]] == i1 and keys.degree(keys[i1]) == sum(i1)
        for i2 in kept:
            idx = (i1[0] + i2[0], i1[1] + i2[1])
            if sum(idx) <= 7:
                assert keys.unpack(keys[i1] + keys[i2]) == idx
                assert keys.degree(keys[i1] + keys[i2]) == sum(idx)
    # dense products at that order, exact and on the float path
    for c in (F(1, 3), complex(0.5, -1)):
        a = TruncSeries(("x", "y"), (F(0), F(0)), {i: c * (1 + i[0]) for i in kept}, gr)
        b = TruncSeries(("x", "y"), (F(0), F(0)), {i: F(i[1] - 2, 5) for i in kept}, gr)
        assert _typed((a * b).coeffs) == _typed(_reference_product(a, b))


def test_an_index_past_the_cutoff_raises():
    # a series whose constructor was told its terms are clean, but one is not:
    # its index would carry into the next field, so packing refuses it
    bad = TruncSeries(("x", "y"), (F(0), F(0)), {(4, 0): F(1)}, g(2, 3), _clean=True)
    for s in (bad, TruncSeries(("x", "y"), (0j, 0j), {(4, 0): 1j}, g(2, 3), _clean=True)):
        with pytest.raises(OverflowError):
            s * s


def test_power_forms_only_the_products_its_bits_need(monkeypatch):
    # one product per set bit of n and one squaring per bit after the first:
    # nothing squares the base after the last bit
    forms = [cf_var("x") + cf_exp("y"),
             TruncSeries(("x",), (F(0),), {(0,): F(1), (1,): F(2)}, g(1, 9))]
    want = {n: [f ** n for f in forms] for n in range(1, 9)}
    products = [0]
    real = kernel.sum_of_products

    def counting(*args):
        products[0] += 1
        return real(*args)
    monkeypatch.setattr(kernel, "sum_of_products", counting)
    for n in range(1, 9):
        for f, w in zip(forms, want[n]):
            products[0] = 0
            assert f ** n == w
            assert products[0] == bin(n).count("1") + n.bit_length() - 1, (n, f)
    monkeypatch.undo()
    for f, w in zip(forms, want[3]):
        assert w == f * f * f


def test_kernel_views_are_built_once(monkeypatch):
    # a transform, its transported calibration and its round trip read the
    # same Hessian entries, offset powers and expansions again and again:
    # each view of a series is built on its first kernel use only.  The views
    # that scaled sums read are counted apart from the products' views
    from frobwdvv.legendre import pullback, round_trip, transform, transport_calibration
    from frobwdvv.specs import load_spec
    kept, builds, calls, built_in = {}, Counter(), Counter(), Counter()
    where = ["product"]
    real_view, real_sum = kernel.view, kernel.scaled_sum

    def counting(form, attr, depth=None, keys=None, raw=False):
        kept[id(form)] = form       # kept alive, so that no id is reused
        calls[where[0]] += 1
        before = (getattr(form, "_view", None) or {}).get((depth, keys, raw))
        # a build is a view that was not in the series' cache before the call
        if (out := real_view(form, attr, depth, keys, raw)) is not before:
            builds[(id(form), depth, keys, raw)] += 1
            built_in[where[0]] += 1
        return out

    def summing(pairs, attr, keys, ratio):
        where[0] = "sum"
        try:
            return real_sum(pairs, attr, keys, ratio)
        finally:
            where[0] = "product"

    monkeypatch.setattr(kernel, "view", counting)
    monkeypatch.setattr(kernel, "scaled_sum", summing)
    spec = load_spec("a2")
    res = transform(spec, 2, (F(0), F(3)), 10)
    transport_calibration(res, 3)
    assert round_trip(res)["exact"]
    assert set(builds.values()) == {1}
    # views are reused, so a lost cache would show
    assert calls["product"] > 2 * built_in["product"]
    assert calls["sum"] > built_in["sum"]
    # a second pullback through the same map builds no view (`==` subtracts,
    # and so reads views of its own)
    first = pullback(res, spec.potential)
    built = sum(builds.values())
    second = pullback(res, spec.potential)
    assert sum(builds.values()) == built
    assert second == first


def test_series_work_is_pinned(monkeypatch):
    """Before the series kernels added integer numerators over one denominator,
    the a2 transform below, with its calibration to level 3 and its round
    trip, made 1,716 Fraction products and 714 Fraction sums; over the
    kernels' views it makes 552 and 121."""
    from frobwdvv.legendre import round_trip, transform, transport_calibration
    from frobwdvv.specs import load_spec
    counts = Counter()
    for name, op in (("__mul__", "*"), ("__rmul__", "*"), ("__add__", "+"), ("__radd__", "+")):
        def counting(*args, _real=getattr(F, name), _op=op):
            counts[_op] += 1
            return _real(*args)
        monkeypatch.setattr(F, name, counting)
    res = transform(load_spec("a2"), 2, (F(0), F(3)), 10)
    transport_calibration(res, 3)
    exact = round_trip(res)["exact"]
    monkeypatch.undo()
    assert exact
    assert counts["*"] <= 600 and counts["+"] <= 150, counts


@settings(max_examples=25, deadline=None)
@given(invertible_maps(), st.sampled_from(["fraction", "exact"]), st.data())
def test_compose_is_linear_in_the_series(m, kind, data):
    f, h = (_target_series(data.draw, m, kind) for _ in range(2))
    a, b = (data.draw(scalars(kind)) for _ in range(2))
    lhs = compose(f * a + h * b, m)
    rhs = compose(f, m) * a + compose(h, m) * b
    assert _typed(lhs.coeffs) == _typed(rhs.coeffs)


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
    """The monomials of a closed form in sympy, as (coefficient, {variable:
    factors}) with one factor per power, per log and per exponential."""
    terms = []
    for m, c in f.terms.items():
        factors = {v: [] for v in symbols}
        for v, q in m.powers:
            factors[v].append(symbols[v] ** _sympy_scalar(sympy, q))
        for v, k in m.logs:
            factors[v] += [sympy.log(symbols[v])] * k
        for v, e in m.exps:
            factors[v].append(sympy.exp(_sympy_scalar(sympy, e) * symbols[v]))
        terms.append((_sympy_scalar(sympy, c), factors))
    return terms


def _leibniz_sizes(sympy, factors, sym, at, order=3):
    """Coefficients of x^0..x^order in the product of the factors' Taylor
    series with every coefficient replaced by its modulus: the size of the
    factor-by-factor products before they can cancel."""
    out = [1.0] + [0.0] * order
    for fac in factors:
        sizes, d = [], fac
        for k in range(order + 1):
            sizes.append(abs(complex(d.subs(at).evalf(30))) / math.factorial(k))
            d = sympy.diff(d, sym)
        out = [sum(out[i] * sizes[k - i] for i in range(k + 1)) for k in range(order + 1)]
    return out


@settings(max_examples=40, deadline=None)
@given(taylor_cases())
# the x^1 coefficient of x^(3/2) e^(-3x/2) at x = 1 cancels to exactly 0
@example(((F(1), F(1)), cf_mono(F(5, 2), {"x": F(3, 2)}, None, {"x": F(-3, 2)})))
def test_localize_matches_sympy_taylor_coefficients(case):
    sympy = pytest.importorskip("sympy")
    centre, f = case
    symbols = {v: sympy.Symbol(v, positive=True) for v in ("x", "y")}
    at = {symbols[v]: _sympy_scalar(sympy, c) for v, c in zip(("x", "y"), centre)}
    s = localize(f, ("x", "y"), centre, g(2, 3))
    # d^idx f / idx! at the centre, term by term, and the Leibniz size of each
    parts, scale = {}, {}
    for c, factors in _sympy_terms(sympy, f, symbols):
        dx = c * sympy.Mul(*factors["x"], *factors["y"])
        xs, ys = (_leibniz_sizes(sympy, factors[v], symbols[v], at) for v in ("x", "y"))
        for i in range(4):
            d = dx
            for j in range(4 - i):
                parts.setdefault((i, j), []).append(
                    d.subs(at) / (sympy.factorial(i) * sympy.factorial(j)))
                scale[(i, j)] = scale.get((i, j), 0.0) + abs(complex(c)) * xs[i] * ys[j]
                d = sympy.diff(d, symbols["y"])
            dx = sympy.diff(dx, symbols["x"])
    for idx, ps in parts.items():
        want, got = sum(ps), s.coeffs.get(idx, F(0))
        if s.is_exact():
            assert sympy.expand(want - _sympy_scalar(sympy, got)) == 0
        else:
            # relative to the products the kernel sums, which may cancel
            assert abs(complex(got) - complex(want.evalf(30))) <= 1e-12 * scale[idx]
