"""The sparse exact elimination against sympy's reduced row echelon form, and
the dense float inverse against numpy."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobwdvv.exact import Exact
from frobwdvv.linalg import (
    InconsistentSystemError, SingularMatrixError, float_inv, mat_inv, solve_affine,
)

F = Fraction

entries = st.one_of(
    st.just(F(0)), st.just(F(0)),                     # keep the systems sparse
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).map(lambda q: q * Exact.sqrt(2)),
)


def normal(x):
    """An entry as the solver stores it: Fraction when rational, else Exact."""
    if isinstance(x, Exact) and x.is_rational():
        return x.as_fraction()
    return x


def to_sympy(x, sympy):
    if isinstance(x, Exact):
        return sum(sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(m)
                   for m, q in x.terms.items())
    return sympy.Rational(x.numerator, x.denominator)


@st.composite
def affine_systems(draw):
    """Rectangular systems: coefficient rows over `u0..u{k-1}` and constants;
    a combination of earlier rows with a shifted constant may be appended,
    which is inconsistent, and a combination without shift, which is not."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(1, k + 1))
    mat = [[normal(draw(entries)) for _ in range(k + 1)] for _ in range(m)]
    extra = draw(st.sampled_from([None, F(0), F(1)]))
    if extra is not None:
        w = [draw(st.integers(-2, 2)) for _ in range(m)]
        comb = [normal(sum((w[i] * mat[i][j] for i in range(m)), F(0))) for j in range(k + 1)]
        mat.append(comb[:k] + [comb[k] + extra])
    return k, mat


def as_rows(k, mat):
    rows = []
    for r in mat:
        row = {(f"u{j}",): r[j] for j in range(k) if r[j]}
        if r[k]:
            row[()] = r[k]
        rows.append(row)
    return rows


def sympy_pinned(k, mat, sympy):
    """Pinned unknowns from the rref of [A | -b]; None when inconsistent."""
    aug = sympy.Matrix([[to_sympy(x, sympy) for x in r[:k]] + [-to_sympy(r[k], sympy)]
                        for r in mat])
    red, pivots = aug.rref(iszerofunc=lambda e: sympy.simplify(e) == 0, simplify=True)
    if k in pivots:
        return None
    out = {}
    for i, col in enumerate(pivots):
        if all(sympy.simplify(red[i, j]) == 0 for j in range(k) if j != col):
            out[f"u{col}"] = red[i, k]
    return out


@settings(max_examples=80, deadline=None)
@given(affine_systems())
def test_solve_affine_matches_sympy_rref(system):
    sympy = pytest.importorskip("sympy")
    k, mat = system
    want = sympy_pinned(k, mat, sympy)
    if want is None:
        with pytest.raises(InconsistentSystemError):
            solve_affine(as_rows(k, mat))
        return
    got = solve_affine(as_rows(k, mat))
    assert set(got) == set(want)
    for u, v in got.items():
        assert type(v) is F or not v.is_rational()
        assert sympy.simplify(to_sympy(v, sympy) - want[u]) == 0


def test_solve_affine_examples():
    # u + v = 3 alone pins nothing; with u - v = 1 it pins both
    assert solve_affine([{("u",): F(1), ("v",): F(1), (): F(-3)}]) == {}
    assert solve_affine([{("u",): F(1), ("v",): F(1), (): F(-3)},
                         {("u",): F(1), ("v",): F(-1), (): F(-1)}]) == {"u": F(2), "v": F(1)}
    # w is pinned even though u and v stay free
    assert solve_affine([{("u",): F(1), ("v",): F(1)}, {("w",): Exact.sqrt(2), (): F(2)}]) == \
        {"w": -Exact.sqrt(2)}
    with pytest.raises(InconsistentSystemError):
        solve_affine([{("u",): F(2), (): F(1)}, {("u",): F(4)}])


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    return [[normal(draw(entries)) for _ in range(n)] for _ in range(n)]


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_mat_inv_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    s = sympy.Matrix([[to_sympy(x, sympy) for x in r] for r in a])
    if sympy.simplify(s.det()) == 0:
        with pytest.raises(SingularMatrixError):
            mat_inv(a)
        return
    inv = mat_inv(a)
    n = len(a)
    prod = [[normal(sum((a[i][k] * inv[k][j] for k in range(n)), F(0))) for j in range(n)]
            for i in range(n)]
    assert prod == [[F(int(i == j)) for j in range(n)] for i in range(n)]
    assert all(type(x) is F or not x.is_rational() for r in inv for x in r)


complex_entries = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(st.lists(complex_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_float_inverse_matches_numpy(a):
    np = pytest.importorskip("numpy")
    arr = np.array(a, dtype=complex)
    # a well-conditioned matrix: both inverses are then accurate to ~cond * eps
    assume(np.linalg.cond(arr) < 100)
    inv, det = float_inv(a)
    want = np.linalg.inv(arr)
    assert all(type(x) is complex for r in inv for x in r)
    assert np.abs(np.array(inv) - want).max() <= 1e-13 * np.abs(want).max()
    assert abs(det - np.linalg.det(arr)) <= 1e-13 * abs(np.linalg.det(arr))


def test_float_inverse_of_a_zero_pivot_column_raises():
    # the second row is twice the first: elimination leaves an exact zero pivot
    with pytest.raises(SingularMatrixError):
        float_inv([[1 + 1j, 2.0], [2 + 2j, 4.0]])
