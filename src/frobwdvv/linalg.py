"""Small linear algebra over exact scalars (Fraction or Exact), and a float inverse."""

from __future__ import annotations

from fractions import Fraction

from .exact import as_exact_scalar, float_cast

__all__ = ["mat_inv", "float_inv", "SingularMatrixError",
           "InconsistentSystemError", "kron", "raise_index"]


class SingularMatrixError(ArithmeticError):
    pass


class InconsistentSystemError(ArithmeticError):
    """A system of exact equations has no solution."""


def _eliminate(rows, is_unknown) -> dict:
    """Sparse Gauss-Jordan elimination over an exact field.

    Each row is a dict {key: nonzero scalar}.  Keys for which `is_unknown`
    holds are unknowns; the others (constants, right-hand sides) are carried
    along.  Returns {pivot: row}, each row scaled to 1 at its pivot and free
    of every other pivot, i.e. the reduced row echelon form.  A row that
    reduces to carried keys alone raises InconsistentSystemError."""
    reduced: dict = {}
    for row in rows:
        row = dict(row)
        for p in [k for k in row if k in reduced]:
            _sub_multiple(row, row.pop(p), reduced[p], p)
        pivot = next((k for k in row if is_unknown(k)), None)
        if pivot is None:
            if row:
                raise InconsistentSystemError("inconsistent linear system")
            continue
        inv = Fraction(1) / row.pop(pivot)
        row = {k: v * inv for k, v in row.items()}
        for other in reduced.values():
            if pivot in other:
                _sub_multiple(other, other.pop(pivot), row, None)
        row[pivot] = Fraction(1)
        reduced[pivot] = row
    return reduced


def _sub_multiple(row: dict, f, other: dict, skip) -> None:
    """row -= f * other in place, over the keys of `other` except `skip`."""
    for k, v in other.items():
        if k != skip:
            s = row.get(k, Fraction(0)) - f * v
            if s:
                row[k] = s
            else:
                row.pop(k, None)


def mat_inv(a):
    """Inverse over an exact field, by elimination of [a | 1];
    raises SingularMatrixError."""
    n = len(a)
    rows = [{**{j: x for j, x in enumerate(map(as_exact_scalar, row)) if x}, n + i: Fraction(1)}
            for i, row in enumerate(a)]
    try:
        reduced = _eliminate(rows, lambda k: k < n)
    except InconsistentSystemError:
        raise SingularMatrixError("matrix is singular") from None
    return [[reduced[j].get(n + k, Fraction(0)) for k in range(n)] for j in range(n)]


def float_inv(a):
    """(inverse, det) of a float or complex matrix: Gauss-Jordan on [a | 1] with partial
    pivoting, det = ±(product of the pivots); a zero pivot raises SingularMatrixError."""
    n = len(a)
    rows = [[complex(x) for x in row] + [complex(i == j) for j in range(n)]
            for i, row in enumerate(a)]
    det = 1
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if p != k:
            rows[k], rows[p], det = rows[p], rows[k], -det
        piv = rows[k][k]
        if not piv:
            raise SingularMatrixError("matrix is singular")
        det *= piv
        rows[k] = pr = [x / piv for x in rows[k]]
        for i in range(n):
            if i != k and (f := rows[i][k]):
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
    return [row[n:] for row in rows], det


def kron(a, b):
    """Kronecker product of exact matrices, row-major double labels."""
    na, ma = len(a), len(a[0])
    nb, mb = len(b), len(b[0])
    out = [[None] * (ma * mb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(ma):
            for k in range(nb):
                for l in range(mb):
                    out[i * nb + k][j * mb + l] = as_exact_scalar(a[i][j] * b[k][l])
    return out


def raise_index(low: list, eta_inv) -> list:
    """Upper components eta^{ab} low_b of lowered ones (or, given eta, the
    lowered components of upper ones).  ClosedForm or TruncSeries entries are
    summed by one `signed_sum` of their type per row; numbers one by one, a Fraction entry
    of eta through `float_cast`."""
    if hasattr(type(low[0]), "signed_sum"):
        return [type(low[0]).signed_sum([(e, low[b]) for b, e in enumerate(row) if e])
                for row in eta_inv]
    out = []
    for row in eta_inv:
        s = low[0] * 0      # zero in the entries' own type
        for b, e in enumerate(row):
            if e:
                s = s + low[b] * (float_cast(low[b])(e) if type(e) is Fraction else e)
        out.append(s)
    return out
