"""Small dense linear algebra over exact scalars (Fraction or Exact)."""

from __future__ import annotations

from fractions import Fraction

from .exact import Exact, as_exact_scalar

__all__ = ["sdiv", "mat_inv", "mat_identity", "SingularMatrixError", "kron", "raise_index"]


class SingularMatrixError(ArithmeticError):
    pass


def sdiv(a, b):
    if isinstance(a, (float, complex)) or isinstance(b, (float, complex)):
        return complex(a) / complex(b)
    if isinstance(a, Exact) or isinstance(b, Exact):
        ae = a if isinstance(a, Exact) else Exact.rational(a)
        be = b if isinstance(b, Exact) else Exact.rational(b)
        return as_exact_scalar(ae / be)
    return Fraction(a) / Fraction(b)


def mat_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_inv(a):
    """Gauss-Jordan inverse over an exact field; raises SingularMatrixError."""
    n = len(a)
    m = [list(map(as_exact_scalar, row)) + ident for row, ident in zip(a, mat_identity(n))]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        inv_p = sdiv(Fraction(1), m[col][col])
        m[col] = [as_exact_scalar(x * inv_p) for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [as_exact_scalar(x - f * y) for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


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
    """Upper components eta^{ab} low_b of lowered ones; the entries are
    ClosedForms or TruncSeries."""
    out = []
    for row in eta_inv:
        s = low[0] * 0      # zero in the entries' own type and frame
        for b, e in enumerate(row):
            if e:
                s = s + low[b] * e
        out.append(s)
    return out
