import cmath
from fractions import Fraction

import pytest

from frobwdvv.closedform import BranchPointError, ClosedForm, Mono, cf_mono
from frobwdvv.core import FrobeniusSpec
from frobwdvv.exact import Exact

F = Fraction


def assert_normal_scalar(c):
    """c is an exact coefficient in normal form: an int exactly when it is
    integral, a Fraction only when it is a proper rational, an Exact only while
    a radical is left; never a float, a bool or an integral Fraction."""
    assert type(c) in (int, Fraction, Exact), repr(c)
    if type(c) is Fraction:
        assert c.denominator != 1, repr(c)
    if type(c) is Exact:
        assert not c.is_rational(), repr(c)


def assert_same_types(got, want):
    """got and want (closed forms or {monomial: coefficient} dicts) have the same
    monomials with coefficients of the same exact type, and every coefficient of
    both is in normal form (assert_normal_scalar)."""
    got, want = getattr(got, "terms", got), getattr(want, "terms", want)
    assert {m: type(c) for m, c in got.items()} == {m: type(c) for m, c in want.items()}
    for c in (*got.values(), *want.values()):
        assert_normal_scalar(c)


def merge(a, b):
    """Linear merge of two sorted (variable, exponent) tuples, adding the exponents of
    shared variables and dropping those that cancel: the key product the sparse kernel
    ran before its keys were packed."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (va, ea), (vb, eb) = a[i], b[j]
        if va == vb:
            if e := ea + eb:
                out.append((va, e if type(e) is int or e.denominator != 1 else e.numerator))
            i, j = i + 1, j + 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out + list(a[i:]) + list(b[j:]))


def merge_product(m1, m2):
    """The monomial m1 * m2, by merging its three exponent tuples."""
    return Mono(*(merge(a, b) for a, b in zip(m1, m2)))


def cf_log(name, k=1):
    """The closed form log(name)^k."""
    return ClosedForm({Mono.make(None, {name: k}): Fraction(1)})


def cf_exp(name, c=1):
    """The closed form e^{c name}."""
    return ClosedForm({Mono.make(None, None, {name: Fraction(c)}): Fraction(1)})


def evaluate_reference(form, point):
    """`ClosedForm.evaluate` as a per-term loop, each coefficient converted and each factor
    computed where it is met: the oracle that the planned evaluation matches bit for bit."""
    total = 0.0 + 0.0j
    for m, c in form.terms.items():
        val = complex(c)
        for v, q in m.powers:
            z = complex(point[v])
            if z == 0:
                if q.denominator == 1 and q > 0:
                    val = 0.0j
                    continue
                raise BranchPointError(f"{v}^{q} at {v}=0")
            if q.denominator == 1:
                val *= z ** int(q)
            else:
                val *= cmath.exp(float(q) * cmath.log(z))
        for v, k in m.logs:
            z = complex(point[v])
            if z == 0:
                raise BranchPointError(f"log {v} at {v}=0")
            val *= cmath.log(z) ** k
        for v, e in m.exps:
            val *= cmath.exp(float(e) * complex(point[v]))
        total += val
    return total


def series_equal_mod_quadratic(a, b):
    """a and b agree in every term of total degree 3 or more."""
    return (a - b).drop_low_degree(3).is_zero()


@pytest.fixture(scope="session")
def a2_s2_spec():
    """The printed hat potential of a2 in the (2,2) direction, written out by
    hand: an oracle for the transform, independent of the engine."""
    return FrobeniusSpec(
        name="a2s2", varnames=("v1", "v2"), unity=2,
        potential=(cf_mono(F(1, 2), {"v1": 1, "v2": 2})
                   + cf_mono(F(4, 5) * Exact({6: F(1, 3)}), {"v1": F(5, 2)})),
        charge=F(-1, 3), mu=(F(-1, 6), F(1, 6)), rmats={}, euler_shifts=(F(0), F(0)))
