"""Order-by-order solvers for WDVV-constrained coefficient families.

Two layers:

* one-variable ODE reductions (displayed fourth/third order equations) solved
  by pivot detection on exact truncated power series in one variable;

* scalar recursions for the two-variable tables (N_{k,l}, c_{k,l}, a_{m1,m2}),
  each one or two WDVV equations of a potential ansatz expanded into sums
  over pairs of lower coefficients and solved by order on plain `Fraction`s.

The slot solver, which imposes every associativity equation on an ansatz and
solves them all, lives in `tests/slot_oracle.py` as the tables' second route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .linalg import InconsistentSystemError

__all__ = [
    "RecursionOutput", "InconsistentSystemError", "UnderdeterminedError",
    "recursion_nd", "nd_via_ode_route", "recursion_ck", "recursion_mk",
    "recursion_qk", "recursion_wk", "divisor_sigma",
    "recursion_nkl", "solve_ckl_and_a", "solve_ckl", "solve_a21",
]

F = Fraction


class UnderdeterminedError(ArithmeticError):
    """The equations do not pin the requested unknowns."""


@dataclass
class RecursionOutput:
    name: str
    values: list
    audits: dict = field(default_factory=dict)

    def table(self) -> dict:
        return dict(self.values)


# ---------------------------------------------------------------------------
# one-variable frames on the series kernel
# ---------------------------------------------------------------------------

def _frame(var: str, hi: int) -> tuple:
    """The offset x of the one-variable frame at centre 0 cut at x^hi, and a
    builder of sum c_k x^k from {k: c_k}.  Through x the reductions reach the
    kernel's static `sum_of_products`."""
    # imported here, so that loading the solver (as the specs do) skips the kernel
    from .series import Grading, TruncSeries
    grading = Grading.total_degree(1, hi)

    def series(cs: dict):
        return TruncSeries((var,), (0,), {(k,): c for k, c in cs.items()}, grading)
    return series({1: 1}), series


def _theta(s):
    """The Euler operator x d/dx: each coefficient times its exponent."""
    return type(s)(s.vars, s.center, {i: c * i[0] for i, c in s.coeffs.items() if i[0]},
                   s.grading, _clean=True)


def _solve_univariate(name: str, residual: Callable, indices: list[int]) -> dict:
    """Determine coefficients c_k (k in increasing `indices`) so that the residual
    series vanishes; each step finds the pivot order where c_k first acts, asserts
    the residual is affine in c_k there, and solves."""
    coeffs: dict = {}
    for k in indices:
        r0, r1, r2 = (residual({**coeffs, k: F(c)}) for c in (0, 1, 2))
        diff = r1 - r0
        if diff.is_zero():
            raise UnderdeterminedError(f"{name}: coefficient {k} never enters the equation")
        pivot = min(diff.coeffs)
        if (r2 - r1 - diff).coeffs.get(pivot):
            raise InconsistentSystemError(f"{name}: equation not affine in coefficient {k}")
        coeffs[k] = -r0.coeffs.get(pivot, 0) / F(diff.coeffs[pivot])
        res = residual(coeffs).coeffs
        if res and (low := min(res)) <= pivot:
            raise InconsistentSystemError(
                f"{name}: residual {res[low]} at order {low[0]} after solving c_{k}")
    return coeffs


# ---------------------------------------------------------------------------
# rational-curve counts on the projective plane
# ---------------------------------------------------------------------------

def recursion_nd(max_d: int) -> RecursionOutput:
    """Degree-d rational curve counts from the quadratic binomial-sum recursion,
    seeded by the single line count."""
    n = {1: F(1)}
    for d in range(2, max_d + 1):
        total = F(0)
        for d1 in range(1, d):
            d2 = d - d1
            total += (n[d1] * n[d2]
                      * (d1 ** 2 * d2 ** 2 * math.comb(3 * d - 4, 3 * d1 - 2)
                         - d1 ** 3 * d2 * math.comb(3 * d - 4, 3 * d1 - 1)))
        n[d] = total
    return RecursionOutput("nd", [(d, n[d]) for d in sorted(n)][:max_d])


def nd_via_ode_route(max_d: int) -> RecursionOutput:
    """Same counts from the one-function reduction of associativity: setting
    F = cubic + f(v^2 + 3 log v^3)/v^3 turns WDVV into the third-order ODE
    27 f''' - 3 f'' f''' + 2 f' f''' - f''^2 - 54 f'' + 33 f' - 6 f = 0 for f;
    with f = sum a_d q^d, q = e^s, primes d/ds act as the Euler operator
    q d/dq, a_d -> d a_d."""
    x, series = _frame("q", max_d)
    one = series({0: 1})

    def residual(a: dict):
        f = series({1: F(1, 2), **a})   # N_1/(3*1-1)! = 1/2
        f1 = _theta(f)
        f2 = _theta(f1)
        f3 = _theta(f2)
        return x.sum_of_products(((27, f3, one), (-3, f2, f3), (2, f1, f3), (-1, f2, f2),
                                  (-54, f2, one), (33, f1, one), (-6, f, one)))

    coeffs = {1: F(1, 2), **_solve_univariate("nd-ode", residual, list(range(2, max_d + 1)))}
    values = [(d, coeffs[d] * math.factorial(3 * d - 1)) for d in range(1, max_d + 1)]
    return RecursionOutput("nd-ode", values)


# ---------------------------------------------------------------------------
# one-variable reductions for the hat potentials
# ---------------------------------------------------------------------------

def recursion_ck(max_k: int) -> RecursionOutput:
    """Coefficients of p(t) = sum C_k t^k/(3k)! from its fourth-order reduction
    144 t^4 p''' p'' + 24 t^3 (p''' p' + 12 p''^2) + 27 t^2 (p''' p + 3 p' p'')
    + 6 t (9 p p'' + p'^2) + 6 p p' = 1 (primes = d/dt)."""
    x, series = _frame("t", max_k)
    one, x2, x3, x4 = series({0: 1}), x ** 2, x ** 3, x ** 4

    def residual(c: dict):
        p = series({0: 1, **c})     # C_0 = 1
        p1 = p.diff("t")
        p2 = p1.diff("t")
        p3 = p2.diff("t")
        return x.sum_of_products((
            (144, x4 * p3, p2),
            (24, x3 * p3, p1), (288, x3 * p2, p2),
            (27, x2 * p3, p), (81, x2 * p1, p2),
            (54, x * p, p2), (6, x * p1, p1),
            (6, p, p1), (-1, one, one)))

    coeffs = {0: F(1), **_solve_univariate("ck", residual, list(range(1, max_k + 1)))}
    values = [(k, coeffs[k] * math.factorial(3 * k)) for k in range(0, max_k + 1)]
    audits = {"integrality": {k: v.denominator == 1 for k, v in values}}
    return RecursionOutput("ck", values, audits)


def recursion_mk(max_k: int) -> RecursionOutput:
    """Coefficients of m(r) = sum 4^{k-1} M_k r^k/(3k+1)! from the third-order
    reduction 9 (3 + 2m' + 6m'') m''' - 3 (4m' + 3m'') m'' - 3 (1 + m') m'
    = r (8m''' - 2m' + 1), primes = the Euler operator r d/dr."""
    x, series = _frame("r", max_k)
    one = series({0: 1})

    def residual(c: dict):
        m1 = _theta(series(c))
        m2 = _theta(m1)
        m3 = _theta(m2)
        return x.sum_of_products((
            (27, one, m3), (18, m1, m3), (54, m2, m3),
            (-12, m1, m2), (-9, m2, m2),
            (-3, one, m1), (-3, m1, m1),
            (-8, x, m3), (2, x, m1), (-1, x, one)))

    coeffs = _solve_univariate("mk", residual, list(range(1, max_k + 1)))
    values = [(k, coeffs[k] * math.factorial(3 * k + 1) / F(4) ** (k - 1))
              for k in range(1, max_k + 1)]
    audits = {"two_integrality": {k: _denominator_is_power_of_two(v) for k, v in values}}
    return RecursionOutput("mk", values, audits)


def _denominator_is_power_of_two(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


def recursion_qk(max_k: int) -> RecursionOutput:
    """Tail coefficients Q_k of p(t) = 1/(24t) + (1/2) log t - 3/4 + sum Q_k t^k.

    The reduction 12 t (p' + 3p'')(2p' + 3p'' + p''') = 1 (primes = t d/dt) is
    Laurent from t^-1.  Times t it reads 12 A B = t in the power series
    A = t(p' + 3p'') and B = t(2p' + 3p'' + p''').  t times the first three
    primes of the fixed part is -1/24 + t/2, 1/24 and -1/24; on the tail,
    t th^j p = (th - 1)^j (t p) = sum k^j Q_k t^(k+1).  The frame is cut at
    t^(max_k + 1), where Q_(max_k) first enters."""
    x, series = _frame("t", max_k + 1)

    def residual(q: dict):
        t1, t2, t3 = (series({k + 1: k ** j * v for k, v in q.items()}) for j in (1, 2, 3))
        a = t1 + 3 * t2 + series({0: F(1, 12), 1: F(1, 2)})
        b = 2 * t1 + 3 * t2 + t3 + x
        return 12 * a * b - x

    coeffs = _solve_univariate("qk", residual, list(range(1, max_k + 1)))
    values = [(k, coeffs[k]) for k in range(1, max_k + 1)]
    audits = {"k_qk_integral": {k: (v * k).denominator == 1 for k, v in values}}
    return RecursionOutput("qk", values, audits)


def recursion_wk(max_k: int) -> RecursionOutput:
    """Tail coefficients W_k of m(r) = (1/2) log r + sum W_k r^k from the
    reduction 32 th(m) th^2(1+th)(m) - 16 th^2(m) th^2(13-12 th)(m)
    = 3 r th(3th-1)(3th-2)(m), th = r d/dr, in a frame cut at r^max_k, where
    W_(max_k) first enters."""
    x, series = _frame("r", max_k)

    def residual(c: dict):
        w1 = _theta(series(c))
        m1 = w1 + F(1, 2)
        m2 = _theta(w1)
        m3 = _theta(m2)
        # 3 th(3th-1)(3th-2) m = 27 th^3 m - 27 th^2 m + 6 th m
        return x.sum_of_products((
            (32, m1, m2), (32, m1, m3),
            (-208, m2, m2), (192, m2, m3),
            (-27, x, m3), (27, x, m2), (-6, x, m1)))

    coeffs = _solve_univariate("wk", residual, list(range(1, max_k + 1)))
    values = [(k, coeffs[k]) for k in range(1, max_k + 1)]
    audits = {"scaled_integrality": {
        k: (F(2) ** (6 * k) * k * v / 6).denominator == 1 for k, v in values}}
    return RecursionOutput("wk", values, audits)


# ---------------------------------------------------------------------------
# divisor sums and the third-order reduction of the crystallographic example
# ---------------------------------------------------------------------------

def divisor_sigma(m: int) -> int:
    total = 0
    for d in range(1, m + 1):
        if m % d == 0:
            total += d
    return total


def gamma_series(max_m: int) -> dict:
    """q-expansion coefficients of the quartic-coefficient function gamma."""
    out = {0: F(1, 6)}
    for m in range(1, max_m + 1):
        out[m] = F(-4) * divisor_sigma(m)
    return out


# ---------------------------------------------------------------------------
# the quadric's tables
# ---------------------------------------------------------------------------

def recursion_nkl(max_total: int) -> RecursionOutput:
    """Bidegree-(k, l) rational curve counts on the quadric, k + l <= max_total,
    from WDVV at indices (2, 2, 3, 3) of the P1xP1 potential (the slot solve of
    its whole ansatz is the second route): 2 k l N_kl = sum N_k1l1 N_k2l2 k1^2 l2^2 (k1 l - l1 k)
    C(2s - 2, 2 s1 - 1) over (k1, l1) + (k2, l2) = (k, l), s = k + l, s1 = k1 + l1."""
    n = {}
    for s in range(1, max_total + 1):
        for k in range(s + 1):
            l = s - k
            if not k * l:   # only the two line classes have k or l zero
                n[k, l] = F(int(s == 1))
                continue
            total = sum(n[k1, l1] * n[k - k1, l - l1] * k1 ** 2 * (l - l1) ** 2
                        * (k1 * l - l1 * k) * math.comb(2 * s - 2, 2 * (k1 + l1) - 1)
                        for k1 in range(k + 1) for l1 in range(l + 1) if 0 < k1 + l1 < s)
            n[k, l] = total / (2 * k * l)
    values = sorted(n.items())
    table = dict(values)
    symmetric = all(table.get((l, k)) == v for (k, l), v in values)
    return RecursionOutput("nkl", values, {"symmetric": symmetric})


def solve_ckl_and_a(max_ckl_level: int = 8, max_a_level: int = 19) -> dict:
    """Solve both hat-ansatz coefficient families and audit the conjectured
    vanishing/positivity patterns (reported, never enforced)."""
    return {"ckl": solve_ckl(max_ckl_level), "a": solve_a21(max_a_level)}


def solve_ckl(max_level: int = 8) -> RecursionOutput:
    """c_{k,l} of the (2,2)-direction hat potential for k + l <= max_level.

    In u = w^3, the flat coordinate v-hat-1, the potential is
    u t^2/2 + y z t + u y log y + u z log z + G with unit t and
    G = sum C_kl u^p(s) y^-k z^-l, p(s) = (2s + 5)/3, s = k + l.  WDVV at
    (u, u, y, z), A(uu|yz) = A(uy|uz), reads

        G_uuu - 1/(yz) - G_uyy/z - G_uzz/y
              + G_uuy G_yzz + G_uuz G_yyz - G_uyy G_uzz - G_uyz^2 = 0.

    Its coefficient of u^(p(s) - 3) y^-k z^-l is, with (x)_n = x(x - 1)...(x - n + 1),

        (p(s))_3 C_kl - [k = l = 1]
              - p(s - 3) ((k - 1)(k - 2) C_{k-2,l-1} + (l - 1)(l - 2) C_{k-1,l-2})
              + sum C_{k1,l1} C_{k2,l2} ((p1)_2 k2 l2 (k1 (l2 + 1) + l1 (k2 + 1))
                                         - p1 p2 k1 l2 ((k1 + 1)(l2 + 1) + l1 k2)) = 0

    over (k1, l1) + (k2, l2) = (k - 2, l - 2), p_i = p(k_i + l_i); e.g.
    6 C_11 - 1 = 0 and 60 C_32 - 6 C_11 = 0.  3 p(s) is odd, so (p(s))_3 is
    never 0, and each C_kl follows from those of lower s."""
    def p(s):
        return F(2 * s + 5, 3)

    c = {}
    for s in range(max_level + 1):
        for k in range(s + 1):
            l = s - k
            rest = F(-int((k, l) == (1, 1)))
            rest -= p(s - 3) * ((k - 1) * (k - 2) * c.get((k - 2, l - 1), 0)
                                + (l - 1) * (l - 2) * c.get((k - 1, l - 2), 0))
            for k1 in range(k - 1):
                for l1 in range(l - 1):
                    k2, l2 = k - 2 - k1, l - 2 - l1
                    p1, p2 = p(k1 + l1), p(k2 + l2)
                    rest += c[k1, l1] * c[k2, l2] * (
                        _falling(p1, 2) * k2 * l2 * (k1 * (l2 + 1) + l1 * (k2 + 1))
                        - p1 * p2 * k1 * l2 * ((k1 + 1) * (l2 + 1) + l1 * k2))
            c[k, l] = -rest / _falling(p(s), 3)
    return _ckl_output(c, max_level)


def solve_a21(max_level: int = 19) -> RecursionOutput:
    """a_{m1,m2} of the (2,1)-direction hat potential for m1 + 4 m2 <= max_level.

    In u = w^2, the flat coordinate v-hat-1, the potential is
    y z^2/2 + u z t + u y log u - u y + G with unit z and
    G = sum a_{m1,m2} u^q(m1,m2) y^m1 e^(m2 t), q(m1, m2) = (3 - m1 - 2 m2)/2.
    WDVV at (u, y, t, t), A(uy|tt) = A(ut|yt), reads

        G_ttt/u - G_yyt + G_uuy G_ttt - G_uut G_ytt = 0.

    Its coefficient of y^j e^(m t) is, with (x)_2 = x(x - 1) and a_{0,m} = 0,

        m^3 a_{j,m} - (j + 2)(j + 1) m a_{j+2,m}
              + sum a_{n1,n2} a_{o1,o2} (q(n1, n2))_2 o2^2 (n1 o2 - n2 o1) = 0

    over (n1, n2) + (o1, o2) = (j + 1, m); at m = 2 it reads
    4 (2 a_{1,2} - 3 a_{3,2}) = 0 at j = 1 and
    4 (a_{1,1} a_{3,1} + 2 a_{3,2} - 10 a_{5,2}) = 0 at j = 3.  So a_{j+2,m}
    follows from a_{j,m} and the a of lower m2, upward in m1 at each m2.  WDVV
    at (u, u, t, t), A(uu|tt) = A(ut|ut), reads

        -y G_ttt/u^2 - 2 G_uyt + G_uuu G_ttt - G_uut G_utt = 0,

    and its coefficient of y^0 e^(m t), 2 m (m - 1) a_{1,m} = 0, pins the
    bottom entries: a_{1,m} = 0 for m >= 2, and a_{1,1} = 1 is the seed."""
    def q(m1, m2):
        return F(3 - m1 - 2 * m2, 2)

    a = {}
    for m in range(1, (max_level - 1) // 4 + 1):
        a[1, m] = F(int(m == 1))
        for j in range(max_level - 4 * m - 1):
            total = m ** 3 * a.get((j, m), F(0))
            for n1 in range(1, j + 1):
                for n2 in range(1, m):
                    o1, o2 = j + 1 - n1, m - n2
                    total += (a[n1, n2] * a[o1, o2] * _falling(q(n1, n2), 2)
                              * o2 ** 2 * (n1 * o2 - n2 * o1))
            a[j + 2, m] = total / ((j + 2) * (j + 1) * m)
    return _a21_output(a, max_level)


def _falling(x: Fraction, n: int) -> Fraction:
    """The falling factorial (x)_n = x (x - 1) ... (x - n + 1)."""
    out = F(1)
    for i in range(n):
        out *= x - i
    return out


def _ckl_output(c: dict, max_level: int) -> RecursionOutput:
    """The c_{k,l} table of {(k, l): C_kl}, k + l <= max_level: each C_kl with
    s = k + l = 2 (mod 3) times ((2s + 5)/3)!, and any other one only if it is
    nonzero, with the audit of the conjectured vanishing/positivity pattern."""
    ckl = {}
    pattern_ok = True
    for (k, l), v in c.items():
        s = k + l
        if s > max_level:
            continue
        expected_zero = (s % 3 != 2) or (2 * k < l + 1) or (2 * l < k + 1)
        if s % 3 == 2:
            v = v * math.factorial((2 * s + 5) // 3)
            ckl[(k, l)] = v
            if expected_zero != (v == 0):
                pattern_ok = False
            if v != 0 and (v.denominator != 1 or v <= 0):
                pattern_ok = False
        elif v != 0:
            ckl[(k, l)] = v
            pattern_ok = False
    return RecursionOutput("ckl", sorted(ckl.items()), {"pattern_as_expected": pattern_ok})


def _a21_output(a: dict, max_level: int) -> RecursionOutput:
    """The a_{m1,m2} table of {(m1, m2): a}, m1 + 4 m2 <= max_level, zeros
    included, with the audit of the conjectured vanishing/positivity pattern."""
    avals = {key: v for key, v in a.items() if key[0] + 4 * key[1] <= max_level}
    exceptions = []
    for (m1, m2), v in avals.items():
        if m1 % 2 == 0 and v != 0:
            exceptions.append((m1, m2))
        if m1 % 2 == 1:
            k = (m1 - 1) // 2
            scaled = v * math.factorial(m1)
            if m2 > k and v != 0:
                exceptions.append((m1, m2))
            if 1 <= m2 <= k and (scaled.denominator != 1 or scaled <= 0):
                exceptions.append((m1, m2))
    # the seed term lies outside the conjectured window; report it, don't fail it
    return RecursionOutput("a21", sorted(avals.items()),
                           {"pattern_as_expected": exceptions in ([], [(1, 1)]),
                            "pattern_exceptions": sorted(exceptions)})
