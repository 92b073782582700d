"""Independent references for the benchmark's output checks.

Nothing here imports frobwdvv.  The tables are printed values from the
literature, the a2 monodromy matrices are closed forms evaluated with
`math.gamma`, and the symbolic checks re-derive WDVV, the Euler relation and
the printed transformed potentials with sympy, straight from the spec JSON
files and the printed formulas.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from fractions import Fraction as F
from pathlib import Path

# Kontsevich's recursion for rational plane curves through 3d-1 points.
# Source: M. Kontsevich, Yu. Manin, "Gromov-Witten classes, quantum
# cohomology, and enumerative geometry", Comm. Math. Phys. 164 (1994), 525-562,
# and the table in P. Di Francesco, C. Itzykson, "Quantum intersection rings"
# (1995).
KONTSEVICH_ND = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976,
                 7: 14616808192, 8: 13525751027392}

# Rational curves of bidegree (k, l) on P1 x P1 through 2k + 2l - 1 points,
# for k + l <= 6.  Source: Kontsevich-Manin (1994), section 5.2, and
# Di Francesco-Itzykson (1995), table for P1 x P1.  N_{1,l} = 1 for every l
# (graphs of degree-l maps), and N_{0,l} = 0 for l >= 2.
def _p1xp1_counts() -> dict:
    known = {(2, 2): 12, (2, 3): 96, (3, 3): 3510, (2, 4): 640}
    out = {}
    for k in range(0, 7):
        for l in range(0, 7 - k):
            if k + l == 0:
                continue
            if min(k, l) == 0:
                out[(k, l)] = 1 if k + l == 1 else 0
            elif min(k, l) == 1:
                out[(k, l)] = 1
            else:
                out[(k, l)] = known[(min(k, l), max(k, l))]
    return out


KONTSEVICH_MANIN_NKL = _p1xp1_counts()

# Appendix tables of the source paper (arXiv 2311.04200): coefficients of the
# transformed plane potential (c_k), of the transformed quadric potentials
# (m_k, k q_k), the first crystallographic coefficient w_1, and the C_{k,l}
# table of the two-parameter hat ansatz.
APPENDIX_CK = [1, 1, -2, 104, -24920, 16361976, -22819065536]        # k = 0..6
APPENDIX_MK = [1, 1, 8, 177, 6234, -67965]                            # k = 1..6
APPENDIX_K_QK = [-1, 7, -69, 804]                                     # k = 1..4
APPENDIX_W1 = F(3, 32)
APPENDIX_CKL = {(1, 1): 1, (2, 3): 2, (3, 2): 2, (3, 5): 24, (4, 4): 38, (5, 3): 24}

# Printed transformed potentials (modulo quadratic terms), in hat variables.
#   NLS, the kappa = 2 transform of the P1 potential:
#       1/2 h1 h2^2 + 1/2 h1^2 log h1 - 3/4 h1^2
#   the kappa = 2 transform of the A2 potential:
#       1/2 h1 h2^2 + (4/5)(sqrt(6)/3) h1^(5/2)
PRINTED_HAT = {
    "p1": "h1*h2**2/2 + h1**2*log(h1)/2 - 3*h1**2/4",
    "a2": "h1*h2**2/2 + Rational(4, 5)*sqrt(6)/3*h1**Rational(5, 2)",
}


def a2_stokes_central():
    """Stokes and central connection matrices of the A2 Frobenius manifold on
    the line phi = 3 pi / 4, in the frame and ordering the program reports at
    (0, 3) (Dubrovin, "Geometry of 2D topological field theories", 1996,
    Lecture 4, with the two Gamma values of the A2 singularity)."""
    g23, g13 = math.gamma(2 / 3), math.gamma(1 / 3)
    pref = -1j / math.sqrt(2 * math.pi)
    stokes = [[1.0, 0.0], [-1.0, 1.0]]
    central = [[pref * g23, pref * g23 * cmath.exp(5j * math.pi / 3)],
               [pref * g13 * cmath.exp(1j * math.pi),
                pref * g13 * cmath.exp(4j * math.pi / 3)]]
    return stokes, central


def _diag_signs(n):
    return list(itertools.product((1, -1), repeat=n))


def error_up_to_signs(got, want, both_sides: bool) -> float:
    """Smallest max-entry error between `got` and `want` after flipping the
    square-root signs of the frame: D got D (Stokes) or D1 got D2 (central).
    Errors are relative to the largest reference entry."""
    n = len(want)
    scale = max(1.0, max(abs(x) for row in want for x in row))
    best = math.inf
    for d1 in _diag_signs(n):
        for d2 in (_diag_signs(n) if not both_sides else [d1]):
            err = max(abs(d1[i] * got[i][j] * d2[j] - want[i][j])
                      for i in range(n) for j in range(n))
            best = min(best, err)
    return best / scale


def p1_stokes_invariant(s) -> float:
    """2 - tr(S^-1 S^T) for a 2x2 unipotent Stokes matrix; the quantum
    cohomology of P1 has |s_12 + s_21| = 2, so the invariant equals 4."""
    (a, b), (c, d) = s
    det = a * d - b * c
    inv = [[d / det, -b / det], [-c / det, a / det]]
    st = [[a, c], [b, d]]
    tr = sum(inv[i][k] * st[k][i] for i in range(2) for k in range(2))
    return 2 - tr


# ---------------------------------------------------------------------------
# sympy oracles
# ---------------------------------------------------------------------------

def _sympy():
    import sympy
    return sympy


def spec_json(src_dir: Path, name: str) -> dict:
    return json.loads((src_dir / "frobwdvv" / "specs" / f"{name}.json").read_text())


def sympy_potential(obj: dict, params: dict | None = None):
    """(symbols, potential, unity index, charge, euler linear, euler shifts)
    from a spec JSON object, built term by term with sympy."""
    sp = _sympy()
    if obj.get("parametric") == "twodim":
        # the family (1/2) v1^2 v2 + c v2^m named in the spec notes; charge
        # d = (m - 3)/(m - 1), spectrum (-d/2, d/2), unity v1
        m, c = sp.Rational(str(params["m"])), sp.Rational(str(params["c"]))
        v1, v2 = sp.symbols("v1 v2", positive=True)
        d = (m - 3) / (m - 1)
        mu = [-d / 2, d / 2]
        lin = [1 - d / 2 - x for x in mu]
        return (v1, v2), v1 ** 2 * v2 / 2 + c * v2 ** m, 1, d, lin, [0, 0]
    syms = sp.symbols(" ".join(obj["variables"]), positive=True)
    if len(obj["variables"]) == 1:
        syms = (syms,)
    env = dict(zip(obj["variables"], syms))
    pot = 0
    for t in obj["potential"]["terms"]:
        term = sp.Rational(t["coeff"]) * sp.sqrt(int(t.get("radical", 1)))
        for v, e in t.get("powers", {}).items():
            term *= env[v] ** sp.Rational(e)
        for v, k in t.get("logs", {}).items():
            term *= sp.log(env[v]) ** int(k)
        for v, e in t.get("exps", {}).items():
            term *= sp.exp(sp.Rational(e) * env[v])
        pot += term
    lin = [sp.Rational(x) for x in obj["euler"]["linear"]]
    shifts = [sp.Rational(x) for x in obj["euler"].get("shifts", ["0"] * len(syms))]
    return syms, pot, int(obj["unity_index"]), sp.Rational(obj["charge"]), lin, shifts


def sympy_structure_check(obj: dict, params: dict | None = None) -> dict:
    """Re-derive the metric, associativity and the Euler relation with sympy:
    eta_ab = d_unity d_a d_b F constant and nondegenerate, the WDVV quartic
    identities, and E(F) - (3 - d) F with vanishing third derivatives."""
    sp = _sympy()
    syms, pot, unity, charge, lin, shifts = sympy_potential(obj, params)
    n = len(syms)
    third = {}
    for a, b, g in itertools.combinations_with_replacement(range(n), 3):
        third[(a, b, g)] = sp.diff(pot, syms[a], syms[b], syms[g])

    def c(a, b, g):
        return third[tuple(sorted((a, b, g)))]

    eta = sp.Matrix(n, n, lambda a, b: sp.simplify(c(unity - 1, a, b)))
    metric_ok = all(not eta[a, b].free_symbols for a in range(n) for b in range(n)) \
        and eta.det() != 0
    wdvv_ok = metric_ok
    if metric_ok:
        eta_inv = eta.inv()
        for a, b, g, d in itertools.combinations_with_replacement(range(n), 4):
            def pairing(x, y, z, w):
                return sum(c(x, y, r) * eta_inv[r, s] * c(s, z, w)
                           for r in range(n) for s in range(n) if eta_inv[r, s] != 0)
            p1 = pairing(a, b, g, d)
            for other in (pairing(a, g, b, d), pairing(a, d, b, g)):
                if sp.simplify(p1 - other) != 0:
                    wdvv_ok = False
    euler = sum((lin[b] * syms[b] + shifts[b]) * sp.diff(pot, syms[b]) for b in range(n))
    resid = sp.expand(euler - (3 - charge) * pot)
    euler_ok = all(sp.simplify(sp.diff(resid, syms[a], syms[b], syms[g])) == 0
                   for a, b, g in itertools.combinations_with_replacement(range(n), 3))
    return {"wdvv": bool(wdvv_ok), "euler": bool(euler_ok)}


def sympy_hat_center(obj: dict, kappa: int, center) -> list:
    """Upper hat coordinates at the straight center: eta^{-1} applied to the
    kappa-th row of the Hessian of F."""
    sp = _sympy()
    syms, pot, unity, *_ = sympy_potential(obj)
    n = len(syms)
    at = dict(zip(syms, [sp.Rational(str(x)) for x in center]))
    eta = sp.Matrix(n, n, lambda a, b: sp.diff(pot, syms[unity - 1], syms[a], syms[b]))
    row = sp.Matrix([sp.diff(pot, syms[kappa - 1], syms[b]).subs(at) for b in range(n)])
    return [sp.nsimplify(x) for x in eta.inv() * row]


def sympy_taylor(expr_text: str, center, order: int) -> dict:
    """Taylor coefficients of a printed hat potential at `center`, for every
    multi-index of total degree 3..order, as sympy numbers."""
    sp = _sympy()
    n = len(center)
    hs = sp.symbols(" ".join(f"h{i + 1}" for i in range(n)), positive=True)
    expr = sp.sympify(expr_text, locals={f"h{i + 1}": hs[i] for i in range(n)})
    at = dict(zip(hs, center))
    out = {}
    # differentiate h1 progressively to reuse intermediate derivatives
    d1 = expr
    for k1 in range(order + 1):
        d12 = d1
        for k2 in range(order + 1 - k1):
            if k1 + k2 >= 3:
                val = sp.nsimplify(d12.subs(at)) / (sp.factorial(k1) * sp.factorial(k2))
                out[(k1, k2)] = sp.simplify(val)
            d12 = sp.diff(d12, hs[1])
        d1 = sp.diff(d1, hs[0])
    return out


def sympy_scalar(js):
    """A scalar as the worker serialises it: "p/q" or {"sqrt": [[m, "p/q"]]}."""
    sp = _sympy()
    if isinstance(js, str):
        return sp.Rational(js)
    return sum(sp.Rational(q) * sp.sqrt(m) for m, q in js["sqrt"])
