"""The four workloads: seeded inputs, set-up, and the operations of one round.

Each operation is the library work behind one CLI command, including the
checks that command runs.  An operation returns the program's raw result;
its `export` turns that into plain JSON (outside the timed region) for the
benchmark's own checks in `checks.py`.  Functions are looked up on their
modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

# Parameters of the two-dimensional family (1/2) v1^2 v2 + c v2^m, which
# needs m not in {0, 1, 2} and c != 0.  Odd spectral gaps other than the
# resonant m = 3/2 are left out (m = 1/2: the family carries no nilpotent
# block for them), and so are m = 1/3, 5/3 and 7/3 (see CHANGES.md).
TWODIM_M = ("-3", "-2", "-1/2", "5/2", "3", "4", "5", "7/2")
# c is chosen so that c m (m - 1) is a perfect power r^q, q the denominator
# of 1/(m - 2): the genus-one hat data hold (c m (m - 1))^{-1/(m - 2)},
# which must be exact.
TWODIM_ROOTS = ("1", "2", "1/2", "3/2", "2/3", "3")


def twodim_member(rng: random.Random, m: str | None = None) -> dict:
    m = F(m if m is not None else rng.choice(TWODIM_M))
    q = (1 / (m - 2)).denominator
    sign = rng.choice((1, -1)) if q % 2 else 1
    c = sign * F(rng.choice(TWODIM_ROOTS)) ** q / (m * (m - 1))
    return {"m": str(m), "c": str(c)}


PHI = 3 * math.pi / 4


@dataclass
class Op:
    name: str
    run: Callable            # ctx -> raw result
    export: Callable         # raw result -> JSON-able dict
    expect_error: str | None = None   # the op passes only if it raises this
    known_fault: str | None = None    # the op fails today with this error
    meta: dict | None = None          # what the checks need to know of the inputs


def inputs(workload: str, seed: int) -> dict:
    """Everything the seed decides for one workload, as plain data."""
    rng = random.Random(f"{workload}:{seed}")

    def rat(lo, hi, den):
        return str(F(rng.randint(int(lo * den), int(hi * den)), den))

    if workload == "legendre-series":
        return {"twodim": twodim_member(rng)}
    if workload == "coefficient-recursions":
        # p2: inside the convergence region of the c_k candidate in e^{h3};
        # p1xp1: both exponentials small, where the level-19 a21 table is
        # accurate to well below the 1e-6 tolerance
        p2 = [(rng.uniform(-0.9, 0.9), rng.uniform(-0.3, 0.3), rng.uniform(0.1, 0.25))
              for _ in range(240)]
        q = [(rng.uniform(-0.2, 0.2), rng.uniform(-2.2, -1.6), rng.uniform(-2.0, -1.5),
              rng.uniform(0.06, 0.12)) for _ in range(60)]
        return {"p2_points": p2, "p1xp1_points": q}
    if workload == "monodromy-sweep":
        # canonical-coordinate spread at most about 4 (a2: 0.77 v2^{3/2};
        # p1: 4 e^{v2/2}), where the fixed matching radii are accurate
        return {"a2_point": [rat(-1, 1, 4), rat(2, 3, 4)],
                "p1_point": [rat(-1, 1, 4), rat(-1, 0, 4)]}
    if workload == "structure-checks":
        # the resonant member m = 3/2 and the log case m = -1 always run
        return {"twodim": twodim_member(rng),
                "genus1": [twodim_member(rng, "3/2"), twodim_member(rng, "-1")]}
    raise KeyError(workload)


# modules each workload imports at set-up (what its CLI commands import)
MODULES = {
    "legendre-series": ("specs", "core", "legendre"),
    "coefficient-recursions": ("specs", "core", "solver", "legendre", "closedform"),
    "monodromy-sweep": ("specs", "core", "monodromy"),
    "structure-checks": ("specs", "core", "calibration", "jets"),
}


def import_modules(workload: str) -> dict:
    return {m: importlib.import_module(f"frobwdvv.{m}") for m in MODULES[workload]}


# ---------------------------------------------------------------------------
# exporting results as plain JSON
# ---------------------------------------------------------------------------

def scalar(x):
    """Fraction -> "p/q"; radical -> {"sqrt": [[m, "p/q"], ...]};
    float/complex -> [re, im].  Reads attributes only, so no traced call."""
    if isinstance(x, F):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return f"{x}/1"
    if isinstance(x, (float, complex)):
        return [complex(x).real, complex(x).imag]
    terms = getattr(x, "terms", None)
    if isinstance(terms, dict):
        return {"sqrt": [[m, scalar(q)] for m, q in sorted(terms.items())]}
    raise TypeError(f"cannot export scalar {x!r}")


def matrix(a) -> list:
    return [[[complex(v).real, complex(v).imag] for v in row] for row in a.tolist()]


def _pp(report: dict) -> dict:
    out = {"pass": bool(report.get("pass"))}
    if "max_residual" in report:
        out["max_residual"] = float(report["max_residual"])
    return out


# ---------------------------------------------------------------------------
# legendre-series
# ---------------------------------------------------------------------------

def _legendre_op(spec_key, kappa, center, order, m_max):
    def run(ctx):
        L = ctx["mods"]["legendre"]
        spec = ctx["specs"][spec_key]
        res = L.transform(spec, kappa, tuple(F(c) for c in center), order, m_max=m_max)
        thetas = L.transport_calibration(res, m_max - 1)
        checks = {
            "euler-hat": L.verify_euler_hat(res),
            "metric-transport": L.check_metric_transport(res),
            "gradient-identity": L.check_gradient_identity(res, thetas),
            "unity-rule": L.check_unity_rule(res, thetas),
            "round-trip": L.round_trip(res),
        }
        return res, checks

    def export(raw):
        res, checks = raw
        return {"checks": {k: _pp(v) for k, v in checks.items()},
                "hat_charge": scalar(res.hat_charge),
                "hat_center": [scalar(c) for c in res.hat_center],
                "hat_coeffs": [[list(i), scalar(c)]
                               for i, c in sorted(res.hat_potential.coeffs.items())]}
    return run, export


def _singular_op(spec_key, kappa, center, order, m_max):
    def run(ctx):
        L = ctx["mods"]["legendre"]
        return L.transform(ctx["specs"][spec_key], kappa, tuple(F(c) for c in center),
                           order, m_max=m_max)
    return run, lambda raw: {}


# (spec, kappa, center, order, calibration levels)
LEGENDRE_EXACT = (
    ("p1", 2, ("0", "0"), 14, 4),
    ("a2", 2, ("0", "3"), 20, 4),
    ("p1orb", 2, ("0", "0", "0"), 8, 4),
    ("nls", 1, ("1", "0"), 12, 4),
    ("twodim", 2, ("0", "1"), 12, 4),
    # float path: the truncated plane family is transported with complex
    # coefficients; two calibration levels keep the round short
    ("p2", 3, ("0", "0", "1/10"), 5, 2),
)


def legendre_ops(inp: dict) -> list:
    ops = [Op(f"{spec} kappa={kappa} at ({','.join(center)}) order {order}",
              *_legendre_op(spec, kappa, center, order, m_max),
              meta={"spec": spec, "kappa": kappa, "center": center, "order": order})
           for spec, kappa, center, order, m_max in LEGENDRE_EXACT]
    ops += [
        Op("a2 kappa=2 at (0,0)", *_singular_op("a2", 2, ("0", "0"), 20, 4),
           expect_error="SingularJacobianError"),
        Op("ccc_a111 kappa=2 at origin", *_singular_op("ccc_a111", 2, ("0", "0", "0"), 4, 2),
           expect_error="SingularJacobianError"),
    ]
    return ops


def legendre_specs(inp: dict) -> dict:
    return {"p1": ("p1", None), "a2": ("a2", None), "p1orb": ("p1orb", None),
            "nls": ("nls", None), "twodim": ("twodim", inp["twodim"]),
            "p2": ("p2", None), "ccc_a111": ("ccc_a111", None)}


# ---------------------------------------------------------------------------
# coefficient-recursions
# ---------------------------------------------------------------------------

def _table_export(out):
    return {"table": [[list(k) if isinstance(k, tuple) else k, scalar(v)]
                      for k, v in out.values],
            "audits": {k: v for k, v in out.audits.items() if isinstance(v, bool)}}


def _recursion_op(fn_name, *args):
    def run(ctx):
        return getattr(ctx["mods"]["solver"], fn_name)(*args)
    return run, _table_export


def _ck_candidate(ctx, ck):
    cf_mono = ctx["mods"]["closedform"].cf_mono
    cand = cf_mono(F(1, 6), {"h2": 3}) + cf_mono(F(1), {"h1": 1, "h2": 1, "h3": 1})
    for k in range(0, 7):
        cand = cand + cf_mono(ck[k] / math.factorial(3 * k), {"h1": 3 * k},
                              None, {"h3": 1 - 2 * k})
    return cand


def _a21_candidate(ctx, a):
    cf_mono = ctx["mods"]["closedform"].cf_mono
    cand = (cf_mono(F(1, 2), {"h3": 2, "h2": 1}) + cf_mono(F(1), {"h1": 1, "h3": 1, "h4": 1})
            + cf_mono(F(1), {"h1": 1, "h2": 1}, {"h1": 1}) - cf_mono(F(1), {"h1": 1, "h2": 1}))
    for (m1, m2), v in a.items():
        if v:
            cand = cand + cf_mono(v, {"h1": F(3 - m1 - 2 * m2, 2), "h2": m1}, None, {"h4": m2})
    return cand


def recursion_ops(inp: dict) -> list:
    def ck_pointwise(ctx):
        ck = ctx["results"]["ck"].table()
        L = ctx["mods"]["legendre"]
        return L.verify_pointwise(ctx["specs"]["p2"], 2, _ck_candidate(ctx, ck),
                                  [tuple(p) for p in inp["p2_points"]], tol=1e-8,
                                  tensors=ctx["tensors"]["p2"])

    def a21_pointwise(ctx):
        a = ctx["results"]["ckl_a"]["a"].table()
        L = ctx["mods"]["legendre"]
        return L.verify_pointwise(ctx["specs"]["p1xp1"], 3, _a21_candidate(ctx, a),
                                  [tuple(p) for p in inp["p1xp1_points"]], tol=1e-6,
                                  tensors=ctx["tensors"]["p1xp1"])

    def keep(key, run):
        def wrapped(ctx):
            ctx["results"][key] = out = run(ctx)
            return out
        return wrapped

    ckl_run = keep("ckl_a", lambda ctx: ctx["mods"]["solver"].solve_ckl_and_a())
    return [
        Op("recursion nd 8", *_recursion_op("recursion_nd", 8)),
        Op("recursion nd 8 (ODE route)", *_recursion_op("nd_via_ode_route", 8)),
        Op("recursion ck 6", keep("ck", _recursion_op("recursion_ck", 6)[0]), _table_export),
        Op("recursion mk 6", *_recursion_op("recursion_mk", 6)),
        Op("recursion qk 4", *_recursion_op("recursion_qk", 4)),
        Op("recursion wk 10", *_recursion_op("recursion_wk", 10)),
        Op("recursion nkl 6", *_recursion_op("recursion_nkl", 6)),
        Op("recursion ckl and a21", ckl_run,
           lambda raw: {"ckl": _table_export(raw["ckl"]), "a": _table_export(raw["a"])}),
        Op("pointwise c_k on p2", ck_pointwise, _pointwise_export),
        Op("pointwise a21 on p1xp1", a21_pointwise, _pointwise_export),
    ]


def _pointwise_export(rep):
    return {"pass": bool(rep["pass"]), "max_residual": float(rep["max_residual"]),
            "points": rep["points"]}


def recursion_specs(inp: dict) -> dict:
    return {"p2": ("p2", None), "p1xp1": ("p1xp1", None)}


# ---------------------------------------------------------------------------
# monodromy-sweep
# ---------------------------------------------------------------------------

# The kappa = 2 transform of a2, as spec data: 1/2 v1 v2^2 + (4/5)(sqrt(6)/3) v1^{5/2}
A2S2_SPEC = {
    "name": "a2s2", "variables": ["v1", "v2"], "unity_index": 2,
    "charge": "-1/3", "mu": ["-1/6", "1/6"], "R": [],
    "euler": {"shifts": ["0", "0"]},
    "potential": {"terms": [
        {"coeff": "1/2", "radical": 1, "powers": {"v1": "1", "v2": "2"}},
        {"coeff": "4/15", "radical": 6, "powers": {"v1": "5/2"}},
    ]},
}


def _stokes_export(raw):
    md, ids = raw
    return {"stokes": matrix(md.stokes), "central": matrix(md.central),
            "residuals": {k: float(v) for k, v in md.residuals.items()},
            "identities": {k: (float(v) if not isinstance(v, bool) else v)
                           for k, v in ids.items()}}


def _stokes_op(spec_key, point):
    def run(ctx):
        M = ctx["mods"]["monodromy"]
        spec, t = ctx["specs"][spec_key], ctx["tensors"][spec_key]
        md = M.stokes_and_connection(spec, tuple(F(x) for x in point), PHI, tensors=t)
        return md, M.monodromy_identities(md, t.eta)
    return run, _stokes_export


def monodromy_ops(inp: dict) -> list:
    def a2s2(ctx):
        M = ctx["mods"]["monodromy"]
        a2, t = ctx["specs"]["a2"], ctx["tensors"]["a2"]
        hat, th = ctx["specs"]["a2s2"], ctx["tensors"]["a2s2"]
        inv = M.frame_invariance_report(a2, hat, (F(0), F(3)), 2, t, th)
        ss = M.semisimple_at(a2, (F(0), F(3)), t)
        ss_hat = M.semisimple_at(hat, inv["hat_point"], th, sign_reference=(1, ss.psi[:, 1]))
        md = M.stokes_and_connection(hat, inv["hat_point"], PHI, tensors=th,
                                     sign_choices=ss_hat.sign_choices)
        return md, M.monodromy_identities(md, th.eta)

    def frames(ctx):
        M = ctx["mods"]["monodromy"]
        a2, t = ctx["specs"]["a2"], ctx["tensors"]["a2"]
        ss = M.semisimple_at(a2, (F(0), F(3)), t)
        out = {"psi_orthonormal": float(abs(ss.psi.T @ ss.psi - ss.eta).max()),
               "v_skew": float(abs(ss.v_mat + ss.v_mat.T).max())}
        inv = M.frame_invariance_report(a2, ctx["specs"]["a2s2"], (F(0), F(3)), 2, t,
                                        ctx["tensors"]["a2s2"])
        out["a2_psi"], out["a2_v"] = inv["psi_residual"], inv["v_residual"]
        invp = M.frame_invariance_report(ctx["specs"]["p1"], ctx["specs"]["nls"],
                                         (F(1, 5), F(1, 7)), 2, ctx["tensors"]["p1"],
                                         ctx["tensors"]["nls"])
        out["p1_psi"], out["p1_v"] = invp["psi_residual"], invp["v_residual"]
        out["phi_orthogonality"] = float(M.phi_orthogonality_residual(M.phi_recursion(ss, 8)))
        out["a2_closedness"] = M.hamiltonians_and_closedness(
            a2, (0.0, 3.0), h=1e-4, tensors=t)["closedness_residual"]
        out["p1_closedness"] = M.hamiltonians_and_closedness(
            ctx["specs"]["p1"], (0.0, 0.0), h=1e-4, tensors=ctx["tensors"]["p1"])[
            "closedness_residual"]
        return out

    return [
        Op("a2 at (0,3)", *_stokes_op("a2", ("0", "3"))),
        Op("a2 at seeded point", *_stokes_op("a2", inp["a2_point"])),
        Op("p1 at seeded point", *_stokes_op("p1", inp["p1_point"])),
        Op("a2s2 transform invariance", a2s2, _stokes_export),
        Op("frame suite", frames, lambda out: {k: float(v) for k, v in out.items()}),
        # fixed matching radii vs a canonical spread of 8.6: the Stokes
        # stability residual is 3.0e-6 against the 1e-6 tolerance
        Op("a2 at (0,5)", *_stokes_op("a2", ("0", "5")), known_fault="MatchingError"),
    ]


def monodromy_specs(inp: dict) -> dict:
    return {"a2": ("a2", None), "p1": ("p1", None), "nls": ("nls", None),
            "a2s2": (A2S2_SPEC, None)}


# ---------------------------------------------------------------------------
# structure-checks
# ---------------------------------------------------------------------------

BUILTIN = ("p1", "nls", "p1orb", "a2", "p2", "p1xp1", "ccc_a111", "twodim")


def _structure_op(key):
    def run(ctx):
        C, K = ctx["mods"]["core"], ctx["mods"]["calibration"]
        spec, t = ctx["specs"][key], ctx["tensors"][key]
        w = C.check_wdvv(spec, t)
        e = C.euler_report(spec, t)
        cal = K.solve_calibration(spec, 4, t)
        orth = K.check_orthogonality(cal)
        tab = K.two_point_table(cal, 2 if spec.n >= 4 else 3)
        hom = K.check_homogeneity(tab)
        return w, e, cal, orth, tab, hom

    def export(raw):
        w, e, cal, orth, tab, hom = raw
        bits = 0
        for th in cal.theta.values():
            for c in th.terms.values():
                for q in (c.terms.values() if hasattr(c, "terms") else [c]):
                    bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
        return {"wdvv": w.ok, "wdvv_checked": w.checked, "euler": e.ok,
                "orthogonality": bool(orth["pass"]), "homogeneity": bool(hom["pass"]),
                "levels": cal.m_max, "entries": len(tab.omega), "max_bits": bits}
    return run, export


def _genus1_op(family, m=None, c=None):
    def run(ctx):
        J = ctx["mods"]["jets"]
        if family == "p1":
            data = J.p1_family_data()
        elif family == "a2":
            data = J.a2_family_data()
        else:
            data = J.genus1_twodim_family(F(m), F(c))
        return J.genus1_report(data)

    def export(rep):
        const = rep.get("constant")
        return {"pass": bool(rep["pass"]),
                "constant": None if const is None else scalar(complex(const))}
    return run, export


def structure_ops(inp: dict) -> list:
    ops = [Op(f"structure {k}", *_structure_op(k)) for k in BUILTIN]
    res, log = inp["genus1"]
    ops += [
        Op("genus-one p1", *_genus1_op("p1")),
        Op("genus-one a2", *_genus1_op("a2")),
        Op("genus-one twodim m=3/2", *_genus1_op("twodim", res["m"], res["c"])),
        Op("genus-one twodim m=-1", *_genus1_op("twodim", log["m"], log["c"])),
        Op("genus-one twodim seeded", *_genus1_op("twodim", inp["twodim"]["m"],
                                                  inp["twodim"]["c"])),
    ]
    return ops


def structure_specs(inp: dict) -> dict:
    return {k: (k, inp["twodim"] if k == "twodim" else None) for k in BUILTIN}


WORKLOADS = {
    "legendre-series": (legendre_specs, legendre_ops),
    "coefficient-recursions": (recursion_specs, recursion_ops),
    "monodromy-sweep": (monodromy_specs, monodromy_ops),
    "structure-checks": (structure_specs, structure_ops),
}


def setup(workload: str, inp: dict, mods: dict) -> dict:
    """Load and build_tensors every spec the workload uses."""
    specs_mod, core = mods["specs"], mods["core"]
    spec_table, _ = WORKLOADS[workload]
    ctx = {"mods": mods, "specs": {}, "tensors": {}, "results": {}}
    for key, (src, params) in spec_table(inp).items():
        if isinstance(src, dict):
            spec = specs_mod.spec_from_json_obj(src)
            core.validate_spec(spec, core.build_tensors(spec))
        else:
            spec = specs_mod.load_spec(src, params)
        ctx["specs"][key] = spec
        ctx["tensors"][key] = core.build_tensors(spec)
    return ctx


def operations(workload: str, inp: dict) -> list:
    return WORKLOADS[workload][1](inp)
