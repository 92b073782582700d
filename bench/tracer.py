"""Layer tracing from outside the program.

`install` wraps the public entry points of each frobwdvv module (and the
arithmetic dunders of `Exact`, `ClosedForm` and `TruncSeries`) in place: a
module-level function is replaced in every frobwdvv module that imported it
by name, so calls from inside the library are seen too.  `src/` is not
touched.

Each wrapped call opens a span (name, start, end, parent).  A layer's self
time is its span time minus the time of the spans it directly contains.
Spans are aggregated per name as they close; the coarse ones (everything but
the per-scalar and per-term arithmetic) are also kept as records and written
out at the end.  Exact-scalar calls are only counted: timing them would cost
more than the work.
"""

from __future__ import annotations

import functools
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = []            # [name, start, child_time, record_id]
        self.agg = {}              # name -> [calls, total_s, self_s]
        self.counts = {}           # counter name -> int
        self.records = []          # [id, name, start, end, parent_id]

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def span(self, name, fn, keep_record, after=None):
        stack, agg, records = self.stack, self.agg, self.records

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = None
            if keep_record:
                rid = len(records)
                records.append([rid, name, 0.0, 0.0, stack[-1][3] if stack else None])
            frame = [name, 0.0, 0.0, rid]
            stack.append(frame)
            frame[1] = start = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - start
                a = agg.get(frame[0])
                if a is None:
                    a = agg[frame[0]] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if rid is not None:
                    records[rid][2], records[rid][3] = start, end
            if after is not None:
                # the hook's own time is kept out of the parent's self time
                t0 = _clock()
                after(self, frame, args, out)
                if stack:
                    stack[-1][2] += _clock() - t0
            return out
        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper


# ---------------------------------------------------------------------------
# what to wrap
# ---------------------------------------------------------------------------

def _series_mul_after(tr, frame, args, out):
    a, b = args[0], args[1]
    if type(b).__name__ != "TruncSeries":
        return
    tr.count("series.mul_calls")
    tr.count("series.mul_terms_out", len(out.coeffs))
    tr.count("series.mul_pairs_attempted", len(a.coeffs) * len(b.coeffs))
    # kept pairs: weighted degrees add, so count by degree histogram
    g = a.grading
    ha, hb = {}, {}
    for h, s in ((ha, a), (hb, b)):
        for idx in s.coeffs:
            w = sum(wi * k for wi, k in zip(g.weights, idx))
            h[w] = h.get(w, 0) + 1
    tr.count("series.mul_pairs_kept", sum(na * nb for wa, na in ha.items()
                                          for wb, nb in hb.items() if wa + wb <= g.order))


def _series_mul_span(tr, fn):
    """TruncSeries products, timed apart for exact and float coefficients."""
    exact = tr.span("series.mul.exact", fn, False, _series_mul_after)
    flt = tr.span("series.mul.float", fn, False, _series_mul_after)

    @functools.wraps(fn)
    def dispatch(self, other):
        coeffs = self.coeffs or getattr(other, "coeffs", None) or {}
        if isinstance(next(iter(coeffs.values()), 0), (float, complex)):
            return flt(self, other)
        return exact(self, other)
    return dispatch


def _cf_mul_after(tr, frame, args, out):
    tr.count("closedform.mul_terms_out", len(out.terms) if hasattr(out, "terms") else 0)


def _count_result(key, attr=None, fn=len):
    def after(tr, frame, args, out):
        val = getattr(out, attr) if attr else out
        tr.count(key, fn(val))
    return after


def _ivp_after(tr, frame, args, out):
    tr.count("monodromy.rhs_evals", int(out.nfev))


# (module, attribute or "Class.method", span name ("exact": counted only),
#  keep span records, hook called with the result)
def _plan():
    plan = []
    for meth in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__pow__", "__neg__", "inverse"):
        plan.append(("exact", f"Exact.{meth}", "exact", False, None))
    for fn in ("sqrt_fraction", "nth_root_fraction", "as_exact_scalar", "scalar_is_exact"):
        plan.append(("exact", fn, "exact", False, None))
    for meth in ("__mul__", "__rmul__"):
        plan.append(("closedform", f"ClosedForm.{meth}", "closedform.mul", False, _cf_mul_after))
    for meth in ("__add__", "__radd__", "__sub__", "__rsub__"):
        plan.append(("closedform", f"ClosedForm.{meth}", "closedform.add", False, None))
    for meth in ("diff", "diff_multi", "antiderivative"):
        plan.append(("closedform", f"ClosedForm.{meth}", "closedform.calculus", False, None))
    for meth in ("evaluate", "evaluate_exact"):
        plan.append(("closedform", f"ClosedForm.{meth}", "closedform.evaluate", False, None))
    plan += [
        ("series", "compose", "series.compose", True, None),
        ("series", "invert_map", "series.invert_map", True, None),
        ("series", "localize", "series.localize", True, None),
        ("linalg", "mat_inv", "linalg.mat_inv", True, None),
        ("linalg", "sdiv", "linalg", False, None),
        ("linalg", "kron", "linalg", True, None),
        ("core", "build_tensors", "core.build_tensors", True, None),
        ("core", "validate_spec", "core.validate", True, None),
        ("core", "check_wdvv", "core.wdvv", True, _count_result("core.wdvv_checked", "checked", int)),
        ("core", "euler_report", "core.wdvv", True, None),
        ("core", "u_matrix", "core.u_matrix", True, None),
        ("calibration", "solve_calibration", "calibration.solve", True,
         _count_result("calibration.levels", "m_max", int)),
        ("calibration", "two_point_table", "calibration.two_point", True,
         _count_result("calibration.omega_entries", "omega")),
        ("calibration", "check_homogeneity", "calibration.checks", True, None),
        ("calibration", "check_orthogonality", "calibration.checks", True, None),
        ("calibration", "theta_matrix_coefficients", "calibration.checks", True, None),
        ("legendre", "transform", "legendre.transform", True, None),
        ("legendre", "transform_series", "legendre.transform", True, None),
        ("legendre", "transport_calibration", "legendre.transport", True, None),
        ("legendre", "verify_pointwise", "legendre.pointwise", True,
         lambda tr, f, a, o: tr.count("legendre.pointwise_points", o["points"])),
        ("specs", "load_spec", "specs.load", True, None),
        ("specs", "spec_from_json_obj", "specs.load", True, None),
        ("specs", "deepen_spec", "specs.deepen", True, None),
        ("solver", "solve_slot_family", "solver.slot", True,
         _count_result("solver.unknowns", "values")),
        ("jets", "genus1_report", "jets.genus1_report", True, None),
        ("jets", "p1_family_data", "jets.genus1", True, None),
        ("jets", "a2_family_data", "jets.genus1", True, None),
        ("jets", "genus1_twodim_family", "jets.genus1", True, None),
        ("monodromy", "stokes_and_connection", "monodromy.stokes", True, None),
        ("monodromy", "solve_ivp", "monodromy.ivp", False, _ivp_after),
        ("monodromy", "monodromy_identities", "monodromy.identities", True, None),
    ]
    for fn in ("verify_euler_hat", "check_metric_transport", "check_gradient_identity",
               "check_unity_rule", "round_trip", "verify_omega_transport",
               "check_structure_transport", "check_product_identity",
               "series_equal_mod_quadratic"):
        plan.append(("legendre", fn, "legendre.checks", True, None))
    for fn in ("recursion_nd", "nd_via_ode_route", "recursion_ck", "recursion_mk",
               "recursion_qk", "recursion_wk"):
        plan.append(("solver", fn, "solver.univariate", True, None))
    for fn in ("recursion_nkl", "solve_ckl_and_a"):
        plan.append(("solver", fn, "solver.tables", True, None))
    for fn in ("semisimple_at", "phi_recursion", "phi_orthogonality_residual",
               "frame_invariance_report", "hamiltonians_and_closedness", "align_frame"):
        plan.append(("monodromy", fn, "monodromy.frame", True, None))
    return plan


def install(tracer: Tracer) -> None:
    """Wrap every entry point of the plan in the frobwdvv modules loaded now
    (import the modules first).  TruncSeries products get their own wrapper
    that splits exact and float coefficients."""
    mods = {k[len("frobwdvv."):]: m for k, m in sys.modules.items()
            if k.startswith("frobwdvv.")}
    for modname, attr, span, keep, after in _plan():
        mod = mods.get(modname)
        if mod is None:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            new = tracer.counter(span, orig) if span == "exact" else \
                tracer.span(span, orig, keep, after)
            setattr(cls, meth, new)
            continue
        orig = getattr(mod, attr, None)
        if orig is None:
            continue
        new = tracer.counter(span, orig) if span == "exact" else \
            tracer.span(span, orig, keep, after)
        for other in mods.values():
            for name, val in list(vars(other).items()):
                if val is orig:
                    setattr(other, name, new)
    series = mods.get("series")
    if series is not None:
        cls = series.TruncSeries
        for meth in ("__mul__", "__rmul__"):
            setattr(cls, meth, _series_mul_span(tracer, cls.__dict__[meth]))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> (kind, source): "self" = self seconds of span names, "calls" =
# span call counts, "count" = counter
LAYER_METRICS = {
    "exact.calls": ("count", ["exact"]),
    "closedform.mul_calls": ("calls", ["closedform.mul"]),
    "closedform.mul_s": ("self", ["closedform.mul"]),
    "closedform.mul_terms_out": ("count", ["closedform.mul_terms_out"]),
    "closedform.add_calls": ("calls", ["closedform.add"]),
    "closedform.add_s": ("self", ["closedform.add"]),
    "closedform.calculus_calls": ("calls", ["closedform.calculus"]),
    "closedform.calculus_s": ("self", ["closedform.calculus"]),
    "closedform.evaluate_calls": ("calls", ["closedform.evaluate"]),
    "closedform.evaluate_s": ("self", ["closedform.evaluate"]),
    "series.mul_calls": ("count", ["series.mul_calls"]),
    "series.mul_s.exact": ("self", ["series.mul.exact"]),
    "series.mul_s.float": ("self", ["series.mul.float"]),
    "series.mul_pairs_attempted": ("count", ["series.mul_pairs_attempted"]),
    "series.mul_pairs_kept": ("count", ["series.mul_pairs_kept"]),
    "series.mul_terms_out": ("count", ["series.mul_terms_out"]),
    "series.compose_calls": ("calls", ["series.compose"]),
    "series.compose_s": ("self", ["series.compose"]),
    "series.invert_map_s": ("self", ["series.invert_map"]),
    "series.localize_s": ("self", ["series.localize"]),
    "linalg.mat_inv_calls": ("calls", ["linalg.mat_inv"]),
    "linalg.s": ("self", ["linalg.mat_inv", "linalg"]),
    "core.build_tensors_s": ("self", ["core.build_tensors"]),
    "core.wdvv_s": ("self", ["core.wdvv"]),
    "core.wdvv_checked": ("count", ["core.wdvv_checked"]),
    "calibration.solve_s": ("self", ["calibration.solve"]),
    "calibration.levels": ("count", ["calibration.levels"]),
    "calibration.two_point_s": ("self", ["calibration.two_point"]),
    "calibration.omega_entries": ("count", ["calibration.omega_entries"]),
    "calibration.checks_s": ("self", ["calibration.checks"]),
    "legendre.transform_s": ("self", ["legendre.transform"]),
    "legendre.transport_s": ("self", ["legendre.transport"]),
    "legendre.checks_s": ("self", ["legendre.checks"]),
    "legendre.pointwise_s": ("self", ["legendre.pointwise"]),
    "legendre.pointwise_points": ("count", ["legendre.pointwise_points"]),
    "specs.load_s": ("self", ["specs.load"]),
    "specs.deepen_calls": ("calls", ["specs.deepen"]),
    "specs.deepen_s": ("self", ["specs.deepen"]),
    "solver.slot_s": ("self", ["solver.slot"]),
    "solver.unknowns": ("count", ["solver.unknowns"]),
    "solver.univariate_s": ("self", ["solver.univariate"]),
    "jets.genus1_s": ("self", ["jets.genus1", "jets.genus1_report"]),
    "jets.families": ("calls", ["jets.genus1_report"]),
    "monodromy.stokes_calls": ("calls", ["monodromy.stokes"]),
    "monodromy.stokes_s": ("self", ["monodromy.stokes"]),
    "monodromy.ivp_calls": ("calls", ["monodromy.ivp"]),
    "monodromy.rhs_evals": ("count", ["monodromy.rhs_evals"]),
    "monodromy.ivp_s": ("self", ["monodromy.ivp"]),
    "monodromy.frame_s": ("self", ["monodromy.frame"]),
}


def layer_values(tracer: Tracer) -> dict:
    out = {}
    for metric, (kind, names) in LAYER_METRICS.items():
        if kind == "count":
            out[metric] = sum(tracer.counts.get(n, 0) for n in names)
        elif kind == "calls":
            out[metric] = sum(tracer.agg.get(n, [0, 0.0, 0.0])[0] for n in names)
        else:
            out[metric] = sum(tracer.agg.get(n, [0, 0.0, 0.0])[2] for n in names)
    return out
