"""The benchmark's own checks of one round's outputs.

Runs in the parent process, never in the timed worker, and uses only
`references.py` (literature values, math.gamma closed forms and sympy
re-derivations), never frobwdvv.
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from pathlib import Path

import references as R
import workloads as W

# double precision: the cap of numeric_digits
CAP_DIGITS = -math.log10(2.0 ** -52)
MONODROMY_TOL = 1e-6


def digits(err: float) -> float:
    if err <= 0 or not math.isfinite(err):
        return CAP_DIGITS if err <= 0 else 0.0
    return min(CAP_DIGITS, -math.log10(err))


def _bits(js) -> int:
    """Largest numerator/denominator bit length of an exported exact scalar."""
    if isinstance(js, str):
        q = F(js)
        return max(q.numerator.bit_length(), q.denominator.bit_length())
    if isinstance(js, dict):
        return max((_bits(q) for _, q in js["sqrt"]), default=0)
    return 0


def _cplx(m):
    return [[complex(re, im) for re, im in row] for row in m]


class Checker:
    """Per-run references, prepared once, and the per-round check."""

    def __init__(self, workload: str, inp: dict, src_dir: Path):
        self.workload = workload
        self.inp = inp
        self.src = src_dir
        self.refs = getattr(self, "_prepare_" + workload.replace("-", "_"))()

    # -- preparation (sympy work happens once per run) -------------------
    def _prepare_legendre_series(self):
        out = {}
        for name, kappa, center, order, _ in W.LEGENDRE_EXACT:
            if name not in R.PRINTED_HAT:
                continue
            obj = R.spec_json(self.src, name)
            hc = R.sympy_hat_center(obj, kappa, center)
            out[name] = {"center": hc,
                         "taylor": R.sympy_taylor(R.PRINTED_HAT[name], hc, order)}
        mus = {}
        for name in ("p1", "a2", "p1orb", "nls", "p2"):
            mus[name] = [F(x) for x in R.spec_json(self.src, name)["mu"]]
        m = F(self.inp["twodim"]["m"])
        d = (m - 3) / (m - 1)
        mus["twodim"] = [-d / 2, d / 2]
        out["mu"] = mus
        return out

    def _prepare_coefficient_recursions(self):
        return {}

    def _prepare_monodromy_sweep(self):
        return {"a2": R.a2_stokes_central()}

    def _prepare_structure_checks(self):
        out = {}
        for name in ("p1", "nls", "p1orb", "a2"):
            out[name] = R.sympy_structure_check(R.spec_json(self.src, name))
        out["twodim"] = R.sympy_structure_check(R.spec_json(self.src, "twodim"),
                                                self.inp["twodim"])
        return out

    # -- one round --------------------------------------------------------
    def check(self, ops: list, results: list) -> dict:
        """ops: workloads.Op list; results: the worker's per-op records.
        Returns correct, attempted, failed, the numeric error, max bits and
        notes on anything wrong."""
        st = {"correct": True, "attempted": 0, "failed": 0, "num_err": 0.0,
              "max_bits": 0, "notes": [], "faults": []}
        by_name = {}
        for op, res in zip(ops, results):
            st["attempted"] += 1
            err = res["error"]
            if op.expect_error:
                if not err or err[0] != op.expect_error:
                    st["failed"] += 1
                    st["notes"].append(f"{op.name}: expected {op.expect_error}, got {err}")
                continue
            if err:
                st["failed"] += 1
                if op.known_fault and err[0] == op.known_fault:
                    st["faults"].append(f"{op.name}: {err[0]}: {err[1]}")
                else:
                    st["notes"].append(f"{op.name}: unexpected {err[0]}: {err[1]}")
                continue
            by_name[op.name] = res["output"]
            if op.meta:
                res["output"]["meta"] = op.meta
        getattr(self, "_check_" + self.workload.replace("-", "_"))(by_name, st)
        return st

    def _fail(self, st, msg):
        st["correct"] = False
        st["notes"].append(msg)

    def _check_legendre_series(self, outs, st):
        for name, out in outs.items():
            spec, kappa = out["meta"]["spec"], out["meta"]["kappa"]
            for chk, rep in out["checks"].items():
                if not rep["pass"]:
                    self._fail(st, f"{name}: {chk} failed")
            # transformed charge: -2 mu_kappa, from the spec data
            if F(out["hat_charge"]) != -2 * self.refs["mu"][spec][kappa - 1]:
                self._fail(st, f"{name}: hat charge {out['hat_charge']}")
            if spec == "p2":
                st["num_err"] = max(st["num_err"], out["checks"]["round-trip"]["max_residual"])
            for _, c in out["hat_coeffs"]:
                st["max_bits"] = max(st["max_bits"], _bits(c))
            if spec in R.PRINTED_HAT:
                self._check_printed(name, spec, out, st)

    def _check_printed(self, name, spec, out, st):
        ref = self.refs[spec]
        center = [R.sympy_scalar(c) for c in out["hat_center"]]
        if any((a - b) != 0 for a, b in zip(center, ref["center"])):
            self._fail(st, f"{name}: hat center {center} vs {ref['center']}")
            return
        got = {tuple(i): R.sympy_scalar(c) for i, c in out["hat_coeffs"] if sum(i) >= 3}
        for idx, want in ref["taylor"].items():
            if (got.pop(idx, 0) - want).expand() != 0:
                self._fail(st, f"{name}: coefficient {idx} differs from the printed potential")
                return
        if got:
            self._fail(st, f"{name}: extra coefficients {sorted(got)[:3]}")

    def _check_coefficient_recursions(self, outs, st):
        def table(name, key="table"):
            out = outs[name]
            for k, v in out[key]:
                st["max_bits"] = max(st["max_bits"], _bits(v))
            for audit, ok in out.get("audits", {}).items():
                if not ok:
                    self._fail(st, f"{name}: audit {audit} failed")
            return {tuple(k) if isinstance(k, list) else k: F(v) for k, v in out[key]}

        def expect(name, got, want):
            if got != want:
                self._fail(st, f"{name}: {got} != {want}")

        nd = table("recursion nd 8")
        expect("nd", [nd.get(d) for d in range(1, 9)], list(R.KONTSEVICH_ND.values()))
        ode = table("recursion nd 8 (ODE route)")
        expect("nd ODE route", [ode.get(d) for d in range(1, 9)], list(R.KONTSEVICH_ND.values()))
        ck = table("recursion ck 6")
        expect("c_k", [ck.get(k) for k in range(7)], R.APPENDIX_CK)
        mk = table("recursion mk 6")
        expect("m_k", [mk.get(k) for k in range(1, 7)], R.APPENDIX_MK)
        qk = table("recursion qk 4")
        expect("k q_k", [k * qk[k] if k in qk else None for k in range(1, 5)], R.APPENDIX_K_QK)
        wk = table("recursion wk 10")
        expect("w_1", wk.get(1), R.APPENDIX_W1)
        nkl = table("recursion nkl 6")
        expect("N_kl", {k: nkl.get(k) for k in R.KONTSEVICH_MANIN_NKL}, R.KONTSEVICH_MANIN_NKL)
        both = outs["recursion ckl and a21"]
        outs["ckl"], outs["a21"] = both["ckl"], both["a"]
        ckl = table("ckl")
        expect("C_kl", {k: ckl.get(k) for k in R.APPENDIX_CKL}, R.APPENDIX_CKL)
        table("a21")
        for name in ("pointwise c_k on p2", "pointwise a21 on p1xp1"):
            rep = outs[name]
            if not rep["pass"]:
                self._fail(st, f"{name}: residual {rep['max_residual']}")
            st["num_err"] = max(st["num_err"], rep["max_residual"])
        if outs["pointwise c_k on p2"]["points"] != len(self.inp["p2_points"]):
            self._fail(st, "pointwise: not every point was checked")

    def _check_monodromy_sweep(self, outs, st):
        s_ref, c_ref = self.refs["a2"]

        def against_a2(name):
            out = outs[name]
            es = R.error_up_to_signs(_cplx(out["stokes"]), s_ref, both_sides=True)
            ec = R.error_up_to_signs(_cplx(out["central"]), c_ref, both_sides=False)
            st["num_err"] = max(st["num_err"], es, ec)
            if max(es, ec) > MONODROMY_TOL:
                self._fail(st, f"{name}: Stokes/central off the Gamma closed forms by "
                               f"{max(es, ec):.3g}")

        def internal(name):
            out = outs[name]
            if any(v >= MONODROMY_TOL for v in out["residuals"].values()):
                self._fail(st, f"{name}: internal residuals {out['residuals']}")
            for key in ("monodromy_residual", "stokes_from_central_residual"):
                if out["identities"][key] >= 1e-8:
                    self._fail(st, f"{name}: {key} {out['identities'][key]}")

        for name in ("a2 at (0,3)", "a2 at seeded point", "a2s2 transform invariance",
                     "a2 at (0,5)"):
            if name in outs:
                internal(name)
                against_a2(name)
        hat, base = outs["a2s2 transform invariance"], outs["a2 at (0,3)"]
        for key in ("stokes", "central"):
            d = max(abs(a - b) for ra, rb in zip(_cplx(hat[key]), _cplx(base[key]))
                    for a, b in zip(ra, rb))
            if d > MONODROMY_TOL:
                self._fail(st, f"a2s2: {key} differs from a2 by {d:.3g}")
        p1 = outs["p1 at seeded point"]
        internal("p1 at seeded point")
        inv = R.p1_stokes_invariant(_cplx(p1["stokes"]))
        err = abs(inv - 4) / 4
        st["num_err"] = max(st["num_err"], err)
        if err > MONODROMY_TOL:
            self._fail(st, f"p1: invariant 2 - tr(S^-1 S^T) = {inv}")
        frames = outs["frame suite"]
        limits = {"psi_orthonormal": 1e-9, "v_skew": 1e-9, "a2_psi": 1e-9, "a2_v": 1e-9,
                  "p1_psi": 1e-9, "p1_v": 1e-9, "phi_orthogonality": 1e-10,
                  "a2_closedness": 1e-6, "p1_closedness": 1e-6}
        for key, lim in limits.items():
            if not frames[key] < lim:
                self._fail(st, f"frame suite: {key} = {frames[key]}")

    def _check_structure_checks(self, outs, st):
        for name, out in outs.items():
            if name.startswith("structure "):
                spec = name.split()[1]
                for key in ("wdvv", "euler", "orthogonality", "homogeneity"):
                    if not out[key]:
                        self._fail(st, f"{name}: {key} failed")
                if spec in self.refs:
                    for key in ("wdvv", "euler"):
                        if out[key] != self.refs[spec][key]:
                            self._fail(st, f"{name}: {key} disagrees with sympy")
                if out["levels"] != 4:
                    self._fail(st, f"{name}: {out['levels']} calibration levels")
                st["max_bits"] = max(st["max_bits"], out["max_bits"])
            elif not out["pass"]:
                self._fail(st, f"{name}: genus-one identity failed")
