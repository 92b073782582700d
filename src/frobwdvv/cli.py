"""Command-line driver: reproducible pipelines with machine-readable reports.

Every subcommand writes a JSON (or CSV/text) report and exits nonzero when any
check fails.  Exact-arithmetic commands are deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from decimal import Context
from fractions import Fraction

SCHEMA = "frobwdvv/1"


def _emit(report: dict, path: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=1, sort_keys=True, default=_jsonable) + "\n"
    elif fmt == "csv":
        rows = report.get("table", [])
        lines = ["index,value,decimal"]
        for key, val in rows:
            key = f'"{key}"' if "," in key else key
            lines.append(f"{key},{val},{_decimal(Fraction(val))}")
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"# {report.get('command', '')}"]
        for chk in report.get("checks", []):
            lines.append(f"{'PASS' if chk['pass'] else 'FAIL'} {chk['name']}"
                         f" (residual {chk.get('max_residual', 0)})")
        for key, val in report.get("table", []):
            lines.append(f"{key}\t{val}")
        text = "\n".join(lines) + "\n"
    if path:
        # atomic write-then-rename
        d = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".frobwdvv-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    else:
        sys.stdout.write(text)


def _decimal(q: Fraction) -> str:
    """q to 12 significant digits as a float prints them, also past the float range."""
    try:
        return f"{float(q):.12g}"
    except OverflowError:
        return f"{Context(prec=12).divide(q.numerator, q.denominator).normalize():.12g}"


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if hasattr(x, "tolist"):
        return x.tolist()
    return str(x)


class UsageError(ValueError):
    """A malformed option value (exit 2, as argparse's own errors)."""


def _values(spec, text: str, flag: str, parse=Fraction, what="rationals") -> tuple:
    """The spec.n comma-separated values of `flag`, each read by `parse`."""
    try:
        vals = tuple(parse(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        vals = ()
    if len(vals) != spec.n:
        raise UsageError(f"{flag} needs {spec.n} comma-separated {what}, got {text!r}")
    return vals


def _sign(text: str) -> int:
    if int(text) not in (1, -1):
        raise ValueError(text)
    return int(text)


def _at_least(flag: str, value, low) -> None:
    if not value >= low:
        raise UsageError(f"{flag} must be at least {low}, got {value}")


def _check_kappa(spec, kappa: int) -> None:
    if not 1 <= kappa <= spec.n:
        raise UsageError(f"--kappa must be in 1..{spec.n}, got {kappa}")


def _exit(report: dict) -> int:
    return 0 if all(c["pass"] for c in report.get("checks", [])) else 1


def _parse_params(items):
    out = {}
    for item in items or []:
        k, _, v = item.partition("=")
        out[k.strip()] = v.strip()
    return out


def _load(args):
    from .specs import load_spec
    return load_spec(args.spec, _parse_params(getattr(args, "param", None)))


def cmd_wdvv_check(args) -> int:
    from .core import build_tensors, check_wdvv, euler_report
    spec = _load(args)
    t = build_tensors(spec)
    w = check_wdvv(spec, t)
    e = euler_report(spec, t)
    report = {
        "schema": SCHEMA, "command": "wdvv-check", "spec": spec.name,
        "checks": [
            {"name": "associativity", "pass": w.ok, "checked": w.checked,
             "first_failure": w.first_failure},
            {"name": "euler-scaling", "pass": e.ok},
        ],
    }
    _emit(report, args.output, args.format)
    return _exit(report)


def cmd_calibrate(args) -> int:
    from .calibration import (check_homogeneity, check_orthogonality,
                              solve_calibration, two_point_table)
    _at_least("--order", args.order, 1)
    spec = _load(args)
    cal = solve_calibration(spec, args.order)
    orth = check_orthogonality(cal)
    tab = two_point_table(cal, max(0, args.order - 1))
    hom = check_homogeneity(tab)
    report = {
        "schema": SCHEMA, "command": "calibrate", "spec": spec.name,
        "order": args.order,
        "checks": [
            {"name": "orthogonality", "pass": orth["pass"]},
            {"name": "two-point-homogeneity", "pass": hom["pass"],
             "entries": hom["entries"]},
        ],
    }
    if args.dump:
        report["calibration"] = cal.to_json_obj()
    _emit(report, args.output, args.format)
    return _exit(report)


def cmd_legendre(args) -> int:
    from .legendre import (check_gradient_identity, check_metric_transport,
                           check_unity_rule, round_trip, transform,
                           transport_calibration, verify_euler_hat)
    # below order 3 the round trip's hat Hessian is empty
    _at_least("--order", args.order, 3)
    _at_least("--m-max", args.m_max, 1)
    spec = _load(args)
    _check_kappa(spec, args.kappa)
    center = _default_center(spec, args.center)
    res = transform(spec, args.kappa, center, args.order, m_max=args.m_max)
    thetas = transport_calibration(res, args.m_max - 1)
    checks = [
        {"name": "euler-hat", **_pp(verify_euler_hat(res))},
        {"name": "metric-transport", **_pp(check_metric_transport(res))},
        {"name": "gradient-identity", **_pp(check_gradient_identity(res, thetas))},
        {"name": "unity-rule", **_pp(check_unity_rule(res, thetas))},
        {"name": "round-trip", **_pp(round_trip(res))},
    ]
    report = {
        "schema": SCHEMA, "command": "legendre", "spec": spec.name,
        "kappa": args.kappa, "order": str(args.order),
        "center": [str(c) for c in center],
        "charge_hat": str(res.hat_charge),
        "hat_shifts": [str(s) for s in res.hat_shifts],
        "checks": checks,
    }
    _emit(report, args.output, args.format)
    return _exit(report)


def _pp(d: dict) -> dict:
    out = {"pass": bool(d.get("pass"))}
    if "max_residual" in d:
        out["max_residual"] = d["max_residual"]
    if d.get("failures"):
        out["failures"] = [list(map(str, f)) if isinstance(f, tuple) else str(f)
                           for f in d["failures"][:5]]
    return out


def _default_center(spec, arg):
    if arg:
        return _values(spec, arg, "--center")
    # centers where the transform direction is invertible; the truncated plane
    # family needs a small third coordinate so the materialized tail is far
    # below the float tolerance of its series path
    defaults = {
        "p1": ("0", "0"), "nls": ("1", "0"), "a2": ("0", "3"),
        "p1orb": ("0", "0", "0"), "p2": ("0", "0", "1/10"),
        "twodim": ("0", "1"),
    }
    if spec.name in defaults:
        return tuple(Fraction(x) for x in defaults[spec.name])
    return tuple(Fraction(0) for _ in spec.varnames)


def cmd_verify_omega(args) -> int:
    from .legendre import transform, verify_omega_transport
    _at_least("--order", args.order, 1)
    # the check reads levels up to --m-max - 1; an entry needs level m1 + m2 + 1
    _at_least("--m-max", args.m_max, 2)
    _at_least("--table-order", args.table_order, 0)
    spec = _load(args)
    _check_kappa(spec, args.kappa)
    center = _default_center(spec, args.center)
    res = transform(spec, args.kappa, center, args.order, m_max=args.m_max)
    rep = verify_omega_transport(res, args.table_order, args.m_max - 1)
    report = {
        "schema": SCHEMA, "command": "verify-omega", "spec": spec.name,
        "kappa": args.kappa,
        "checks": [{"name": "two-point-transport", **_pp(rep),
                    "checked": rep["checked"]}],
    }
    _emit(report, args.output, args.format)
    return _exit(report)


def cmd_recursion(args) -> int:
    from . import solver
    name = args.name
    max_n = args.max if args.max is not None else {"ckl": 8, "a21": 19}.get(name, 6)
    _at_least("--max", max_n, 1)
    if name == "nd":
        out = solver.recursion_nd(max_n)
        dual = solver.nd_via_ode_route(min(max_n, 6))
        agree = all(dual.table()[k] == out.table()[k] for k in dual.table())
        checks = [{"name": "dual-route-agreement", "pass": agree}]
    elif name == "ck":
        out = solver.recursion_ck(max_n)
        checks = [{"name": "integrality-audit",
                   "pass": all(out.audits["integrality"].values())}]
    elif name == "mk":
        out = solver.recursion_mk(max_n)
        checks = [{"name": "two-integrality-audit",
                   "pass": all(out.audits["two_integrality"].values())}]
    elif name == "qk":
        out = solver.recursion_qk(max_n)
        checks = [{"name": "k-qk-integrality-audit",
                   "pass": all(out.audits["k_qk_integral"].values())}]
    elif name == "wk":
        out = solver.recursion_wk(max_n)
        checks = [{"name": "scaled-integrality-audit",
                   "pass": all(out.audits["scaled_integrality"].values())}]
    elif name == "nkl":
        out = solver.recursion_nkl(max_n)
        checks = [{"name": "symmetry", "pass": out.audits["symmetric"]}]
    else:   # ckl or a21; argparse rejects any other name
        out = solver.solve_ckl(max_n) if name == "ckl" else solver.solve_a21(max_n)
        checks = [{"name": "pattern-audit", "pass": out.audits["pattern_as_expected"]}]
    report = {
        "schema": SCHEMA, "command": f"recursion {name}", "max": max_n,
        "table": [[str(k), str(v)] for k, v in out.values],
        "checks": checks,
    }
    _emit(report, args.output, args.format)
    return _exit(report)


def cmd_genus1(args) -> int:
    from . import jets
    fam = args.family
    if fam == "p1":
        data = jets.p1_family_data()
    elif fam == "a2":
        data = jets.a2_family_data()
    else:   # twodim; argparse rejects any other family
        params = _parse_params(args.param)
        try:
            m, c = Fraction(params["m"]), Fraction(params["c"])
        except (KeyError, ValueError, ZeroDivisionError):
            raise UsageError("genus1-check twodim needs --param m=<rational> "
                             "and --param c=<rational>") from None
        data = jets.genus1_twodim_family(m, c)
    rep = jets.genus1_report(data)
    report = {
        "schema": SCHEMA, "command": "genus1-check", "family": fam,
        "constant": rep.get("constant"),
        "checks": [{"name": "jet-independence", "pass": rep["pass"],
                    "failures": rep["failures"]}],
    }
    _emit(report, args.output, args.format)
    return _exit(report)


def cmd_monodromy(args) -> int:
    from .core import build_tensors
    from .monodromy import monodromy_identities, stokes_and_connection
    if not args.tol > 0:
        raise UsageError(f"--tol must be positive, got {args.tol}")
    spec = _load(args)
    point = _values(spec, args.point, "--point")
    signs = _values(spec, args.signs, "--signs", _sign, "signs (1 or -1)") if args.signs else None
    t = build_tensors(spec)
    md = stokes_and_connection(spec, point, args.phi, tensors=t,
                               sign_choices=signs, tol=args.tol)
    ids = monodromy_identities(md, t.eta)
    ok_res = all(v < args.tol for k, v in md.residuals.items())
    report = {
        "schema": SCHEMA, "command": "monodromy", "spec": spec.name,
        "point": [str(x) for x in point], "phi": args.phi, "tol": args.tol,
        "stokes": [[md.stokes[i, j] for j in range(spec.n)] for i in range(spec.n)],
        "central": [[md.central[i, j] for j in range(spec.n)] for i in range(spec.n)],
        "conventions": md.conventions,
        "residuals": md.residuals,
        "work": md.work,
        "checks": [
            {"name": "internal-residuals", "pass": bool(ok_res)},
            {"name": "monodromy-identity", "pass": ids["monodromy_residual"] < 1e-8,
             "max_residual": ids["monodromy_residual"]},
            {"name": "stokes-from-central", "pass": ids["stokes_from_central_residual"] < 1e-8,
             "max_residual": ids["stokes_from_central_residual"]},
        ],
    }
    _emit(report, args.output, args.format)
    return _exit(report)


_EXACT_MONODROMY = {
    # printed exact data for the quantum cohomology of the line
    "p1": {
        "mu": [Fraction(-1, 2), Fraction(1, 2)],
        "R": [[Fraction(0), Fraction(0)], [Fraction(2), Fraction(0)]],
        "S": [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]],
        "marked": 1,
    },
}


def cmd_tensor_monodromy(args) -> int:
    from .monodromy import tensor_monodromy
    left = _EXACT_MONODROMY.get(args.left)
    right = _EXACT_MONODROMY.get(args.right)
    if left is None or right is None:
        print("exact monodromy data bundled only for: " +
              ", ".join(_EXACT_MONODROMY), file=sys.stderr)
        return 2
    eye = [[Fraction(int(i == j)) for j in range(2)] for i in range(2)]
    out = tensor_monodromy(left["mu"], left["R"], left["S"], eye, left["marked"],
                           right["mu"], right["R"], right["S"], eye, right["marked"])
    report = {
        "schema": SCHEMA, "command": "tensor-monodromy",
        "factors": [args.left, args.right],
        "mu": [str(out["mu"][i][i]) for i in range(len(out["mu"]))],
        "R": [[str(x) for x in row] for row in out["R"]],
        "S": [[str(x) for x in row] for row in out["S"]],
        "marked": list(out["marked"]),
        "checks": [{"name": "kronecker", "pass": True}],
    }
    _emit(report, args.output, args.format)
    return _exit(report)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="frobwdvv",
                                description="WDVV potentials, transformations, monodromy")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--output", default=None, help="report file (atomic write)")
        sp.add_argument("--format", default="json", choices=["json", "csv", "text"])

    sp = sub.add_parser("wdvv-check", help="associativity and Euler scaling")
    sp.add_argument("spec")
    sp.add_argument("--param", action="append")
    common(sp)
    sp.set_defaults(fn=cmd_wdvv_check)

    sp = sub.add_parser("calibrate", help="solve the level recursion and check it")
    sp.add_argument("spec")
    sp.add_argument("--order", type=int, default=4)
    sp.add_argument("--param", action="append")
    sp.add_argument("--dump", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_calibrate)

    sp = sub.add_parser("legendre", help="transform and verify structural identities")
    sp.add_argument("spec")
    sp.add_argument("--kappa", type=int, required=True)
    sp.add_argument("--order", type=Fraction, default=Fraction(8))
    sp.add_argument("--m-max", type=int, default=4)
    sp.add_argument("--center", default=None, help="comma-separated rationals")
    sp.add_argument("--param", action="append")
    common(sp)
    sp.set_defaults(fn=cmd_legendre)

    sp = sub.add_parser("verify-omega", help="two-point transport identities")
    sp.add_argument("spec")
    sp.add_argument("--kappa", type=int, required=True)
    sp.add_argument("--order", type=Fraction, default=Fraction(8))
    sp.add_argument("--m-max", type=int, default=4)
    sp.add_argument("--table-order", type=int, default=2)
    sp.add_argument("--center", default=None)
    sp.add_argument("--param", action="append")
    common(sp)
    sp.set_defaults(fn=cmd_verify_omega)

    sp = sub.add_parser("recursion", help="coefficient tables (exact)")
    sp.add_argument("name", choices=["nd", "ck", "mk", "qk", "wk", "nkl", "ckl", "a21"])
    sp.add_argument("--max", type=int, default=None,
                    help="table bound (default 6; ckl: k+l <= 8; a21: m1+4*m2 <= 19)")
    common(sp)
    sp.set_defaults(fn=cmd_recursion)

    sp = sub.add_parser("genus1-check", help="genus-one identity for a family")
    sp.add_argument("family", choices=["p1", "a2", "twodim"])
    sp.add_argument("--param", action="append")
    common(sp)
    sp.set_defaults(fn=cmd_genus1)

    sp = sub.add_parser("monodromy", help="numeric Stokes and connection matrices")
    sp.add_argument("spec")
    sp.add_argument("--point", required=True, help="comma-separated rationals")
    sp.add_argument("--phi", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--signs", default=None, help="comma-separated +-1 per sheet")
    sp.add_argument("--param", action="append")
    common(sp)
    sp.set_defaults(fn=cmd_monodromy)

    sp = sub.add_parser("tensor-monodromy", help="Kronecker data of a product")
    sp.add_argument("--left", default="p1")
    sp.add_argument("--right", default="p1")
    common(sp)
    sp.set_defaults(fn=cmd_tensor_monodromy)
    return p


def _error_code(exc: Exception) -> int:
    """Exit code of a failed run: 2 for a malformed or unknown spec or a
    malformed option value (usage errors, as argparse reports its own), 4 for
    a mathematical domain error (non-semisimple point, inadmissible line or
    failed matching, singular Jacobian or centre), 3 for anything else."""
    from .series import SingularCenterError, SingularJacobianError
    from .specs import SpecParseError
    domain = (SingularJacobianError, SingularCenterError)
    # monodromy's errors exist once it is loaded; loading it would import numpy, scipy
    if (mono := sys.modules.get("frobwdvv.monodromy")) is not None:
        domain += (mono.MatchingError, mono.NonSemisimpleError, mono.IntegrationError)
    if isinstance(exc, (SpecParseError, UsageError)):
        return 2
    if isinstance(exc, domain):
        return 4
    return 3


def main(argv=None) -> int:
    """Run one subcommand.  Exit 0 when every check passes, 1 when one fails;
    a run that raises exits as `_error_code` says."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # surface module errors with context, nonzero exit
        print(f"frobwdvv: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _error_code(exc)


if __name__ == "__main__":
    sys.exit(main())
