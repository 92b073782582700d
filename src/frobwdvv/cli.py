"""Command-line driver: reproducible pipelines with machine-readable reports.

Every subcommand writes a JSON (or CSV/text) report and exits nonzero when any
check fails.  Exact-arithmetic commands are deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
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


def _rational(text: str) -> Fraction:
    """argparse type of a rational option: a zero denominator is a usage error too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


def _sign(text: str) -> int:
    if int(text) not in (1, -1):
        raise ValueError(text)
    return int(text)


# the largest --order of calibrate, of legendre and verify-omega, their largest --m-max, and
# the largest float spacing of --phi; the largest run they allow takes under 60 s (README)
CALIBRATE_ORDER_MAX, ORDER_MAX, M_MAX_MAX, PHI_ULP_MAX = 32, 20, 8, 1e-12


def _bounded(flag: str, value, low, high) -> None:
    if not value >= low:
        raise UsageError(f"{flag} must be at least {low}, got {value}")
    if value > high:
        raise UsageError(f"{flag} must be at most {high}, got {value}")


def _check_kappa(spec, kappa: int) -> None:
    if not 1 <= kappa <= spec.n:
        raise UsageError(f"--kappa must be in 1..{spec.n}, got {kappa}")


def _parse_params(items):
    out = {}
    for item in items or []:
        k, _, v = item.partition("=")
        out[k.strip()] = v.strip()
    return out


def _load(args):
    from .specs import load_spec
    return load_spec(args.spec, _parse_params(getattr(args, "param", None)))


def cmd_wdvv_check(args) -> dict:
    from .core import build_tensors, check_wdvv, euler_report
    spec = _load(args)
    t = build_tensors(spec)
    w = check_wdvv(spec, t)
    e = euler_report(spec, t)
    return {
        "command": "wdvv-check", "spec": spec.name,
        "checks": [
            {"name": "associativity", "pass": w.ok, "checked": w.checked,
             "first_failure": w.first_failure},
            {"name": "euler-scaling", "pass": e.ok},
        ],
    }


def cmd_calibrate(args) -> dict:
    from .calibration import (check_homogeneity, check_orthogonality,
                              solve_calibration, two_point_table)
    _bounded("--order", args.order, 1, CALIBRATE_ORDER_MAX)
    spec = _load(args)
    cal = solve_calibration(spec, args.order)
    orth = check_orthogonality(cal)
    tab = two_point_table(cal, max(0, args.order - 1))
    hom = check_homogeneity(tab)
    report = {
        "command": "calibrate", "spec": spec.name,
        "order": args.order,
        "checks": [
            {"name": "orthogonality", "pass": orth["pass"]},
            {"name": "two-point-homogeneity", "pass": hom["pass"],
             "entries": hom["entries"]},
        ],
    }
    if args.dump:
        report["calibration"] = cal.to_json_obj()
    return report


def cmd_legendre(args) -> dict:
    from .legendre import (check_gradient_identity, check_metric_transport,
                           check_unity_rule, round_trip, transform,
                           transport_calibration, verify_euler_hat)
    # below order 3 the round trip's hat Hessian is empty
    _bounded("--order", args.order, 3, ORDER_MAX)
    _bounded("--m-max", args.m_max, 1, M_MAX_MAX)
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
    return {
        "command": "legendre", "spec": spec.name,
        "kappa": args.kappa, "order": str(args.order),
        "center": [str(c) for c in center],
        "charge_hat": str(res.hat_charge),
        "hat_shifts": [str(s) for s in res.hat_shifts],
        "checks": checks,
    }


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


def cmd_verify_omega(args) -> dict:
    from .legendre import transform, verify_omega_transport
    _bounded("--order", args.order, 1, ORDER_MAX)
    # the check reads levels up to --m-max - 1; an entry needs level m1 + m2 + 1
    _bounded("--m-max", args.m_max, 2, M_MAX_MAX)
    _bounded("--table-order", args.table_order, 0, args.m_max - 2)
    spec = _load(args)
    _check_kappa(spec, args.kappa)
    center = _default_center(spec, args.center)
    res = transform(spec, args.kappa, center, args.order, m_max=args.m_max)
    rep = verify_omega_transport(res, args.table_order, args.m_max - 1)
    return {
        "command": "verify-omega", "spec": spec.name,
        "kappa": args.kappa,
        "checks": [{"name": "two-point-transport", **_pp(rep),
                    "checked": rep["checked"]}],
    }


def cmd_recursion(args) -> dict:
    from . import solver

    def every(key):     # the audit holds at every entry
        return lambda out: all(out.audits[key].values())

    def flag(key):
        return lambda out: out.audits[key]

    def nd_dual_route(out):     # the ODE route's first (up to six) counts agree
        dual = solver.nd_via_ode_route(min(len(out.values), 6)).values
        return all(out.table()[d] == v for d, v in dual)

    # name: (solver, default --max, least --max (its first entry's), largest --max, check, audit)
    fn, default, least, most, check, audit = {
        "nd": (solver.recursion_nd, 6, 1, 500, "dual-route-agreement", nd_dual_route),
        "ck": (solver.recursion_ck, 6, 1, 100, "integrality-audit", every("integrality")),
        "mk": (solver.recursion_mk, 6, 1, 100, "two-integrality-audit", every("two_integrality")),
        "qk": (solver.recursion_qk, 6, 1, 120, "k-qk-integrality-audit", every("k_qk_integral")),
        "wk": (solver.recursion_wk, 6, 1, 120, "scaled-integrality-audit",
               every("scaled_integrality")),
        "nkl": (solver.recursion_nkl, 6, 1, 50, "symmetry", flag("symmetric")),
        "ckl": (solver.solve_ckl, 8, 2, 50, "pattern-audit", flag("pattern_as_expected")),
        "a21": (solver.solve_a21, 19, 5, 100, "pattern-audit", flag("pattern_as_expected")),
    }[args.name]
    max_n = default if args.max is None else args.max
    _bounded("--max", max_n, least, most)
    out = fn(max_n)
    return {
        "command": f"recursion {args.name}", "max": max_n,
        "table": [[str(k), str(v)] for k, v in out.values],
        "checks": [{"name": check, "pass": audit(out)}],
    }


def cmd_genus1(args) -> dict:
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
    return {
        "command": "genus1-check", "family": fam,
        "constant": rep.get("constant"),
        "checks": [{"name": "jet-independence", "pass": rep["pass"],
                    "failures": rep["failures"]}],
    }


def cmd_monodromy(args) -> dict:
    from .core import build_tensors
    from .monodromy import monodromy_identities, stokes_and_connection
    if not 0 < args.tol < 1:    # it gates errors in entries of size about 1
        raise UsageError(f"--tol must lie in (0, 1), got {args.tol}")
    if not math.ulp(args.phi) <= PHI_ULP_MAX:     # an angle that its float pins down
        raise UsageError(f"--phi must have float spacing at most {PHI_ULP_MAX}, got {args.phi}")
    spec = _load(args)
    point = _values(spec, args.point, "--point")
    signs = _values(spec, args.signs, "--signs", _sign, "signs (1 or -1)") if args.signs else None
    t = build_tensors(spec)
    md = stokes_and_connection(spec, point, args.phi, tensors=t,
                               sign_choices=signs, tol=args.tol)
    ids = monodromy_identities(md, t.eta)
    ok_res = all(v < args.tol for k, v in md.residuals.items())
    return {
        "command": "monodromy", "spec": spec.name,
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


# printed data: the Stokes matrix of the quantum cohomology of the line
_PRINTED_STOKES = {"p1": [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]}


def cmd_tensor_monodromy(args) -> dict:
    """Kronecker data of two factors: mu and R_1 from their bundled specs,
    compared exactly with the spec <left>x<right>; S from the printed data."""
    from .monodromy import tensor_monodromy
    from .specs import load_spec
    for flag, name in (("--left", args.left), ("--right", args.right)):
        if name not in _PRINTED_STOKES:
            raise UsageError(f"{flag}: no printed Stokes matrix for {name!r} "
                             f"(printed for: {', '.join(_PRINTED_STOKES)})")
    left, right, product = (load_spec(name) for name in
                            (args.left, args.right, f"{args.left}x{args.right}"))

    def r1(spec):
        return [[spec.r_entry(1, a, b) for b in range(1, spec.n + 1)] for a in range(1, spec.n + 1)]

    def factor(spec):   # (mu, R_1, S, C, marked); C is not reported: 1 stands in
        eye = [[Fraction(int(i == j)) for j in range(spec.n)] for i in range(spec.n)]
        return spec.mu, r1(spec), _PRINTED_STOKES[spec.name], eye, spec.unity

    def fuchsian(mu, r):    # entry name -> value, 1-based
        return {**{f"mu[{i}]": m for i, m in enumerate(mu, 1)},
                **{f"R1[{a},{b}]": x for a, row in enumerate(r, 1) for b, x in enumerate(row, 1)}}

    out = tensor_monodromy(*factor(left), *factor(right))
    mu = [out["mu"][i][i] for i in range(len(out["mu"]))]
    got, want = fuchsian(mu, out["R"]), fuchsian(product.mu, r1(product))
    failures = [f"{k}: {got.get(k)} vs {want.get(k)}" for k in {**got, **want}
                if got.get(k) != want.get(k)]
    return {
        "command": "tensor-monodromy",
        "factors": [args.left, args.right],
        "mu": [str(m) for m in mu],
        "R": [[str(x) for x in row] for row in out["R"]],
        "S": [[str(x) for x in row] for row in out["S"]],
        "S_source": "printed",
        "marked": list(out["marked"]),
        "checks": [{"name": "kronecker", "product": product.name, "pass": not failures,
                    "failures": failures}],
    }


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
    sp.add_argument("--order", type=_rational, default=Fraction(8))
    sp.add_argument("--m-max", type=int, default=4)
    sp.add_argument("--center", default=None, help="comma-separated rationals")
    sp.add_argument("--param", action="append")
    common(sp)
    sp.set_defaults(fn=cmd_legendre)

    sp = sub.add_parser("verify-omega", help="two-point transport identities")
    sp.add_argument("spec")
    sp.add_argument("--kappa", type=int, required=True)
    sp.add_argument("--order", type=_rational, default=Fraction(8))
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
    """Exit code of a failed run: 2 for a malformed, unknown or invalid spec or a
    malformed option value (usage errors, as argparse reports its own), 4 for a
    mathematical domain error (non-semisimple point, inadmissible line or failed
    matching, singular Jacobian or centre, calibration or hat-Hessian obstruction,
    an exact value outside the radical field), 3 otherwise."""
    from .calibration import ObstructionError
    from .closedform import NeedsFloatError
    from .core import SpecValidationError
    from .series import SingularCenterError, SingularJacobianError
    from .specs import SpecParseError
    domain = (SingularJacobianError, SingularCenterError, ObstructionError, NeedsFloatError)
    # monodromy's errors exist once it is loaded; loading it would import numpy
    if (mono := sys.modules.get("frobwdvv.monodromy")) is not None:
        domain += (mono.MatchingError, mono.NonSemisimpleError, mono.IntegrationError)
    if isinstance(exc, (SpecParseError, SpecValidationError, UsageError)):
        return 2
    if isinstance(exc, domain):
        return 4
    return 3


def main(argv=None) -> int:
    """Run one subcommand, which returns its report, and write the report with
    its schema.  Exit 0 when every check passes, 1 when one fails; a run that
    raises exits as `_error_code` says, and a command line argparse rejects
    exits 2, as from argparse itself (`--help` exits 0)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        report = {"schema": SCHEMA, **args.fn(args)}
        _emit(report, args.output, args.format)
    except Exception as exc:  # surface module errors with context, nonzero exit
        print(f"frobwdvv: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _error_code(exc)
    return 0 if all(c["pass"] for c in report.get("checks", [])) else 1


if __name__ == "__main__":
    sys.exit(main())
