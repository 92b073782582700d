"""Golden reports of the exact CLI commands and of exact series outputs.

Each entry of COMMANDS is one `frobwdvv` invocation whose JSON report is
deterministic byte for byte; `tests/test_golden.py` re-runs it and compares
the bytes with the stored file.  The CLI's `legendre` report carries only
pass flags, so each entry of SERIES is one Legendre transform whose hat
potential and inverse-map components are stored coefficient by coefficient,
and each entry of ROUND_TRIPS is one whose hat potential is transformed back
in the unity direction, with the back-transformed potential stored.
Regenerate the files (only when a report is meant to change) with

    PYTHONPATH=src python tests/golden/regen.py

and, with `--check`, write nothing: list the files whose bytes would change, and
exit 1 if any would.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
from fractions import Fraction

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

COMMANDS = [
    ["wdvv-check", "p1"],
    ["wdvv-check", "p2"],
    ["wdvv-check", "p1xp1"],
    ["wdvv-check", "ccc_a111"],
    ["calibrate", "p1", "--order", "4", "--dump"],
    ["calibrate", "a2", "--order", "4", "--dump"],
    ["calibrate", "p2", "--order", "4", "--dump"],
    ["calibrate", "nls", "--order", "4", "--dump"],
    ["calibrate", "p1orb", "--order", "3", "--dump"],
    ["calibrate", "p1xp1", "--order", "2", "--dump"],
    ["calibrate", "ccc_a111", "--order", "2", "--dump"],
    # the benchmark's order for p1xp1; twodim m = 3/2 is resonant, with a nilpotent R block
    ["calibrate", "p1xp1", "--order", "4", "--dump"],
    ["calibrate", "twodim", "--param", "m=3/2", "--param", "c=2", "--order", "4", "--dump"],
    ["calibrate", "twodim", "--param", "m=-1", "--param", "c=1", "--order", "4", "--dump"],
    ["genus1-check", "p1"],
    ["genus1-check", "a2"],
    ["recursion", "nd", "--max", "6"],
    ["recursion", "ck", "--max", "4"],
    ["recursion", "nkl", "--max", "4"],
    # past max 4, through N_{3,4} = 87544
    ["recursion", "nkl", "--max", "7"],
    ["recursion", "ckl", "--max", "8"],
    ["recursion", "a21", "--max", "19"],
    ["legendre", "p1", "--kappa", "2", "--order", "8"],
    ["verify-omega", "p1", "--kappa", "2", "--order", "6"],
    # the two-point transport off the origin, on rational a2 series, through table order 3
    ["verify-omega", "a2", "--kappa", "2", "--center", "0,3", "--order", "8", "--m-max", "5",
     "--table-order", "3"],
]


# (spec, spec parameters, kappa, center, order): the fractional order
# exercises the floor of the cutoff; the a2 series are rational (the sqrt(6)
# of its printed hat potential cancels at h1 = 3/2), and twodim m = 7/2 at
# v2 = 2 carries sqrt(2) coefficients; twodim m = 5/3 at v2 = 1 takes the
# cube-root case of the exact powers (1^(p/3) = 1) and stays rational; p2
# kappa = 3 at t = 1/10 runs on complex floats, pinned by str(complex), the
# shortest round-trip repr
SERIES = [
    ("p1", None, 2, ("0", "0"), "8"),
    ("p1", None, 2, ("0", "0"), "15/2"),
    ("a2", None, 2, ("0", "3"), "10"),
    ("nls", None, 1, ("1", "0"), "8"),
    ("p1orb", None, 2, ("0", "0", "0"), "6"),
    ("twodim", {"m": "7/2", "c": "1"}, 2, ("0", "2"), "8"),
    ("twodim", {"m": "5/3", "c": "-2/3"}, 2, ("0", "1"), "8"),
    ("p2", None, 3, ("0", "0", "1/10"), "5"),
]

# the float path's back transform: its sums in `compose` and `invert_map` follow
# the dict order of the hat Hessian's coefficients, which this pins bit for bit
ROUND_TRIPS = [
    ("p2", None, 3, ("0", "1/2", "1/5"), "6"),
]


def golden_name(argv: list[str]) -> str:
    return ("_".join(a.lstrip("-") for a in argv) + ".json").replace("/", "over")


def render(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one CLI invocation."""
    from frobwdvv.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def series_name(entry: tuple, kind: str = "series") -> str:
    spec, params, kappa, center, order = entry
    tag = "".join(f"_{k}_{v}" for k, v in sorted((params or {}).items()))
    return (f"{kind}_{spec}{tag}_kappa_{kappa}_at_{'_'.join(center)}"
            f"_order_{order}.json").replace("/", "over")


def round_trip_name(entry: tuple) -> str:
    return series_name(entry, "round_trip")


def render_series(entry: tuple, back: bool = False) -> str:
    """Hat potential and inverse map of one transform, as series JSON; with
    `back`, the hat potential transformed back in the unity direction."""
    from frobwdvv.legendre import transform, transform_series
    from frobwdvv.specs import load_spec
    spec, params, kappa, center, order = entry
    res = transform(load_spec(spec, params), kappa, tuple(Fraction(c) for c in center),
                    Fraction(order))
    if back:
        _, f_back = transform_series(res.hat_potential, res.tensors.eta_inv, res.spec.unity)
        obj = {"back_potential": f_back.to_json_obj()}
    else:
        obj = {"hat_potential": res.hat_potential.to_json_obj(),
               "inverse_map": [c.to_json_obj() for c in res.inverse_map.components]}
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def rendered():
    """(file name, text) of every golden file, as the code renders it now."""
    for argv in COMMANDS:
        code, text = render(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)}: exit {code}")
        yield golden_name(argv), text
    for entry in SERIES:
        yield series_name(entry), render_series(entry)
    for entry in ROUND_TRIPS:
        yield round_trip_name(entry), render_series(entry, back=True)


def main(argv: list[str]) -> int:
    check = argv == ["--check"]
    if argv and not check:
        raise SystemExit("usage: regen.py [--check]")
    changed = 0
    for name, text in rendered():
        path = GOLDEN_DIR / name
        if not check:
            path.write_text(text)
            print(f"wrote {name}")
        elif not path.exists() or path.read_text() != text:
            changed += 1
            print(f"would change {name}")
    return int(changed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
