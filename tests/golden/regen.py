"""Golden reports of the exact CLI commands.

Each entry of COMMANDS is one `frobwdvv` invocation whose JSON report is
deterministic byte for byte; `tests/test_golden.py` re-runs it and compares
the bytes with the stored file.  Regenerate the files (only when a report is
meant to change) with

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

COMMANDS = [
    ["wdvv-check", "p1"],
    ["wdvv-check", "p2"],
    ["wdvv-check", "p1xp1"],
    ["wdvv-check", "ccc_a111"],
    ["calibrate", "p1", "--order", "4", "--dump"],
    ["calibrate", "a2", "--order", "4", "--dump"],
    ["calibrate", "nls", "--order", "4", "--dump"],
    ["calibrate", "p1orb", "--order", "3", "--dump"],
    ["calibrate", "p1xp1", "--order", "2", "--dump"],
    ["calibrate", "ccc_a111", "--order", "2", "--dump"],
    ["genus1-check", "p1"],
    ["genus1-check", "a2"],
    ["recursion", "nd", "--max", "6"],
    ["recursion", "ck", "--max", "4"],
    ["recursion", "nkl", "--max", "4"],
    ["legendre", "p1", "--kappa", "2", "--order", "8"],
    ["verify-omega", "p1", "--kappa", "2", "--order", "6"],
]


def golden_name(argv: list[str]) -> str:
    return "_".join(a.lstrip("-") for a in argv) + ".json"


def render(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one CLI invocation."""
    from frobwdvv.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def main() -> int:
    for argv in COMMANDS:
        code, text = render(argv)
        if code != 0:
            print(f"{' '.join(argv)}: exit {code}", file=sys.stderr)
            return 1
        (GOLDEN_DIR / golden_name(argv)).write_text(text)
        print(f"wrote {golden_name(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
