import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from frobwdvv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_recursion_nd_table(capsys):
    code, out = run(capsys, "recursion", "nd", "--max", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "frobwdvv/1"
    assert rep["table"] == [["1", "1"], ["2", "1"], ["3", "12"], ["4", "620"]]


def test_recursion_csv_format(capsys):
    code, out = run(capsys, "recursion", "ck", "--max", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,value,decimal"
    assert lines[2].startswith("1,1,")
    assert lines[4].startswith("3,104,")


def test_recursion_csv_past_the_float_range(capsys):
    # N_67 is past the float range; its decimal is rounded from the exact value
    code, out = run(capsys, "recursion", "nd", "--max", "67", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[66].endswith(",4.40747828485e+305")
    assert lines[67].startswith("67,454805236428316909") and lines[67].endswith(",4.54805236428e+311")


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "recursion", "mk", "--max", "5")
    _, out2 = run(capsys, "recursion", "mk", "--max", "5")
    assert out1 == out2


def test_wdvv_check_all_builtins(capsys):
    for name in ("p1", "nls", "a2", "p1orb"):
        code, out = run(capsys, "wdvv-check", name)
        assert code == 0, out


def test_wdvv_check_with_params(capsys):
    code, out = run(capsys, "wdvv-check", "twodim", "--param", "m=5", "--param", "c=2")
    assert code == 0


def test_legendre_report(capsys):
    code, out = run(capsys, "legendre", "p1", "--kappa", "2", "--order", "8")
    assert code == 0
    rep = json.loads(out)
    assert rep["charge_hat"] == "-1"
    assert all(c["pass"] for c in rep["checks"])


def test_verify_omega(capsys):
    code, out = run(capsys, "verify-omega", "p1", "--kappa", "2", "--order", "6",
                    "--table-order", "2")
    assert code == 0


def test_monodromy_command(capsys):
    code, out = run(capsys, "monodromy", "a2", "--point", "0,3",
                    "--phi", str(3 * math.pi / 4), "--tol", "1e-6",
                    "--signs", "1,-1")
    assert code == 0
    rep = json.loads(out)
    s = rep["stokes"]
    assert abs(s[0][0][0] - 1) < 1e-6 and abs(s[1][0][0] + 1) < 1e-6
    assert "conventions" in rep and "sign_choices" in rep["conventions"]
    work = rep["work"]
    assert work["rhs_evals_total"] == sum(work["rhs_evals"]) > 0
    assert len(work["rhs_evals"]) == len(work["stack_widths"]) \
        == work["radial_segments"] + work["arc_segments"]
    assert (work["theta_exact_levels"], work["theta_levels"]) == (0, 14)
    # canonical spread 4: the seed radius is 12, with 20 series terms
    assert (work["seed_radius"], work["series_terms"]) == (pytest.approx(12.0), 20)
    assert not set(work) & set(rep["residuals"])


def test_monodromy_at_wide_spread(capsys):
    # canonical spread 8.6: the matching radii are scaled by 4 / 8.6
    code, out = run(capsys, "monodromy", "a2", "--point", "0,5", "--phi", "2.356194490")
    assert code == 0
    assert json.loads(out)["conventions"]["radius_scale"] == pytest.approx(4 / 8.6066, rel=1e-4)


@pytest.mark.parametrize("argv, flag", [
    (["monodromy", "a2", "--point", "0,3,7", "--phi", "2.36"], "--point"),
    (["monodromy", "a2", "--point", "0", "--phi", "2.36"], "--point"),
    (["monodromy", "a2", "--point", "0,x", "--phi", "2.36"], "--point"),
    (["monodromy", "a2", "--point", "0,3", "--phi", "2.36", "--signs", "1,2"], "--signs"),
    (["monodromy", "a2", "--point", "0,3", "--phi", "2.36", "--signs", "1"], "--signs"),
    (["legendre", "p1", "--kappa", "2", "--center", "0,0,5"], "--center"),
    (["legendre", "p1", "--kappa", "3"], "--kappa"),
    (["verify-omega", "p1", "--kappa", "0"], "--kappa"),
    (["genus1-check", "twodim", "--param", "c=1"], "--param"),
    (["genus1-check", "twodim", "--param", "m=abc", "--param", "c=1"], "--param"),
    (["legendre", "p1", "--kappa", "2", "--order", "2"], "--order"),
    (["legendre", "p1", "--kappa", "2", "--m-max", "0"], "--m-max"),
    (["verify-omega", "p1", "--kappa", "2", "--order", "0"], "--order"),
    (["verify-omega", "p1", "--kappa", "2", "--m-max", "1"], "--m-max"),
    (["verify-omega", "p1", "--kappa", "2", "--table-order", "-1"], "--table-order"),
    (["calibrate", "p1", "--order", "0"], "--order"),
    (["monodromy", "a2", "--point", "0,3", "--phi", "2.35", "--tol", "0"], "--tol"),
    (["monodromy", "a2", "--point", "0,3", "--phi", "2.35", "--tol", "inf"], "--tol"),
    (["monodromy", "a2", "--point", "0,3", "--phi", "2.35", "--tol", "1e300"], "--tol"),
    (["monodromy", "a2", "--point", "0,3", "--phi", "2.35", "--tol", "nan"], "--tol"),
    (["verify-omega", "p1", "--kappa", "2", "--m-max", "2", "--table-order", "5",
      "--order", "4"], "--table-order"),
    (["legendre", "p1", "--kappa", "2", "--order", "1/0"], "--order"),
    (["verify-omega", "p1", "--kappa", "2", "--order", "1/0"], "--order"),
    (["tensor-monodromy", "--left", "a2"], "--left"),
    (["monodromy", "p1", "--point", "0,0", "--phi", "nan"], "--phi"),
    (["monodromy", "p1", "--point", "0,0", "--phi", "inf"], "--phi"),
    # a float so coarse that it fixes no angle
    (["monodromy", "p1", "--point", "0,0", "--phi", "1e300"], "--phi"),
    (["monodromy", "p1", "--point", "0,0", "--phi", "8192"], "--phi"),
    # each order option has a largest value
    (["calibrate", "p1", "--order", "33"], "--order"),
    (["legendre", "p1", "--kappa", "2", "--order", "41/2"], "--order"),
    (["legendre", "p1", "--kappa", "2", "--m-max", "9"], "--m-max"),
    (["verify-omega", "p1", "--kappa", "2", "--order", "21"], "--order"),
    (["verify-omega", "p1", "--kappa", "2", "--m-max", "9"], "--m-max"),
    (["recursion", "nd", "--max", "501"], "--max"),
    (["recursion", "a21", "--max", "101"], "--max"),
])
def test_malformed_option_values_exit_2(capsys, argv, flag):
    assert main(argv) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["calibrate", "p1", "--order", "100000"],
    ["recursion", "nd", "--max", "100000"],
    ["legendre", "p1", "--kappa", "2", "--order", "1e3"],
])
def test_orders_past_their_bound_exit_2_at_once(capsys, argv):
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "must be at most" in capsys.readouterr().err


@pytest.mark.parametrize("argv, variable", [
    (["legendre", "ccc_a111", "--kappa", "2", "--order", "4", "--center", "1/10,1e-3,300"], "v3"),
    (["verify-omega", "p1xp1", "--kappa", "2", "--order", "5", "--m-max", "3",
      "--table-order", "1", "--center", "5,1/2,300,-1"], "v3"),
    (["legendre", "p1", "--kappa", "2", "--order", "4", "--center",
      "0,99999999999999999999999/7"], "v2"),
])
def test_a_float_overflow_at_the_center_exits_4(capsys, argv, variable):
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "SingularCenterError" in err and f"at center {variable}=" in err


def test_tensor_monodromy_command(capsys):
    code, out = run(capsys, "tensor-monodromy")
    assert code == 0
    rep = json.loads(out)
    assert rep["mu"] == ["-1", "0", "0", "1"]
    assert rep["S"] == [["1", "2", "2", "4"], ["0", "1", "0", "2"],
                        ["0", "0", "1", "2"], ["0", "0", "0", "1"]]


def test_tensor_monodromy_compares_with_the_product_spec(capsys, monkeypatch):
    # the Kronecker mu and R_1 of two p1 factors are p1xp1's own; change one R_1
    # entry of an in-memory p1xp1 and the check fails there
    import dataclasses
    import frobwdvv.specs as specs
    load = specs.load_spec
    p1xp1 = load("p1xp1")
    r1 = [list(row) for row in p1xp1.rmats[1]]
    r1[3][1] += 1
    bad = dataclasses.replace(p1xp1, rmats={1: tuple(map(tuple, r1))})
    monkeypatch.setattr(specs, "load_spec", lambda name, *a: bad if name == "p1xp1"
                        else load(name, *a))
    code, out = run(capsys, "tensor-monodromy")
    assert code == 1
    check, = json.loads(out)["checks"]
    assert check["product"] == "p1xp1" and check["failures"] == ["R1[4,2]: 2 vs 3"]


def test_genus1_command(capsys):
    code, out = run(capsys, "genus1-check", "a2")
    assert code == 0


def test_genus1_unrepresentable_constant_exits_4(capsys):
    # (c m (m - 1))^(-1/(m - 2)) = (35/4)^(-2/3) has no exact value
    code = main(["genus1-check", "twodim", "--param", "m=7/2", "--param", "c=1"])
    assert code == 4
    err = capsys.readouterr().err
    assert "NeedsFloatError" in err and "m = 7/2, c = 1" in err


def test_output_file_atomic(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["recursion", "nd", "--max", "3", "--output", str(target)])
    assert code == 0
    rep = json.loads(target.read_text())
    assert rep["table"][2] == ["3", "12"]
    assert not list(tmp_path.glob(".frobwdvv-*"))


def test_bad_spec_path_errors(capsys):
    # an unknown spec is a usage error
    code = main(["wdvv-check", "no_such_spec"])
    assert code == 2


def test_inadmissible_line_nonzero_exit(capsys):
    code = main(["monodromy", "p1", "--point", "0,0", "--phi", str(math.pi / 2)])
    assert code == 4


def test_domain_error_exit_code(capsys):
    # u = (-2, 2) at (0,3): the line at angle pi/2 is not admissible, so the
    # run raises MatchingError before any integration
    code = main(["monodromy", "a2", "--point", "0,3", "--phi", "1.5707963267948966"])
    assert code == 4
    assert "MatchingError" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # one column of the left sector has no recessive ray at this angle
    (["p2", "--point", "0,0,0", "--phi", "0.3"],
     "MatchingError: no recessive angle for column 0 in (0.32, 3.421592653589793)"),
    # the seed radius follows the largest canonical gap, the series the least
    (["p1xp1", "--point", "0,1,-1,0", "--phi", "0.3"],
     "MatchingError: seed truncation too large at z_far = 5.32"),
], ids=["p2", "p1xp1"])
def test_monodromy_fails_before_integrating(capsys, argv, message):
    code = main(["monodromy", *argv])
    assert code == 4
    assert message in capsys.readouterr().err


def test_singular_jacobian_exits_4_without_numpy_or_scipy():
    # the exit code is classified without importing monodromy (numpy, scipy)
    code = """
import sys
from frobwdvv.cli import main
code = main(["legendre", "ccc_a111", "--kappa", "2", "--order", "4", "--m-max", "2"])
print(code, sorted(m for m in ("numpy", "scipy") if m in sys.modules))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.stdout.strip() == "4 []", proc.stderr[-2000:]
    assert "SingularJacobianError" in proc.stderr


def test_unknown_spec_exit_code(capsys):
    code = main(["monodromy", "nosuchspec", "--point", "0,0", "--phi", "1"])
    assert code == 2
    assert "SpecParseError" in capsys.readouterr().err


@pytest.mark.parametrize("change, field", [
    pytest.param(None, "malformed spec", id="truncated-json"),
    pytest.param({"unity_index": 5}, "unity_index", id="unity-index-5"),
    pytest.param({"mu": ["-1/2"]}, "mu", id="one-entry-mu"),
    pytest.param({"mu": ["-1/2", "1/2", "0"]}, "mu", id="three-entry-mu"),
    pytest.param({"euler": {"linear": ["1", "0"], "shifts": ["0"]}}, "euler.shifts",
                 id="one-entry-shifts"),
    pytest.param({"euler": {"linear": ["1"], "shifts": ["0", "2"]}}, "euler.linear",
                 id="one-entry-linear"),
    pytest.param({"R": [{"s": 1, "entries": [[3, 1, "2"]]}]}, "R_1", id="r-entry-row-3"),
    pytest.param({"variables": "v1"}, "variables", id="variables-string"),
])
def test_malformed_spec_file_exit_code(tmp_path, capsys, change, field):
    # each a copy of the bundled p1 spec with one field changed
    bad = tmp_path / "bad.json"
    if change is None:
        bad.write_text('{"name": "x"')
    else:
        obj = json.loads(resources.files("frobwdvv").joinpath("specs/p1.json").read_text())
        bad.write_text(json.dumps({**obj, **change}))
    assert main(["wdvv-check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "SpecParseError" in err and field in err


def _p1_with_r1_entry(tmp_path, shifts):
    # the bundled p1 spec with (R_1)^2_1 = 3 (p1's is 2) and the given Euler shifts
    obj = json.loads(resources.files("frobwdvv").joinpath("specs/p1.json").read_text())
    obj["R"] = [{"s": 1, "entries": [[2, 1, "3"]]}]
    obj["euler"] = {**obj["euler"], "shifts": shifts}
    path = tmp_path / "p1r3.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_invalid_spec_exit_code(tmp_path, capsys):
    # the spec parses, but validate_spec rejects it: a usage error, not internal
    assert main(["calibrate", _p1_with_r1_entry(tmp_path, ["0", "2"])]) == 2
    err = capsys.readouterr().err
    assert "SpecValidationError" in err and "Euler shift r^2 must equal (R_1)^2_iota" in err


def test_calibration_obstruction_exit_code(tmp_path, capsys):
    # shifts and R_1 agree, so the spec is valid, but this R does not fit p1's
    # potential: the calibration is obstructed, a domain error
    assert main(["calibrate", _p1_with_r1_entry(tmp_path, ["0", "3"])]) == 4
    err = capsys.readouterr().err
    assert "ObstructionError" in err and "homogeneity obstruction" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    from frobwdvv import solver

    def broken(*args, **kwargs):
        raise KeyError("boom")
    monkeypatch.setattr(solver, "recursion_nd", broken)
    code = main(["recursion", "nd", "--max", "3"])
    assert code == 3


def test_csv_quotes_tuple_indices(capsys):
    code, out = run(capsys, "recursion", "nkl", "--max", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith('"(0, 1)",')


def test_recursion_max_bounds_ckl_and_a21(capsys):
    code, out = run(capsys, "recursion", "ckl", "--max", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["max"] == 4
    keys = [tuple(int(x) for x in k.strip("()").split(",")) for k, _ in rep["table"]]
    assert keys and all(k + l <= 4 for k, l in keys)
    assert ["(1, 1)", "1"] in rep["table"] and ["(2, 3)", "2"] not in rep["table"]

    code, out = run(capsys, "recursion", "a21", "--max", "9")
    assert code == 0
    rep = json.loads(out)
    assert rep["max"] == 9
    keys = [tuple(int(x) for x in k.strip("()").split(",")) for k, _ in rep["table"]]
    assert sorted(keys) == [(1, 1), (1, 2), (2, 1), (3, 1), (4, 1), (5, 1)]
    assert ["(5, 1)", "1/120"] in rep["table"]
    assert main(["recursion", "ckl", "--max", "0"]) == 2

    # a bound below the smallest entry (k + l = 2; m1 + 4 m2 = 5) would print an
    # empty table with a passing audit; the error names the least bound that
    # yields an entry
    capsys.readouterr()
    for name, bound, least in (("ckl", 1, 2), ("a21", 1, 5), ("a21", 4, 5)):
        assert main(["recursion", name, "--max", str(bound)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--max must be at least {least}, got {bound}" in captured.err
    code, out = run(capsys, "recursion", "a21", "--max", "5")
    assert code == 0 and json.loads(out)["table"] == [["(1, 1)", "1"]]
