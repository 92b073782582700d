"""The benchmark's tracer wraps `Exact`, `ClosedForm`, `TruncSeries` and module
entry points by name; a traced round fails if the program drops one."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    mod = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("workload, layer", [
    pytest.param("coefficient-recursions", "exact.calls", id="coefficient-recursions"),
    pytest.param("legendre-series", "legendre.transform_s", id="legendre-series"),
    pytest.param("monodromy-sweep", "monodromy.rhs_evals", id="monodromy-sweep"),
    pytest.param("structure-checks", "calibration.solve_s", id="structure-checks"),
])
def test_traced_round_runs_clean(workload, layer):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload",
         workload, "--seed", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    W = _workloads()
    expected = {op.name: op.expect_error for op in W.operations(workload, W.inputs(workload, 1))
                if op.expect_error}
    assert {op["name"]: op["error"][0] for op in record["ops"] if op["error"]} == expected
    # the wrapped entry point was found by name and did the work
    assert record["layers"][layer] > 0
