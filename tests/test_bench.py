"""The benchmark's tracer wraps `Exact`, `ClosedForm`, `TruncSeries` and module
entry points by name; a traced round fails if the program drops one."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_round_runs_clean():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload",
         "coefficient-recursions", "--seed", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [op["name"] for op in record["ops"] if op["error"]] == []
    assert record["layers"]["exact.calls"] > 0
