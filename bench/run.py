"""frobwdvv benchmark: one command for the paper's four pipelines.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each round of a workload runs in a fresh
interpreter (bench/worker.py) that executes every operation once; rounds
repeat until `--seconds` would be exceeded.  Every round's outputs are
checked here, in the parent, against bench/references.py.

With --trace 0 the result holds the end-to-end metrics (medians over rounds,
with times scaled to the reference kernel's speed: see refkernel.py);
with --trace 1 it holds the per-layer metrics of traced rounds, which
alternate with untraced ones so that the tracing overhead can be reported.
The last stdout line is the result; the line before it records the
environment, per-round figures and any operation that failed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks as C  # noqa: E402
import refkernel  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

RUN_LIMIT_S = 170.0
MIN_ROUNDS = 2
# set-up alone is cheap: a few extra fresh interpreters per run steady its median
SETUP_SAMPLES = 5


def versions() -> dict:
    out = {"python": platform.python_version()}
    for mod in ("numpy", "scipy", "sympy"):
        try:
            out[mod] = __import__(mod).__version__
        except ImportError:
            out[mod] = None
    out["nproc"] = os.cpu_count()
    out["cpu"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    out["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FROBWDVV_THREADS", None)           # the program's default
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"                  # identical traced counts
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def one_round(workload: str, seed: int, trace: bool, trace_out: str | None,
              deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=str(ROOT), text=True)
    try:
        first = proc.stdout.readline()
        t_ready = time.perf_counter()
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload}: a round overran the run's time limit")
    if first.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker failed (exit {proc.returncode}):\n"
                           f"{first}{out[-2000:]}{err[-4000:]}")
    rec = json.loads(out.strip().splitlines()[-1])
    rec["setup_s"] = t_ready - t0
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "frobwdvv" / "__init__.py").is_file():
        print(f"bench: no program sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    # the build: byte-compile the package, as an install would
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("bench: byte-compiling src/ failed", file=sys.stderr)
        return 2

    inp = W.inputs(args.workload, args.seed)
    ops = W.operations(args.workload, inp)
    t_prep = time.perf_counter()
    checker = C.Checker(args.workload, inp, SRC)
    prep_s = time.perf_counter() - t_prep
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    rounds, traced = [], []
    t_measure = time.perf_counter()
    setups = [] if args.trace else [
        one_round(args.workload, args.seed, False, None, deadline, setup_only=True)
        for _ in range(SETUP_SAMPLES)]
    while True:
        trace_this = bool(args.trace) and len(rounds) % 2 == 0
        trace_out = None
        if trace_this and not traced:
            trace_out = str(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        rec = one_round(args.workload, args.seed, trace_this, trace_out, deadline)
        rec["traced"] = trace_this
        rec["check"] = checker.check(ops, rec["ops"])
        rounds.append(rec)
        if trace_this:
            traced.append(rec)
        elapsed = time.perf_counter() - t_measure
        per_round = (elapsed - sum(s["setup_s"] for s in setups)) / len(rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + per_round > args.seconds:
            break
        if time.perf_counter() + 2 * per_round > deadline:
            break

    plain = [r for r in rounds if not r["traced"]]
    setups += plain
    correct = all(r["check"]["correct"] for r in rounds)
    attempted = sum(r["check"]["attempted"] for r in rounds)
    failed = sum(r["check"]["failed"] for r in rounds)

    if args.trace:
        layer_runs = [r["layers"] for r in traced]
        metrics = {}
        for name, (kind, _) in T.LAYER_METRICS.items():
            vals = [lr[name] for lr in layer_runs]
            if kind == "self":
                metrics[name] = {"value": statistics.median(vals), "unit": "s"}
            else:
                metrics[name] = {"value": vals[0], "unit": "count"}
        metrics["exact.max_bits"] = {"value": max(r["check"]["max_bits"] for r in rounds),
                                     "unit": "bits"}
        counts_repeat = all(
            lr[n] == layer_runs[0][n] for lr in layer_runs
            for n, (kind, _) in T.LAYER_METRICS.items() if kind != "self")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(
                s["setup_s"] * refkernel.REFERENCE_S / s["setup_ref_s"] for s in setups),
                "unit": "s"},
            "wall_s": {"value": statistics.median(corrected_wall(r) for r in plain),
                       "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(r["peak_rss_mib"] for r in plain),
                             "unit": "MiB"},
            "numeric_digits": {"value": statistics.median(
                C.digits(r["check"]["num_err"]) for r in plain), "unit": "digits"},
        }

    info = {
        "workload": args.workload, "seed": args.seed, "inputs_digest": _digest(inp),
        "environment": versions(), "references_prep_s": round(prep_s, 3),
        "rounds": len(rounds),
        "round_wall_s": [round(r["wall_s"], 4) for r in rounds],
        "round_setup_s": [round(r["setup_s"], 4) for r in rounds],
        "traced": [r["traced"] for r in rounds],
        "op_seconds": {o["name"]: round(statistics.median(
            r["ops"][i]["seconds"] for r in plain or rounds), 4)
            for i, o in enumerate(rounds[0]["ops"])},
        "known_faults": sorted({f for r in rounds for f in r["check"]["faults"]}),
        "notes": sorted({n for r in rounds for n in r["check"]["notes"]}),
    }
    if plain:
        info["raw_setup_s"] = statistics.median(s["setup_s"] for s in setups)
        info["raw_wall_s"] = statistics.median(r["wall_s"] for r in plain)
        info["reference_kernel_s"] = statistics.median(
            x for r in plain for o in r["ops"] for x in o["ref_s"])
    if args.trace:
        info["trace_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                    - statistics.median(r["wall_s"] for r in plain))
        info["layer_counts_repeat"] = counts_repeat
        info["trace_file"] = str(Path(".bench_out") / f"trace-{args.workload}-seed{args.seed}.json")
    with open(out_dir / f"rounds-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump([{k: r[k] for k in ("setup_s", "wall_s", "traced", "ops") if k in r}
                   for r in rounds], fh)
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def corrected_wall(rnd: dict) -> float:
    """A round's wall time at the reference machine speed: each operation's
    time scaled by REFERENCE_S over the mean of the reference-kernel times
    measured right before and right after it (see refkernel.py)."""
    return sum(op["seconds"] * refkernel.REFERENCE_S / statistics.mean(op["ref_s"])
               for op in rnd["ops"])


def _digest(inp: dict) -> str:
    return hashlib.sha256(json.dumps(inp, sort_keys=True).encode()).hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
