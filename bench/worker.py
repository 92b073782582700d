"""One round of one workload in a fresh interpreter.

Started by run.py with the checkout's src/ on PYTHONPATH.  Imports the
modules the workload needs, optionally installs the tracer, loads and builds
every spec, prints READY (the parent times set-up up to that line), then runs
each operation once, timing each.  The last stdout line is a JSON record of
the operations' outputs, their times, peak RSS and, when traced, the
per-layer values.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import refkernel
import workloads as W

REF_EVERY_S = 0.3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    inp = W.inputs(args.workload, args.seed)
    mods = W.import_modules(args.workload)
    tracer = None
    if args.trace:
        import tracer as T
        tracer = T.Tracer()
        T.install(tracer)
    ctx = W.setup(args.workload, inp, mods)
    print("READY", flush=True)
    # the reference kernel right after set-up, then after every operation
    # that takes long enough for the machine's speed to change under it
    ref = refkernel.kernel_seconds()
    if args.setup_only:
        print(json.dumps({"setup_ref_s": ref}))
        return 0
    results = []
    for op in W.operations(args.workload, inp):
        error = None
        t0 = time.perf_counter()
        try:
            raw = op.run(ctx)
        except Exception as exc:  # every failure is counted and reported by the parent
            raw, error = None, [type(exc).__name__, str(exc)]
        seconds = time.perf_counter() - t0
        before = ref
        if seconds >= REF_EVERY_S:
            ref = refkernel.kernel_seconds()
        results.append({"name": op.name, "seconds": seconds, "error": error,
                        "ref_s": [before, ref],
                        "output": None if error else op.export(raw)})
        del raw
    if results[-1]["seconds"] < REF_EVERY_S:
        results[-1]["ref_s"][1] = refkernel.kernel_seconds()

    record = {"wall_s": sum(r["seconds"] for r in results),
              "setup_ref_s": results[0]["ref_s"][0],
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "ops": results}
    if tracer is not None:
        import tracer as T
        record["layers"] = T.layer_values(tracer)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"spans": tracer.records,
                           "aggregate": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                                         for k, v in sorted(tracer.agg.items())},
                           "counts": tracer.counts}, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
