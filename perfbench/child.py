"""Runs one workload in a fresh process and writes its measurements as JSON.

Started by run.py, never by hand.  Modes:

* ``setup``   set up the workload and exit, reporting only the set-up time;
* ``measure`` set up, then run passes until the budget is spent;
* ``trace``   the same, with every other pass traced (tracing.py); the
  spans are written to spans.json beside the result.

Set-up time runs from --t0, the parent's monotonic clock just before it
started this process, to the first timed operation.
"""

import argparse
import json
import os
import resource
import sys
import time

def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import numpy as np
    import qlift

    if not os.path.abspath(qlift.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.exit(f"qlift imported from {qlift.__file__}, not from {args.src}")
    import tracing
    import workloads

    import_s = time.monotonic() - args.t0
    cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.mode == "trace" else None
    if tracer is not None:
        replaced = tracing.install(tracer)
        try:
            with tracer.operation(0, "bench.setup"):
                workload = cls(args.seed, args.workdir)
        finally:
            tracing.uninstall(replaced)
    else:
        workload = cls(args.seed, args.workdir)
    setup_s = time.monotonic() - args.t0

    result = {"setup_s": setup_s, "import_s": import_s}
    if args.mode != "setup":
        # In trace mode, traced and untraced passes alternate, so the tracing
        # overhead is measured under the same host load, and each traced pass
        # shares its inputs with the untraced pass after it.  The first pass
        # is traced: ru_maxrss is a high-water mark, so only the first pass
        # can show how far the workload raises it.
        plain, traced = workloads.Recorder(), workloads.Recorder(tracer)
        passes = {"passes": [], "traced_passes": []}
        start = time.perf_counter()
        k = 0
        while True:
            with_trace = tracer is not None and k % 2 == 0
            rec = traced if with_trace else plain
            first_op = len(rec.durations)
            replaced = tracing.install(tracer) if with_trace else []
            try:
                workload.run_pass(k // 2 if tracer is not None else k, rec)
            finally:
                tracing.uninstall(replaced)
            last = rec.durations[first_op:]
            passes["traced_passes" if with_trace else "passes"].append(last)
            k += 1
            elapsed = time.perf_counter() - start
            # start another pass only if it is expected to end near the budget
            if elapsed + 0.5 * sum(last) >= args.budget and k >= (2 if tracer else 1):
                break
        result.update(passes)
        result.update({
            "op_ok": plain.ok + traced.ok,
            "failures": (plain.messages + traced.messages)[:20],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sizes": workload.sizes,
            "report": workload.report,
            "numpy": np.__version__,
            "blas": _blas_info(np),
        })
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, len(passes["traced_passes"]))
            tracer.dump(os.path.join(args.workdir, "spans.json"))
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


if __name__ == "__main__":
    main()
