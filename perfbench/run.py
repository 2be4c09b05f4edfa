"""qlift benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compare --seed 1 --seconds 25 --trace 0

--workload is one of compare, gain_sweep, ensemble, record_train, or all.
With --trace 0 the last line of output is a JSON object carrying every
end-to-end metric; with --trace 1 it carries every per-layer metric, taken
from passes with each traced qlift function wrapped (see tracing.py),
which alternate with untraced passes in one process.  Lines before it give
provenance, each metric by name with its unit, and the criterion-5 numbers
of the compare workload.

Each workload runs in child processes (child.py) so that set-up time and peak
RSS are those of a fresh process: several children only set up, one
measures.  The exit code is 0 whenever a result is printed, including one
whose checks failed ("correct": false); it is non-zero, with no result, when
qlift's sources are missing or a child process fails.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("compare", "gain_sweep", "ensemble", "record_train")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics of the traced run, with units.  Counts and times are per
# pass, one solution of the workload (see tracing.layer_metrics).
PER_LAYER = {
    "dynamics.integrate.calls": "count",
    "dynamics.integrate.self_s": "s",
    "dynamics.integrate.steps": "count",
    "dynamics.integrate.us_per_step.dim2": "us",
    "dynamics.integrate.us_per_step.dim4": "us",
    "dynamics.liouvillian.calls": "count",
    "dynamics.liouvillian.self_s": "s",
    "dynamics.generator.calls": "count",
    "dynamics.generator.self_s": "s",
    "dynamics.integration_errors": "count",
    "stochastic.ensemble.calls": "count",
    "stochastic.ensemble.self_s": "s",
    "stochastic.ensemble.traj_steps": "count",
    "stochastic.ensemble.ns_per_traj_step": "ns",
    "stochastic.ensemble.us_per_step": "us",
    "stochastic.ensemble.rss_growth_mb": "MB",
    "stochastic.repair_frac": "ratio",
    "operators.project_physical.calls": "count",
    "operators.project_physical.self_s": "s",
    "fitting.fit.calls": "count",
    "fitting.fit.self_s": "s",
    "fitting.points_used": "count",
    "fitting.fit_errors": "count",
    "traces.population_trace.calls": "count",
    "traces.population_trace.self_s": "s",
    "predictor.train.calls": "count",
    "predictor.train.self_s": "s",
    "predictor.epochs": "count",
    "predictor.epoch_ms": "ms",
    "predictor.gradients.calls": "count",
    "predictor.build_dataset.self_s": "s",
    "predictor.save_model.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.exit_nonzero": "count",
    "cli.bytes_written": "B",
    "config.load_config.self_s": "s",
    "rates.self_s": "s",
    "trace.spans": "count",
    "trace.attributed_frac": "ratio",
    "trace.overhead_s": "s",
    "op.p50_ms": "ms",
    "op.tail_ms": "ms",
    "op.tail_pct": "%",
    "op.samples": "count",
    "op.fail_frac": "ratio",
    "setup.import_s": "s",
}
# Set-up is sampled in this many set-up-only children plus the measuring one.
SETUP_CHILDREN = 6
# Everything for one workload ends within this many seconds.
RUN_LIMIT_S = 170.0
# Op latency percentiles are reported only from this many operations up.
MIN_OPS_FOR_LATENCY = 20
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"


class BenchError(RuntimeError):
    """A child process failed; no result can be reported."""


def percentile(xs, pct):
    """Nearest-rank percentile of sorted xs."""
    return xs[max(1, math.ceil(pct / 100.0 * len(xs))) - 1]


def tail_latency(samples, min_beyond=10):
    """Highest percentile in TAIL_PERCENTILES with >= min_beyond samples above it.

    Returns (percentile, value) by the nearest-rank rule, or None.
    """
    xs = sorted(samples)
    for pct in TAIL_PERCENTILES:
        if len(xs) - math.ceil(pct / 100.0 * len(xs)) >= min_beyond:
            return pct, percentile(xs, pct)
    return None


def op_stats(durations, ok):
    """Untraced per-operation latency, reported from MIN_OPS_FOR_LATENCY ops up."""
    n = len(durations)
    stats = {"op.p50_ms": 0.0, "op.tail_ms": 0.0, "op.tail_pct": 0.0, "op.samples": n,
             "op.fail_frac": (len(ok) - sum(ok)) / len(ok)}
    tail = tail_latency(durations) if n >= MIN_OPS_FOR_LATENCY else None
    if tail is not None:
        stats.update({"op.p50_ms": 1e3 * percentile(sorted(durations), 50.0),
                      "op.tail_ms": 1e3 * tail[1], "op.tail_pct": tail[0]})
    return stats


def solution_time(passes):
    """Time to one solution: each operation of a pass at its median over the
    run's passes, summed.  Medians of many short operations keep a burst of
    host load from moving the figure."""
    width = max(len(p) for p in passes)
    return sum(statistics.median([p[j] for p in passes if len(p) > j])
               for j in range(width))


def run_child(workload, seed, mode, budget, workdir, deadline):
    """Run child.py once; returns its result.json as a dict."""
    workdir.mkdir(parents=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} child")
    t0 = time.monotonic()
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--budget", repr(budget),
           "--workdir", str(workdir), "--src", str(ROOT / "src"), "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} child exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: {mode} child exited with code {proc.returncode}")
    with open(workdir / "result.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=20)
    try:
        sha = git("rev-parse", "HEAD")
        if sha.returncode != 0:
            return None, None
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed, child):
    sha, dirty = git_state()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": child["numpy"],
            "blas": child["blas"],
            "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "git_sha": sha, "git_dirty": dirty, "seed": seed}


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns (result dict, provenance, report lines)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    rundir = RUNS_DIR / workload
    shutil.rmtree(rundir, ignore_errors=True)
    if not trace:
        setups = [run_child(workload, seed, "setup", 0.0, rundir / f"setup{i}", deadline)
                  for i in range(SETUP_CHILDREN)]
        main = run_child(workload, seed, "measure", seconds, rundir / "measure", deadline)
        metrics = {
            "wall_s": solution_time(main["passes"]),
            "setup_s": statistics.median([c["setup_s"] for c in setups + [main]]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        units = END_TO_END
    else:
        main = run_child(workload, seed, "trace", seconds, rundir / "traced", deadline)
        layers = dict(main["layers"])
        layers["trace.overhead_s"] = (solution_time(main["traced_passes"])
                                      - solution_time(main["passes"]))
        layers.update(op_stats([d for p in main["passes"] for d in p], main["op_ok"]))
        layers["setup.import_s"] = main["import_s"]
        metrics = {name: layers[name] for name in PER_LAYER}
        units = PER_LAYER
    attempted = len(main["op_ok"])
    failed = attempted - sum(main["op_ok"])
    n_passes = len(main["passes"]) + len(main.get("traced_passes", []))
    lines = [f"{workload}: {n_passes} passes, {attempted} operations, "
             f"sizes {json.dumps(main['sizes'])}"]
    report = main["report"]
    if report:
        lines.append(
            f"{workload}: ancilla T1 fit {report['ancilla_t1_fit_us']:.2f} us beside the "
            f"paper's closed form (1+C)/gamma {report['ancilla_t1_closed_form_us']:.2f} us "
            f"and the one-excitation oracle {report['ancilla_t1_oracle_us']:.2f} us "
            f"(criterion-5 gap: reported, not scored)")
    lines += [f"{workload}: FAILED {msg.strip()}" for msg in main["failures"]]
    for name, value in metrics.items():
        lines.append(f"{workload}.{name} = {value:.6g} {units[name]}")
    lines.append(f"{workload}.fail_frac = {failed / attempted:.6g} ({failed} of {attempted} "
                 f"operations)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    prov = provenance(seed, main)
    prov["sizes"] = main["sizes"]
    return result, prov, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qlift" / "__init__.py").is_file():
        print(f"qlift sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, prov, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print(f"{name}: provenance {json.dumps(prov)}")
        print("\n".join(lines), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
