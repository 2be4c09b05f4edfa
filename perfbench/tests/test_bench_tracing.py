"""The traced run: wrappers reach every namespace and the span tree is well formed."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qlift
import qlift.cli
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    replaced = tracing.install(t)
    yield t
    tracing.uninstall(replaced)


def test_install_wraps_every_namespace_and_uninstall_restores():
    originals = (qlift.dynamics.integrate_deterministic, qlift.stochastic.project_physical,
                 qlift.traces.PopulationTrace.__init__)
    t = tracing.Tracer()
    replaced = tracing.install(t)
    try:
        wrapped = qlift.dynamics.integrate_deterministic
        assert wrapped is not originals[0]
        assert qlift.cli.integrate_deterministic is wrapped
        assert qlift.integrate_deterministic is wrapped
        assert qlift.stochastic.project_physical is qlift.operators.project_physical
        assert qlift.stochastic.project_physical is not originals[1]
        assert qlift.traces.PopulationTrace.__init__ is not originals[2]
    finally:
        tracing.uninstall(replaced)
    assert (qlift.dynamics.integrate_deterministic, qlift.stochastic.project_physical,
            qlift.traces.PopulationTrace.__init__) == originals
    assert qlift.cli.integrate_deterministic is originals[0]


def test_calls_outside_an_operation_are_not_recorded(tracer):
    qlift.rates.gamma_wm(0.02, 1.0, 0.01)
    assert len(tracer) == 0
    with tracer.operation(1):
        qlift.rates.gamma_wm(0.02, 1.0, 0.01)
    assert tracer.names == ["bench.op", "rates.gamma_wm"]


def traced_passes(tracer, tmp_path):
    """Small passes of three workloads under one tracer; returns the recorder."""
    rec = workloads.Recorder(tracer)
    for i, (cls, kwargs) in enumerate([
            (workloads.GainSweep, {"etas": (1.0,)}),
            (workloads.Ensemble, {"n_trajectories": 50, "t_final": 2.0}),
            (workloads.RecordTrain, {"n_records": 2, "t_final": 20.0})]):
        workdir = tmp_path / cls.name
        workdir.mkdir()
        with tracer.operation(0, "bench.setup"):
            work = cls(i, str(workdir), **kwargs)
        work.run_pass(0, rec)
    return rec


def test_span_tree_is_well_formed(tracer, tmp_path):
    rec = traced_passes(tracer, tmp_path)
    assert all(rec.ok), rec.messages
    n = len(tracer)
    dur, own = tracing.self_times(tracer)
    root_ops = []
    for i in range(n):
        assert tracer.starts[i] <= tracer.ends[i]
        assert -1e-9 <= own[i] <= dur[i]
        p = tracer.parents[i]
        if p < 0:
            assert tracer.names[i] in ("bench.op", "bench.setup")
            root_ops.append(tracer.ops[i])
            continue
        assert p < i
        assert tracer.starts[p] <= tracer.starts[i] and tracer.ends[i] <= tracer.ends[p]
        assert tracer.ops[i] == tracer.ops[p]
    # one operation id per operation: ids 1..N each own exactly one root span
    assert sorted(op for op in root_ops if op != 0) == list(range(1, len(rec.durations) + 1))
    assert root_ops.count(0) == 3


def test_layer_metrics_count_the_calls(tracer, tmp_path):
    work = tmp_path / "g"
    work.mkdir()
    with tracer.operation(0, "bench.setup"):
        sweep = workloads.GainSweep(1, str(work), etas=(0.5, 1.0))
    rec = workloads.Recorder(tracer)
    sweep.run_pass(0, rec)
    sweep.run_pass(1, rec)
    m = tracing.layer_metrics(tracer, n_passes=2)
    assert m["dynamics.integrate.calls"] == 42
    assert m["dynamics.integrate.steps"] == 42 * 1000
    assert m["dynamics.liouvillian.calls"] == 42
    assert m["dynamics.generator.calls"] == 42 * 4
    assert m["fitting.fit.calls"] == 42
    assert m["traces.population_trace.calls"] == 42
    assert m["fitting.points_used"] > 0
    assert m["dynamics.integrate.us_per_step.dim2"] > 0
    assert m["dynamics.integrate.us_per_step.dim4"] == 0
    assert m["config.load_config.self_s"] > 0
    assert 0.9 < m["trace.attributed_frac"] <= 1.0


def test_layer_metrics_and_run_extras_are_the_declared_per_layer_set(tracer):
    added = {"trace.overhead_s", "setup.import_s"} | set(run.op_stats([1.0], [True]))
    assert set(tracing.layer_metrics(tracer, 1)) | added == set(run.PER_LAYER)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tail_latency_needs_ten_samples_beyond():
    assert run.tail_latency(range(19)) is None
    assert run.tail_latency(range(20)) == (50.0, 9)
    assert run.tail_latency(range(100)) == (90.0, 89)
    assert run.tail_latency(range(1000)) == (99.0, 989)
    stats = run.op_stats([0.1] * 19, [True] * 19)
    assert stats["op.p50_ms"] == 0.0 and stats["op.samples"] == 19
    stats = run.op_stats([float(x) for x in range(30)], [True] * 29 + [False])
    assert stats["op.tail_pct"] == 50.0 and stats["op.tail_ms"] == stats["op.p50_ms"]
    assert stats["op.fail_frac"] == 1 / 30


def test_runner_fails_without_qlift_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ensemble",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
