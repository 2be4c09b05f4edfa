"""Span tracing of qlift's layers from outside the package.

`install` replaces each traced public function with a wrapper that records a
span, in every qlift module namespace that holds the function (so
`integrate_deterministic` is wrapped in both `qlift.dynamics` and
`qlift.cli`).  A span has a name, start, end, parent span and operation id;
spans are recorded only inside `Tracer.operation`, kept in memory, and
written out when the run ends.  `layer_metrics` turns them into the
per-layer numbers, where a span's self time is its duration minus the time
its child spans cover.
"""

import functools
import json
import math
import os
import resource
import sys
import time
from array import array
from contextlib import contextmanager

class Tracer:
    """In-memory span store.  Span i is row i of the parallel arrays."""

    def __init__(self):
        self.names = []
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.attrs = {}
        self.errors = {}
        self.op_id = None
        self._stack = []

    def __len__(self):
        return len(self.names)

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op_id, name="bench.op"):
        """Record spans under operation `op_id` (0 is set-up) for the block."""
        self.op_id = op_id
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)
            self.op_id = None

    def dump(self, path):
        rows = [[i, self.parents[i], self.ops[i], self.names[i], self.starts[i],
                 self.ends[i], self.attrs.get(i), self.errors.get(i)]
                for i in range(len(self))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "parent", "op", "name", "start", "end",
                                   "attrs", "error"], "spans": rows}, fh)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _integrate_attrs(args, kwargs, result, pre):
    spec, config = _arg(args, kwargs, 1, "spec"), _arg(args, kwargs, 2, "config")
    return {"steps": config.n_steps, "dim": spec.dim}


def _ensemble_before(args, kwargs):
    return _maxrss_kb()


def _ensemble_attrs(args, kwargs, result, rss_before):
    config = _arg(args, kwargs, 1, "config")
    return {"steps": config.n_steps,
            "traj_steps": config.n_steps * int(config.n_trajectories),
            "rss_growth_kb": _maxrss_kb() - rss_before}


def _fit_attrs(args, kwargs, result, pre):
    return {"points": result.n_points_used}


def _train_attrs(args, kwargs, result, pre):
    return {"epochs": result.metadata["epochs_run"]}


def _out_dir(argv):
    argv = list(argv)
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _snapshot(directory):
    if directory is None or not os.path.isdir(directory):
        return {}
    out = {}
    for entry in os.scandir(directory):
        if entry.is_file():
            st = entry.stat()
            out[entry.path] = (st.st_size, st.st_mtime_ns)
    return out


def _cli_before(args, kwargs):
    return _snapshot(_out_dir(_arg(args, kwargs, 0, "argv")))


def _cli_attrs(args, kwargs, result, before):
    after = _snapshot(_out_dir(_arg(args, kwargs, 0, "argv")))
    written = sum(size for path, (size, mtime) in after.items()
                  if before.get(path) != (size, mtime))
    return {"exit": result, "bytes": written}


# (span name, module, attribute, hook before the call, hook for span attributes)
TRACED = [
    ("dynamics.integrate", "qlift.dynamics", "integrate_deterministic", None, _integrate_attrs),
    ("dynamics.liouvillian", "qlift.dynamics", "liouvillian_matrix", None, None),
    ("dynamics.generator", "qlift.dynamics", "no_feedback_generator", None, None),
    ("dynamics.generator", "qlift.dynamics", "wm_generator", None, None),
    ("dynamics.generator", "qlift.dynamics", "ancilla_decay_generator", None, None),
    ("dynamics.generator", "qlift.dynamics", "ancilla_feedback_generator", None, None),
    ("stochastic.ensemble", "qlift.stochastic", "run_ensemble", _ensemble_before, _ensemble_attrs),
    ("operators.project_physical", "qlift.operators", "project_physical", None, None),
    ("fitting.fit", "qlift.fitting", "fit_exponential", None, _fit_attrs),
    ("fitting.fit", "qlift.fitting", "fit_exponential_offset", None, _fit_attrs),
    ("traces.population_trace", "qlift.traces", "PopulationTrace.__init__", None, None),
    ("predictor.train", "qlift.predictor", "train", None, _train_attrs),
    ("predictor.gradients", "qlift.predictor", "gradients", None, None),
    ("predictor.build_dataset", "qlift.predictor", "build_dataset", None, None),
    ("predictor.save_model", "qlift.predictor", "save_model", None, None),
    ("cli.main", "qlift.cli", "main", _cli_before, _cli_attrs),
    ("config.load_config", "qlift.config", "load_config", None, None),
] + [
    (f"rates.{fn}", "qlift.rates", fn, None, None)
    for fn in ("gamma_wm", "optimal_lambda", "cooperativity", "gamma_ancilla",
               "gamma_ml", "population_curve", "rate_table")
]


def _wrap(tracer, fn, name, before, attrs):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.op_id is None:
            return fn(*args, **kwargs)
        pre = before(args, kwargs) if before else None
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.end(idx)
            tracer.errors[idx] = type(exc).__name__
            raise
        tracer.end(idx)
        if attrs:
            tracer.attrs[idx] = attrs(args, kwargs, result, pre)
        return result
    return traced


def install(tracer):
    """Wrap every function in TRACED; returns the list of replacements made.

    Functions are replaced in every loaded qlift module whose namespace holds
    them; methods are replaced on their class.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "qlift" or n.startswith("qlift."))]
    replaced = []
    for name, module_name, attr, before, attrs in TRACED:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            replaced.append((cls, meth, original))
            setattr(cls, meth, _wrap(tracer, original, name, before, attrs))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, original, name, before, attrs)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    replaced.append((module, key, original))
                    setattr(module, key, wrapper)
    return replaced


def uninstall(replaced):
    for owner, key, original in reversed(replaced):
        setattr(owner, key, original)


def self_times(tracer):
    """Per-span (duration, self time) lists."""
    n = len(tracer)
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        p = tracer.parents[i]
        if p >= 0:
            covered[p] += dur[i]
    return dur, [d - c for d, c in zip(dur, covered)]


def layer_metrics(tracer, n_passes):
    """Per-layer metrics from the spans of `n_passes` measured passes.

    Counts and times are per pass (one solution of the workload), except
    config.load_config.self_s, which is the set-up phase's (operation 0).
    Ratios are taken over all passes.
    """
    dur, own = self_times(tracer)
    calls, self_s, total_s = {}, {}, {}
    sums = {}
    setup_load = 0.0
    op_total = attributed = 0.0
    op_spans = 0
    errors = {}
    rss_growth_kb = 0
    repairs = 0
    dim_self = {2: 0.0, 4: 0.0}
    dim_steps = {2: 0, 4: 0}
    for i, name in enumerate(tracer.names):
        op = tracer.ops[i]
        if op == 0:
            if name == "config.load_config":
                setup_load += own[i]
            continue
        op_spans += 1
        if name == "bench.op":
            op_total += dur[i]
            continue
        attributed += own[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        total_s[name] = total_s.get(name, 0.0) + dur[i]
        if i in tracer.errors:
            errors[name] = errors.get(name, 0) + 1
        attrs = tracer.attrs.get(i) or {}
        for key, value in attrs.items():
            if key not in ("dim", "rss_growth_kb", "exit"):
                sums[(name, key)] = sums.get((name, key), 0) + value
        if name == "dynamics.integrate":
            dim_self[attrs["dim"]] += own[i]
            dim_steps[attrs["dim"]] += attrs["steps"]
        elif name == "stochastic.ensemble":
            rss_growth_kb = max(rss_growth_kb, attrs["rss_growth_kb"])
        elif name == "operators.project_physical":
            p = tracer.parents[i]
            repairs += p >= 0 and tracer.names[p] == "stochastic.ensemble"
        elif name == "cli.main" and attrs.get("exit") not in (None, 0):
            errors["cli.exit"] = errors.get("cli.exit", 0) + 1

    def per_pass(value):
        return value / n_passes

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def layer(name):
        return {f"{name}.calls": per_pass(calls.get(name, 0)),
                f"{name}.self_s": per_pass(self_s.get(name, 0.0))}

    def total(name, key):
        return sums.get((name, key), 0)

    traj_steps = total("stochastic.ensemble", "traj_steps")
    m = {}
    m.update(layer("dynamics.integrate"))
    m["dynamics.integrate.steps"] = per_pass(total("dynamics.integrate", "steps"))
    for d in (2, 4):
        m[f"dynamics.integrate.us_per_step.dim{d}"] = ratio(dim_self[d], dim_steps[d], 1e6)
    m.update(layer("dynamics.liouvillian"))
    m.update(layer("dynamics.generator"))
    m["dynamics.integration_errors"] = per_pass(errors.get("dynamics.integrate", 0))
    m.update(layer("stochastic.ensemble"))
    m["stochastic.ensemble.traj_steps"] = per_pass(traj_steps)
    ens_s = total_s.get("stochastic.ensemble", 0.0)
    m["stochastic.ensemble.ns_per_traj_step"] = ratio(ens_s, traj_steps, 1e9)
    m["stochastic.ensemble.us_per_step"] = ratio(ens_s, total("stochastic.ensemble", "steps"), 1e6)
    m["stochastic.ensemble.rss_growth_mb"] = rss_growth_kb / 1024.0
    m["stochastic.repair_frac"] = ratio(repairs, traj_steps)
    m.update(layer("operators.project_physical"))
    m.update(layer("fitting.fit"))
    m["fitting.points_used"] = per_pass(total("fitting.fit", "points"))
    m["fitting.fit_errors"] = per_pass(errors.get("fitting.fit", 0))
    m.update(layer("traces.population_trace"))
    m.update(layer("predictor.train"))
    epochs = total("predictor.train", "epochs")
    m["predictor.epochs"] = per_pass(epochs)
    m["predictor.epoch_ms"] = ratio(total_s.get("predictor.train", 0.0), epochs, 1e3)
    m["predictor.gradients.calls"] = per_pass(calls.get("predictor.gradients", 0))
    m["predictor.build_dataset.self_s"] = per_pass(self_s.get("predictor.build_dataset", 0.0))
    m["predictor.save_model.self_s"] = per_pass(self_s.get("predictor.save_model", 0.0))
    m.update(layer("cli.main"))
    m["cli.exit_nonzero"] = per_pass(errors.get("cli.exit", 0) + errors.get("cli.main", 0))
    m["cli.bytes_written"] = per_pass(total("cli.main", "bytes"))
    m["config.load_config.self_s"] = setup_load
    m["rates.self_s"] = per_pass(sum(v for k, v in self_s.items() if k.startswith("rates.")))
    m["trace.spans"] = per_pass(op_spans)
    m["trace.attributed_frac"] = ratio(attributed, op_total)
    return m
