"""The four benchmark workloads.

Each workload is a closed loop with one client: every operation is a call
into qlift's public API or `qlift.cli.main`, made in-process after the
previous one returned.  Constructing a workload is its set-up: it writes a
config file generated from the seed, parses it with `qlift.load_config`, and
builds the inputs.  `run_pass` then solves the workload once, timing each
operation through the Recorder and checking each output outside the timing.

qlift functions are looked up on their modules at call time, so the traced
run's wrappers see every call.
"""

import contextlib
import csv
import io
import os
import time
import traceback

import numpy as np

import qlift
import qlift.cli

import checks

GAMMA = 0.02


class Recorder:
    """Times operations and records which ones failed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.durations = []
        self.ok = []
        self.messages = []

    def op(self, fn, *args):
        """Run one operation; returns (index, result), result None on error."""
        idx = len(self.durations)
        traced = self.tracer is not None
        result, error = None, None
        start = time.perf_counter()
        with self.tracer.operation(idx + 1) if traced else contextlib.nullcontext():
            try:
                result = fn(*args)
            except Exception:
                error = traceback.format_exc(limit=3)
        self.durations.append(time.perf_counter() - start)
        self.ok.append(True)
        if error is not None:
            self.fail(idx, [error])
        return idx, result

    def fail(self, idx, failures):
        if failures:
            self.ok[idx] = False
            self.messages.extend(failures)

    def check(self, idx, checker, *args):
        """Run checker(*args) on operation idx's output; raising counts as failing."""
        try:
            failures = checker(*args)
        except Exception:
            failures = [traceback.format_exc(limit=3)]
        self.fail(idx, failures)


def write_config(path, sections):
    with open(path, "w", encoding="utf-8") as fh:
        for section, values in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value}\n")
    return qlift.load_config(path)


def run_cli(argv):
    """One `qlift` command, in-process, with its console output captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return qlift.cli.main(argv)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def pass_seed(seed, k):
    """Seed of pass k: distinct per pass, fixed by the run's seed."""
    return seed * 1000 + k


class Compare:
    """`qlift compare` at the defaults (kappa/g = 100, C = 1.84), shortened horizon."""

    name = "compare"

    def __init__(self, seed, workdir, t_final=6.0):
        self.out = os.path.join(workdir, "out")
        cfg_path = os.path.join(workdir, "compare.ini")
        cfg = write_config(cfg_path, {"integration": {"t_final": t_final},
                                      "ensemble": {"seed": seed}})
        self.argv = ["compare", "--config", cfg_path, "--out", self.out]
        self.expected = checks.compare_expectations(cfg.gamma, cfg.eta_list, cfg.g, cfg.kappa)
        spec = qlift.SchemeSpec(qlift.SchemeKind.ANCILLA_COHERENT, gamma=cfg.gamma,
                                g=cfg.g, kappa=cfg.kappa)
        self.sizes = {"t_final_us": t_final, "kappa_over_g": cfg.kappa / cfg.g,
                      "ancilla_rk4_steps": int(np.ceil(t_final * spec.fastest_rate / 0.01)),
                      "two_level_schemes": 1 + len(cfg.eta_list)}
        self.report = None

    def run_pass(self, k, rec):
        idx, code = rec.op(run_cli, self.argv)
        if code is not None:
            rec.check(idx, self.check, code)

    def check(self, code):
        rows = {}
        if code == 0:
            for row in read_csv(os.path.join(self.out, "compare.csv")):
                rows[row["scheme"]] = {"gamma_fit": float(row["gamma_fit_per_us"]),
                                       "gamma_model": float(row["gamma_model_per_us"])}
        failures, self.report = checks.check_compare(code, rows, self.expected)
        return failures


class GainSweep:
    """Criterion 3: 21 gains around lambda* for each eta, one integrate + fit per gain."""

    name = "gain_sweep"
    N_GAINS = 21

    def __init__(self, seed, workdir, etas=(0.25, 0.5, 0.75, 1.0)):
        cfg = write_config(os.path.join(workdir, "gain_sweep.ini"), {
            "physics": {"gamma": GAMMA, "eta_list": ", ".join(f"{e:g}" for e in etas)},
            "integration": {"dt": 0.25, "t_final": 250.0, "tau": 0.25},
            "ensemble": {"seed": seed},
        })
        grid = qlift.TrajectoryConfig(dt=cfg.dt, t_final=cfg.t_final, tau=cfg.tau)
        self.groups = []
        for eta in cfg.eta_list:
            lams = checks.optimal_gain(cfg.gamma, eta) * np.linspace(0.5, 1.5, self.N_GAINS)
            specs = [qlift.SchemeSpec(qlift.SchemeKind.WISEMAN_MILBURN, gamma=cfg.gamma,
                                      eta=eta, lambda_gain=float(lam)) for lam in lams]
            models = [checks.gamma_wm(cfg.gamma, eta, float(lam)) for lam in lams]
            self.groups.append((eta, specs, models))
        self.grid = grid
        self.sizes = {"etas": list(cfg.eta_list), "gains_per_eta": self.N_GAINS,
                      "rk4_steps_per_op": grid.n_steps, "dim": 2}
        self.report = None

    @staticmethod
    def solve(spec, grid):
        trace = qlift.dynamics.integrate_deterministic(qlift.dynamics.wm_generator, spec, grid)
        return qlift.fitting.fit_exponential_offset(trace)

    def run_pass(self, k, rec):
        for eta, specs, models in self.groups:
            fitted = []
            for lam_idx, (spec, model) in enumerate(zip(specs, models)):
                idx, fit = rec.op(self.solve, spec, self.grid)
                if fit is None:
                    fitted.append(np.inf)
                    continue
                fitted.append(fit.gamma_eff)
                rec.check(idx, checks.check_rate, fit.gamma_eff, model,
                          f"gain_sweep eta={eta:g} gain #{lam_idx}")
            rec.check(idx, checks.check_argmin, fitted, self.N_GAINS // 2,
                      f"gain_sweep eta={eta:g}")


class Ensemble:
    """Criterion 6 parameters: 2000 trajectories, gamma 0.02, eta 1, dt 0.0025, tau 0.5."""

    name = "ensemble"

    def __init__(self, seed, workdir, n_trajectories=2000, t_final=2.0):
        cfg = write_config(os.path.join(workdir, "ensemble.ini"), {
            "physics": {"gamma": GAMMA, "eta": 1.0},
            "integration": {"dt": 0.0025, "t_final": t_final, "tau": 0.5},
            "ensemble": {"n_trajectories": n_trajectories, "seed": seed},
        })
        self.cfg = cfg
        self.spec = qlift.SchemeSpec(qlift.SchemeKind.NO_FEEDBACK, gamma=cfg.gamma, eta=cfg.eta)
        self.sizes = {"n_trajectories": n_trajectories, "t_final_us": t_final,
                      "steps": self.grid(0).n_steps, "dt_us": cfg.dt, "tau_us": cfg.tau}
        self.report = None

    def grid(self, k):
        cfg = self.cfg
        return qlift.TrajectoryConfig(dt=cfg.dt, t_final=cfg.t_final, tau=cfg.tau,
                                      seed=pass_seed(cfg.seed, k),
                                      n_trajectories=cfg.n_trajectories)

    def run_pass(self, k, rec):
        grid = self.grid(k)
        idx, result = rec.op(qlift.stochastic.run_ensemble, self.spec, grid)
        if result is not None:
            rec.check(idx, checks.check_ensemble, result.times, result.mean_pe,
                      result.sem_pe, self.cfg.gamma)


class RecordTrain:
    """`qlift simulate --records N` over a long horizon, then `qlift train` on each record."""

    name = "record_train"

    def __init__(self, seed, workdir, n_records=4, t_final=1000.0):
        self.out = os.path.join(workdir, "out")
        self.cfg_path = os.path.join(workdir, "record_train.ini")
        cfg = write_config(self.cfg_path, {
            "physics": {"gamma": GAMMA, "eta": 1.0},
            "integration": {"dt": 0.05, "t_final": t_final, "tau": 0.5},
            "ensemble": {"seed": seed},
        })
        self.seed = cfg.seed
        self.n_records = n_records
        self.n_samples = round(t_final / cfg.tau)
        self.sizes = {"records": n_records, "t_final_us": t_final,
                      "sme_steps": round(t_final / cfg.dt), "samples_per_record": self.n_samples}
        self.report = None

    def run_pass(self, k, rec):
        seed = str(pass_seed(self.seed, k))
        common = ["--config", self.cfg_path, "--out", self.out, "--seed", seed]
        idx, code = rec.op(run_cli, ["simulate", "--records", str(self.n_records)] + common)
        if code is None:
            return
        records = [os.path.join(self.out, f"record_{i:03d}.csv") for i in range(self.n_records)]
        rec.check(idx, self.check_records, code, records)
        if not rec.ok[idx]:
            return
        for i, path in enumerate(records):
            model = f"model_{i:03d}.json"
            idx, code = rec.op(run_cli, ["train", "--record", path, "--model-out", model] + common)
            if code is not None:
                rec.check(idx, self.check_model, code, path, model)

    def check_records(self, code, records):
        failures = checks.check_exit(code, "simulate")
        for path in records if code == 0 else []:
            failures += checks.check_record_rows(len(read_csv(path)), self.n_samples, path)
        return failures

    def check_model(self, code, path, model):
        failures = checks.check_exit(code, f"train {path}")
        if code == 0:
            meta = qlift.load_model(os.path.join(self.out, model)).metadata
            failures += checks.check_model_metadata(meta, f"train {path}")
        return failures


WORKLOADS = {w.name: w for w in (Compare, GainSweep, Ensemble, RecordTrain)}
