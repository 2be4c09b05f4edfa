"""Command-line experiment runner.

Subcommands:

* ``rates``     closed-form rate and lifetime table for every scheme
* ``simulate``  model decay curves as CSV, optionally homodyne current records
* ``train``     fit the one-step predictor on a simulated or stored record
* ``compare``   integrate each scheme and compare fitted rates to closed forms

Exit codes: 0 success, 2 configuration problems, 3 numerical failures,
4 input/output failures.
"""

import argparse
import os
import sys
import warnings

import numpy as np

from . import rates as rates_mod
from .config import ConfigError, ExperimentConfig, load_config
from .dynamics import (
    IntegrationError,
    SchemeKind,
    SchemeSpec,
    TrajectoryConfig,
    ancilla_decay_generator,
    fewest_steps,
    integrate_deterministic,
    max_step,
    no_feedback_generator,
    wm_generator,
)
from .fitting import FitError, fit_exponential, fit_exponential_offset
from .predictor import TrainingDiverged, build_dataset, train, save_model
from .stochastic import check_trajectory_count, run_ensemble
from .traces import HomodyneRecord, check_count

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _write_csv(path, header, lines):
    """Write a header row, then ``lines``: rows formatted by the caller, each
    ending in \\r\\n.  No cell needs quoting, so these are the bytes
    csv.writer would write."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n" + "".join(lines))


def _write_series(path, header, times, values):
    # formatted from Python floats, which format far faster than numpy scalars
    _write_csv(path, header, (f"{t:.6f},{v:.10g}\r\n"
                              for t, v in zip(times.tolist(), values.tolist())))


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig().validate()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _check_size(count: float, t_final: float, tau: float, dt: float) -> None:
    """Raise ConfigError unless one float64 array, whose size in bytes is an
    intp, can hold the count + 1 samples or steps of a grid."""
    if not count < np.iinfo(np.intp).max // 8 - 1:  # false for an overflow to inf
        raise ConfigError(f"t_final = {t_final!r}, tau = {tau!r} and dt = {dt!r} give "
                          f"{count:.3g} samples or steps, more than an array can hold")


def _sample_count(cfg: ExperimentConfig, t_final: float) -> int:
    """The whole number of sample periods nearest to t_final / tau, at least one."""
    _check_size(t_final / cfg.tau, t_final, cfg.tau, cfg.dt)
    return max(1, round(t_final / cfg.tau))


def _grid(spec: SchemeSpec, cfg: ExperimentConfig, t_final: float, **kwargs) -> TrajectoryConfig:
    """The grid of one scheme: t_final in _sample_count equal sample periods,
    the same for every scheme, each in the fewest equal steps that keep dt
    at or below both the configured dt and the scheme's step bound."""
    n = _sample_count(cfg, t_final)
    period, step = t_final / n, min(cfg.dt, max_step(spec))
    _check_size(n * (period / step + 1.0), t_final, cfg.tau, step)  # at least stride * n
    stride = fewest_steps(period, step)
    return TrajectoryConfig(dt=period / stride, t_final=t_final, seed=cfg.seed,
                            tau=period, **kwargs)


def _scheme_specs(cfg: ExperimentConfig):
    """The comparison set as (name, spec, generator): bare decay, feedback at
    optimal gain per eta, ancilla, named as in the rate table."""
    yield "no_feedback", SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=cfg.gamma), no_feedback_generator
    for eta in cfg.eta_list:
        spec = SchemeSpec(SchemeKind.WISEMAN_MILBURN, gamma=cfg.gamma, eta=eta,
                          lambda_gain=rates_mod.optimal_lambda(cfg.gamma, eta),
                          phi_lo=cfg.phi_lo)
        yield rates_mod.wm_scheme_name(eta), spec, wm_generator
    spec = SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=cfg.gamma, g=cfg.g,
                      kappa=cfg.kappa)
    yield "ancilla", spec, ancilla_decay_generator


def _simulate_records(cfg: ExperimentConfig, n: int):
    """The grid and the ensemble of n homodyne trajectories of the monitored qubit."""
    spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=cfg.gamma, eta=cfg.eta,
                      phi_lo=cfg.phi_lo)
    grid = _grid(spec, cfg, cfg.t_final, n_trajectories=n)
    return grid, run_ensemble(spec, grid)


def cmd_rates(cfg: ExperimentConfig, args) -> int:
    c, table = cfg.rate_table()
    print(cfg.echo())
    print(f"\ncooperativity C = {c:.4f}")
    print(f"{'scheme':<14} {'rate [1/us]':>12} {'T1 [us]':>10}")
    for row in table:
        print(f"{row.scheme:<14} {row.gamma_eff:>12.6f} {row.t1:>10.2f}")
    path = os.path.join(cfg.out_dir, "rates.csv")
    _write_csv(path, ["scheme", "gamma_eff_per_us", "t1_us"],
               (f"{row.scheme},{row.gamma_eff:.10g},{row.t1:.6f}\r\n" for row in table))
    print(f"\nwrote {path}")
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    try:
        check_trajectory_count(check_count(args.records, "--records", 0), "--records")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(cfg.echo())
    _, table = cfg.rate_table()
    n = _sample_count(cfg, cfg.t_final)
    for row in table:
        trace = rates_mod.population_curve(row.gamma_eff, cfg.t_final / n, n + 1)
        path = os.path.join(cfg.out_dir, f"pe_{row.scheme}.csv")
        _write_series(path, ["time_us", "pe"], trace.times, trace.pe)
        print(f"wrote {path}  (rate {row.gamma_eff:.6f}/us, T1 {row.t1:.2f} us)")

    if args.records > 0:
        _, result = _simulate_records(cfg, args.records)
        for i, currents in enumerate(result.records):
            path = os.path.join(cfg.out_dir, f"record_{i:03d}.csv")
            _write_series(path, ["time_us", "current"], result.times[:-1], currents)
        path = os.path.join(cfg.out_dir, "pe_sme_mean.csv")
        _write_series(path, ["time_us", "pe"], result.times, result.mean_pe)
        print(f"wrote {args.records} current record(s) and {path}")
    return EXIT_OK


def _record_from_csv(path) -> HomodyneRecord:
    try:
        with warnings.catch_warnings():  # a header-only file is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: not a time_us,current CSV ({exc})") from None
    if len(data) < 3:
        raise ConfigError(f"{path}: a record needs at least 3 samples, got {len(data)}")
    if data.shape[1] != 2:
        raise ConfigError(f"{path}: expected two columns time_us,current")
    periods = np.diff(data[:, 0])
    period = float(np.median(periods))
    # six-decimal times put each period within 1e-6 us of the true one
    if np.any(np.abs(periods - period) > 2e-6):
        raise ConfigError(f"{path}: times are not uniformly spaced")
    # a non-finite current or a period that is not positive
    try:
        return HomodyneRecord(period, data[:, 1])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def cmd_train(cfg: ExperimentConfig, args) -> int:
    print(cfg.echo())
    if args.record:
        record = _record_from_csv(args.record)
        print(f"loaded record {args.record} ({record.samples.shape[0]} samples)")
    else:
        grid, result = _simulate_records(cfg, 1)
        record = HomodyneRecord(grid.tau, result.records[0])
        print(f"simulated a fresh record ({record.samples.shape[0]} samples)")

    # a record too short for the window or for the validation carve-out
    try:
        model = train(build_dataset(record, window=cfg.window), cfg.train_settings())
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    meta = model.metadata
    print(f"epochs run        : {meta['epochs_run']} (best at {meta['best_epoch']})")
    print(f"train MSE         : {meta['train_mse']:.6g}")
    print(f"validation MSE    : {meta['val_mse']:.6g}")
    print(f"test MSE          : {meta['test_mse']:.6g}")
    print(f"last-value MSE    : {meta['baseline_mse']:.6g}")
    if meta["test_r"] is None:
        print("test correlation r: undefined (flat prediction)")
    else:
        print(f"test correlation r: {meta['test_r']:.4f}")
    path = os.path.join(cfg.out_dir, args.model_out)
    save_model(model, path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_compare(cfg: ExperimentConfig, args) -> int:
    print(cfg.echo())
    _, table = cfg.rate_table()
    model = {row.scheme: row.gamma_eff for row in table}
    rows = []
    for name, spec, generator in _scheme_specs(cfg):
        # a fixed multiple of the bare lifetime is long enough for every
        # scheme without assuming the model rate is the realized one
        horizon = min(cfg.t_final, 2.5 / cfg.gamma)
        grid = _grid(spec, cfg, horizon)
        trace = integrate_deterministic(generator, spec, grid)
        if spec.kind is SchemeKind.WISEMAN_MILBURN:
            fit = fit_exponential_offset(trace)
        else:
            fit = fit_exponential(trace)
        gamma_model = model[name]
        dev = 100.0 * (fit.gamma_eff - gamma_model) / gamma_model
        rows.append((name, fit.gamma_eff, gamma_model, fit.t1, 1.0 / gamma_model, dev))

    print(f"\n{'scheme':<14} {'fit [1/us]':>12} {'model [1/us]':>13} "
          f"{'T1 fit':>9} {'T1 model':>9} {'dev %':>8}")
    for name, gf, gm, t1f, t1m, dev in rows:
        print(f"{name:<14} {gf:>12.6f} {gm:>13.6f} {t1f:>9.2f} {t1m:>9.2f} {dev:>8.2f}")
    path = os.path.join(cfg.out_dir, "compare.csv")
    _write_csv(path,
               ["scheme", "gamma_fit_per_us", "gamma_model_per_us",
                "t1_fit_us", "t1_model_us", "deviation_pct"],
               (f"{n},{gf:.10g},{gm:.10g},{t1f:.4f},{t1m:.4f},{d:.3f}\r\n"
                for n, gf, gm, t1f, t1m, d in rows))
    print(f"\nwrote {path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a config file")
    common.add_argument("--seed", type=int, help="override the RNG seed")
    common.add_argument("--out", help="override the output directory")

    parser = argparse.ArgumentParser(prog="qlift",
                                     description="qubit lifetime extension toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("rates", parents=[common],
                   help="closed-form rate table").set_defaults(func=cmd_rates)
    p_sim = sub.add_parser("simulate", parents=[common],
                           help="model decay curves and current records")
    p_sim.add_argument("--records", type=int, default=0,
                       help="also simulate this many homodyne records")
    p_sim.set_defaults(func=cmd_simulate)
    p_train = sub.add_parser("train", parents=[common], help="fit the predictor")
    p_train.add_argument("--record", help="CSV record to train on (default: simulate one)")
    p_train.add_argument("--model-out", default="model.json",
                         help="model file name inside the output directory")
    p_train.set_defaults(func=cmd_train)
    sub.add_parser("compare", parents=[common],
                   help="fitted vs closed-form rates").set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, FitError, TrainingDiverged, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
