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
import csv
import math
import os
import sys

import numpy as np

from . import rates as rates_mod
from .config import ConfigError, ExperimentConfig, load_config
from .dynamics import (
    IntegrationError,
    SchemeKind,
    SchemeSpec,
    TrajectoryConfig,
    ancilla_decay_generator,
    integrate_deterministic,
    no_feedback_generator,
    wm_generator,
)
from .fitting import FitError, fit_exponential, fit_exponential_offset
from .predictor import TrainingDiverged, TrainSettings, build_dataset, train, save_model
from .stochastic import run_ensemble
from .traces import HomodyneRecord

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_series(path, header, times, values):
    _write_csv(path, header, zip((f"{t:.6f}" for t in times),
                                 (f"{v:.10g}" for v in values)))


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig().validate()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _grid(spec: SchemeSpec, cfg: ExperimentConfig, t_final=None, **kwargs) -> TrajectoryConfig:
    """Build a TrajectoryConfig whose dt respects the scheme's rate scale.

    dt is shrunk below the configured value when the scheme's fastest rate
    demands it, keeping tau a whole multiple of dt and t_final a whole
    number of sample periods.
    """
    t_final = cfg.t_final if t_final is None else t_final
    bound = 0.01 / spec.fastest_rate
    dt0 = min(cfg.dt, bound)
    stride = max(1, round(cfg.tau / dt0))
    # dt0's sample count, raised where needed to the fewest that keep dt <= bound
    n_samples = max(round(t_final / (stride * dt0)),
                    math.ceil(t_final / (stride * bound * (1.0 + 1e-12))))
    dt = t_final / (n_samples * stride)
    return TrajectoryConfig(dt=dt, t_final=t_final, seed=cfg.seed,
                            tau=stride * dt, **kwargs)


def _scheme_specs(cfg: ExperimentConfig):
    """The comparison set: bare decay, feedback at optimal gain per eta, ancilla."""
    out = [("no_feedback", SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=cfg.gamma),
            no_feedback_generator, cfg.gamma)]
    for eta in cfg.eta_list:
        lam = rates_mod.optimal_lambda(cfg.gamma, eta)
        spec = SchemeSpec(SchemeKind.WISEMAN_MILBURN, gamma=cfg.gamma, eta=eta,
                          lambda_gain=lam, phi_lo=cfg.phi_lo,
                          feedback_axis=cfg.feedback_axis)
        out.append((f"wm_eta_{eta:g}", spec, wm_generator,
                    rates_mod.gamma_wm(cfg.gamma, eta, lam)))
    c = rates_mod.cooperativity(cfg.g, cfg.kappa, cfg.gamma)
    spec = SchemeSpec(SchemeKind.ANCILLA_COHERENT, gamma=cfg.gamma, g=cfg.g,
                      kappa=cfg.kappa)
    out.append(("ancilla", spec, ancilla_decay_generator,
                rates_mod.gamma_ancilla(cfg.gamma, c)))
    return out


def cmd_rates(cfg: ExperimentConfig, args) -> int:
    c = rates_mod.cooperativity(cfg.g, cfg.kappa, cfg.gamma)
    table = rates_mod.rate_table(cfg.gamma, etas=cfg.eta_list, c=c, r=cfg.r)
    print(cfg.echo())
    print(f"\ncooperativity C = {c:.4f}")
    print(f"{'scheme':<14} {'rate [1/us]':>12} {'T1 [us]':>10}")
    for row in table:
        print(f"{row.scheme:<14} {row.gamma_eff:>12.6f} {row.t1:>10.2f}")
    path = os.path.join(cfg.out_dir, "rates.csv")
    _write_csv(path, ["scheme", "gamma_eff_per_us", "t1_us"],
               [(row.scheme, f"{row.gamma_eff:.10g}", f"{row.t1:.6f}") for row in table])
    print(f"\nwrote {path}")
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    print(cfg.echo())
    c = rates_mod.cooperativity(cfg.g, cfg.kappa, cfg.gamma)
    times = np.linspace(0.0, cfg.t_final, round(cfg.t_final / cfg.tau) + 1)
    for row in rates_mod.rate_table(cfg.gamma, etas=cfg.eta_list, c=c, r=cfg.r):
        trace = rates_mod.population_curve(row.gamma_eff, times)
        path = os.path.join(cfg.out_dir, f"pe_{row.scheme}.csv")
        _write_series(path, ["time_us", "pe"], trace.times, trace.pe)
        print(f"wrote {path}  (rate {row.gamma_eff:.6f}/us, T1 {row.t1:.2f} us)")

    if args.records > 0:
        spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=cfg.gamma, eta=cfg.eta,
                          phi_lo=cfg.phi_lo)
        grid = _grid(spec, cfg, n_trajectories=args.records)
        result = run_ensemble(spec, grid)
        for i, record in enumerate(result.records):
            path = os.path.join(cfg.out_dir, f"record_{i:03d}.csv")
            _write_series(path, ["time_us", "current"], record.times, record.samples)
        path = os.path.join(cfg.out_dir, "pe_sme_mean.csv")
        _write_series(path, ["time_us", "pe"], result.times, result.mean_pe)
        print(f"wrote {args.records} current record(s) and {path}")
    return EXIT_OK


def _record_from_csv(path) -> HomodyneRecord:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except ValueError as exc:
        raise ConfigError(f"{path}: not a time_us,current CSV ({exc})") from None
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 3:
        raise ConfigError(f"{path}: expected two columns time_us,current")
    periods = np.diff(data[:, 0])
    return HomodyneRecord(float(np.median(periods)), data[:, 1])


def cmd_train(cfg: ExperimentConfig, args) -> int:
    print(cfg.echo())
    if args.record:
        record = _record_from_csv(args.record)
        print(f"loaded record {args.record} ({record.samples.shape[0]} samples)")
    else:
        spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=cfg.gamma, eta=cfg.eta,
                          phi_lo=cfg.phi_lo)
        grid = _grid(spec, cfg, n_trajectories=1)
        record = run_ensemble(spec, grid).records[0]
        print(f"simulated a fresh record ({record.samples.shape[0]} samples)")

    settings = TrainSettings(learning_rate=cfg.learning_rate,
                             batch_size=cfg.batch_size, patience=cfg.patience,
                             max_epochs=cfg.max_epochs,
                             val_fraction=cfg.val_fraction, seed=cfg.seed)
    # a record too short for the window or for the validation carve-out
    try:
        model = train(build_dataset(record, window=cfg.window), settings)
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
    rows = []
    for name, spec, generator, gamma_model in _scheme_specs(cfg):
        # a fixed multiple of the bare lifetime is long enough for every
        # scheme without assuming the model rate is the realized one
        horizon = min(cfg.t_final, 2.5 / cfg.gamma)
        grid = _grid(spec, cfg, t_final=horizon)
        trace = integrate_deterministic(generator, spec, grid)
        if spec.kind is SchemeKind.WISEMAN_MILBURN:
            fit = fit_exponential_offset(trace)
        else:
            fit = fit_exponential(trace)
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
               [(n, f"{gf:.10g}", f"{gm:.10g}", f"{t1f:.4f}", f"{t1m:.4f}", f"{d:.3f}")
                for n, gf, gm, t1f, t1m, d in rows])
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
