import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qlift import cli
from qlift.cli import main
from qlift.config import ConfigError, ExperimentConfig, load_config
from qlift.dynamics import TrajectoryConfig, check_step_size


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "# nothing here\n"))
        assert cfg == ExperimentConfig()

    def test_overrides_across_sections(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
[physics]
gamma = 0.05
eta = 0.8
eta_list = 0.25, 0.75
phi_lo = 0.7

[integration]
t_final = 42.0   # trailing comment

[ensemble]
n_trajectories = 17
seed = 3

[predictor]
learning_rate = 5e-4

[output]
out_dir = elsewhere
"""))
        assert cfg.gamma == 0.05
        assert cfg.eta == 0.8
        assert cfg.eta_list == (0.25, 0.75)
        assert cfg.phi_lo == 0.7
        assert cfg.t_final == 42.0
        assert cfg.n_trajectories == 17
        assert cfg.seed == 3
        assert cfg.learning_rate == 5e-4
        assert cfg.out_dir == "elsewhere"
        # untouched keys keep their defaults
        assert cfg.kappa == ExperimentConfig().kappa

    def test_unknown_key_reports_file_and_line(self, tmp_path):
        path = write_config(tmp_path, "[physics]\ngamma = 0.02\nvelocity = 3\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:3: unknown key 'velocity'"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "\n[cooking]\nsalt = 1\n")
        with pytest.raises(ConfigError, match=r":2: unknown section \[cooking\]"):
            load_config(path)

    def test_key_must_live_in_its_section(self, tmp_path):
        path = write_config(tmp_path, "[integration]\ngamma = 0.02\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'gamma' in \[integration\]"):
            load_config(path)

    def test_key_set_twice_names_both_lines(self, tmp_path):
        path = write_config(tmp_path, "[physics]\ngamma = 0.02\n\n[integration]\ndt = 0.05\n"
                                      "[physics]\ngamma = 0.5\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:7: key 'gamma' already set on line 2"):
            load_config(path)

    def test_key_before_any_section(self, tmp_path):
        path = write_config(tmp_path, "gamma = 0.02\n")
        with pytest.raises(ConfigError, match=r":1: key outside any \[section\]"):
            load_config(path)

    def test_malformed_line(self, tmp_path):
        path = write_config(tmp_path, "[physics]\ngamma 0.02\n")
        with pytest.raises(ConfigError, match=r":2: expected 'key = value'"):
            load_config(path)

    def test_malformed_section_header(self, tmp_path):
        path = write_config(tmp_path, "[physics\ngamma = 0.02\n")
        with pytest.raises(ConfigError, match="malformed section header"):
            load_config(path)

    def test_unparseable_value(self, tmp_path):
        path = write_config(tmp_path, "[physics]\ngamma = fast\n")
        with pytest.raises(ConfigError, match=r":2: cannot parse value 'fast'"):
            load_config(path)

    def test_integer_key_rejects_float_text(self, tmp_path):
        path = write_config(tmp_path, "[ensemble]\nn_trajectories = 2.5\n")
        with pytest.raises(ConfigError, match="cannot parse value '2.5'"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(str(tmp_path / "absent.cfg"))

    @pytest.mark.parametrize("snippet,complaint", [
        ("[physics]\ngamma = -0.02\n", "must be positive"),
        ("[physics]\neta = 1.5\n", r"lie in \(0, 1\]"),
        ("[physics]\neta_list = 0.5, 2.0\n", "eta_list"),
        ("[physics]\neta_list = 0.5, 0.5000001\n", "'eta_list' entries must be distinct"),
        ("[physics]\nfeedback_axis = z\n", "unknown key 'feedback_axis'"),
        ("[physics]\nr = -0.1\n", "must be >= 0"),
        ("[physics]\nr = inf\n", "'r' must be >= 0 and finite"),
        ("[physics]\nr = 1.0\n", "'r' must be below 1, got 1.0$"),
        ("[physics]\nr = 1.5\n", "'r' must be below 1, got 1.5$"),
        ("[physics]\nphi_lo = inf\n", "'phi_lo' must be finite"),
        ("[ensemble]\nseed = -1\n", "non-negative"),
        ("[ensemble]\nseed = -1\n", "non-negative integer, got -1$"),
        ("[predictor]\nval_fraction = 1.0\n", "below 1"),
        ("[integration]\ndt = 0\n", "must be positive"),
    ])
    def test_semantic_validation(self, tmp_path, snippet, complaint):
        path = write_config(tmp_path, snippet)
        with pytest.raises(ConfigError, match=complaint):
            load_config(path)

    def test_readme_block_is_the_defaults(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
        assert load_config(write_config(tmp_path, block)) == ExperimentConfig()

    def test_echo_lists_every_key(self):
        from dataclasses import fields

        text = ExperimentConfig().echo()
        for f in fields(ExperimentConfig):
            assert f.name in text


FAST_SIM = """
[integration]
dt = 0.05
t_final = 20.0
tau = 0.5
"""

# same cooperativity as the defaults (C = 1.84) at a 16x smaller kappa so the
# comparison integrations stay quick
FAST_COMPARE = """
[physics]
g = 0.23
kappa = 5.75

[integration]
dt = 0.05
t_final = 50.0
tau = 0.5
"""


class TestCliRates:
    def test_rates_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(["rates", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "rates.csv")
        assert header == ["scheme", "gamma_eff_per_us", "t1_us"]
        assert [r[0] for r in rows] == [
            "no_feedback", "wm_eta_0.5", "wm_eta_1", "ancilla", "ancilla_ml"]
        t1s = [float(r[2]) for r in rows]
        assert t1s == sorted(t1s)
        assert t1s[0] == pytest.approx(50.0)
        assert t1s[-1] == pytest.approx(200.4517, abs=1e-3)
        text = capsys.readouterr().out
        assert "cooperativity C = 1.8400" in text
        assert "rates.csv" in text


class TestCliSimulate:
    def test_curves_and_records(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_SIM)
        out = tmp_path / "res"
        code = main(["simulate", "--config", cfg, "--out", str(out), "--records", "2"])
        assert code == 0
        for scheme in ("no_feedback", "wm_eta_0.5", "wm_eta_1", "ancilla", "ancilla_ml"):
            header, rows = read_csv(out / f"pe_{scheme}.csv")
            assert header == ["time_us", "pe"]
            assert len(rows) == 41
        header, rows = read_csv(out / "pe_no_feedback.csv")
        for t_text, pe_text in rows:
            assert float(pe_text) == pytest.approx(
                math.exp(-0.02 * float(t_text)), rel=1e-8)

        for i in range(2):
            header, rows = read_csv(out / f"record_{i:03d}.csv")
            assert header == ["time_us", "current"]
            assert len(rows) == 40
        header, rows = read_csv(out / "pe_sme_mean.csv")
        assert header == ["time_us", "pe"]
        assert len(rows) == 41

    def test_records_are_sampled_every_tau(self, tmp_path):
        # tau below dt: the records are tau apart, like the model curves
        cfg = write_config(tmp_path, "[integration]\ndt = 0.05\nt_final = 2.0\ntau = 0.01\n")
        out = tmp_path / "res"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--records", "1"]) == 0
        for name in ("record_000.csv", "pe_sme_mean.csv", "pe_no_feedback.csv"):
            times = np.loadtxt(out / name, delimiter=",", skiprows=1)[:, 0]
            np.testing.assert_allclose(np.diff(times), 0.01, atol=1.5e-6)

    def test_horizon_shorter_than_tau(self, tmp_path):
        cfg = write_config(tmp_path, "[integration]\nt_final = 0.2\n")
        out = tmp_path / "res"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--records", "1"]) == 0
        # one sample period, the whole horizon
        header, rows = read_csv(out / "pe_no_feedback.csv")
        assert [r[0] for r in rows] == ["0.000000", "0.200000"]
        header, rows = read_csv(out / "record_000.csv")
        assert [r[0] for r in rows] == ["0.000000"]

    def test_negative_record_count_exits_2(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["simulate", "--out", str(out), "--records", "-2"]) == 2
        assert "--records must be >= 0, got -2" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_seed_override_controls_records(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SIM)

        def record_bytes(out, seed):
            code = main(["simulate", "--config", cfg, "--out", str(out),
                         "--records", "1", "--seed", str(seed)])
            assert code == 0
            return (out / "record_000.csv").read_bytes()

        a = record_bytes(tmp_path / "a", 5)
        b = record_bytes(tmp_path / "b", 5)
        c = record_bytes(tmp_path / "c", 6)
        assert a == b
        assert a != c


class TestWriteSeries:
    def test_bytes_match_per_scalar_csv_writer(self, tmp_path):
        times = np.array([0.0, 0.5, -1.25, 1e-300, 1e300, 123456.7890123])
        values = np.array([0.0, -0.0, -3.5e-7, 1e-300, 1e300, -1e300])
        header = ["time_us", "current"]
        new = tmp_path / "new.csv"
        cli._write_series(new, header, times, values)
        # oracle: csv.writer over one f-string per numpy scalar
        old = tmp_path / "old.csv"
        with open(old, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(zip((f"{t:.6f}" for t in times),
                                 (f"{v:.10g}" for v in values)))
        assert new.read_bytes() == old.read_bytes()


class TestCliTrain:
    def make_record_csv(self, tmp_path, n=220):
        k = np.arange(n)
        sig = np.exp(-k / 200.0) * np.sin(0.4 * k)
        path = tmp_path / "record.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_us", "current"])
            writer.writerows((f"{0.5 * i:.6f}", f"{v:.10g}") for i, v in zip(k, sig))
        return str(path)

    def test_train_on_stored_record(self, tmp_path, capsys):
        record = self.make_record_csv(tmp_path)
        cfg = write_config(tmp_path, "[predictor]\nmax_epochs = 60\npatience = 10\n")
        out = tmp_path / "res"
        code = main(["train", "--config", cfg, "--out", str(out),
                     "--record", record, "--model-out", "m.json"])
        assert code == 0
        text = capsys.readouterr().out
        assert "test correlation r:" in text
        blob = json.loads((out / "m.json").read_text())
        assert blob["window"] == 5
        assert blob["hidden"] == [32, 16]
        assert len(blob["params"]) == 6
        assert blob["metadata"]["epochs_run"] <= 60

    def test_record_too_short_for_window_is_config_error(self, tmp_path, capsys):
        record = self.make_record_csv(tmp_path, n=6)
        code = main(["train", "--out", str(tmp_path / "res"), "--record", record])
        assert code == 2
        assert "too short" in capsys.readouterr().err

    def test_record_too_short_for_validation_is_config_error(self, tmp_path, capsys):
        # 8 samples give 3 pairs and a training half of 1: no room for validation
        record = self.make_record_csv(tmp_path, n=8)
        code = main(["train", "--out", str(tmp_path / "res"), "--record", record])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "validation" in err

    def test_malformed_record_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("time_us,current\n0.0,0.1\nnot,numbers\n")
        code = main(["train", "--out", str(tmp_path / "res"), "--record", str(path)])
        assert code == 2
        assert "bad.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, complaint", [
        ("0.0,0.1\n0.5,nan\n1.0,0.2\n", "record contains non-finite samples"),
        ("0.0,0.1\n0.0,0.3\n0.0,0.2\n", "sample_period must be positive and finite"),
        # 80 samples 0.5 us apart but for one gap of 80.5 us
        ("".join(f"{0.5 * k + 80.0 * (k >= 40):.6f},{math.sin(0.4 * k):.6f}\n"
                 for k in range(80)), "times are not uniformly spaced"),
        ("", "a record needs at least 3 samples, got 0"),
        ("0.0,0.1\n", "a record needs at least 3 samples, got 1"),
        ("0.0,0.1\n0.5,0.2\n", "a record needs at least 3 samples, got 2"),
    ], ids=["nan-current", "equal-times", "gapped-times", "header-only", "one-row", "two-rows"])
    @pytest.mark.filterwarnings("error")  # numpy's empty-input warning is no report
    def test_invalid_record_is_config_error(self, tmp_path, capsys, rows, complaint):
        path = tmp_path / "bad.csv"
        path.write_text("time_us,current\n" + rows)
        code = main(["train", "--out", str(tmp_path / "res"), "--record", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"configuration error: {path}: {complaint}" in err
        assert "Traceback" not in err

    def test_simulated_record_round_trip(self, tmp_path, capsys):
        # tau = 1/3 is 150 whole periods of 50 us, whose six-decimal times
        # (0.333333, 0.666667, ...) are not evenly spaced to the digit
        cfg = write_config(tmp_path, "[integration]\nt_final = 50.0\n"
                                     "tau = 0.3333333333333333\n"
                                     "[predictor]\nmax_epochs = 30\npatience = 5\n")
        out = tmp_path / "res"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--records", "1"]) == 0
        record = out / "record_000.csv"
        times = np.loadtxt(record, delimiter=",", skiprows=1)[:, 0]
        assert np.ptp(np.diff(times)) > 0
        assert main(["train", "--config", cfg, "--out", str(out),
                     "--record", str(record)]) == 0
        assert f"loaded record {record} (150 samples)" in capsys.readouterr().out

    def test_train_on_a_simulated_record(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_SIM + "[predictor]\nmax_epochs = 30\npatience = 5\n")
        out = tmp_path / "res"
        code = main(["train", "--config", cfg, "--out", str(out)])
        assert code == 0
        # t_final / tau = 20 / 0.5 samples
        assert "simulated a fresh record (40 samples)" in capsys.readouterr().out
        blob = json.loads((out / "model.json").read_text())
        assert blob["metadata"]["epochs_run"] <= 30

    def test_missing_record_is_io_error(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "res"),
                     "--record", str(tmp_path / "absent.csv")])
        assert code == 4
        assert "i/o failure" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_numerical_error(self, tmp_path, capsys):
        record = self.make_record_csv(tmp_path)
        cfg = write_config(tmp_path, "[predictor]\nlearning_rate = 1e120\n")
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "res"),
                     "--record", record])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestCliCompare:
    def test_fitted_rates_against_models(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_COMPARE)
        out = tmp_path / "res"
        code = main(["compare", "--config", cfg, "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out / "compare.csv")
        assert header == ["scheme", "gamma_fit_per_us", "gamma_model_per_us",
                          "t1_fit_us", "t1_model_us", "deviation_pct"]
        by_name = {r[0]: r for r in rows}
        assert set(by_name) == {"no_feedback", "wm_eta_0.5", "wm_eta_1", "ancilla"}
        assert abs(float(by_name["no_feedback"][5])) < 0.01
        assert abs(float(by_name["wm_eta_0.5"][5])) < 0.5
        assert abs(float(by_name["wm_eta_1"][5])) < 0.5
        # the two-qubit integration relaxes faster than the closed-form
        # model rate, and the table reports that gap rather than hiding it
        assert float(by_name["ancilla"][5]) > 100.0

    def test_model_rates_are_the_rate_table(self, tmp_path):
        cfg = write_config(tmp_path, FAST_COMPARE)
        out = tmp_path / "res"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
        model = {r[0]: r[2] for r in read_csv(out / "compare.csv")[1]}
        table = {r[0]: r[1] for r in read_csv(out / "rates.csv")[1]}
        assert set(model) == {"no_feedback", "wm_eta_0.5", "wm_eta_1", "ancilla"}
        assert model == {name: table[name] for name in model}


def grid_by_search(spec, cfg):
    """Reference for cli._grid: t_final in the whole number of sample periods
    nearest to t_final / tau, each in the smallest stride whose step is at
    most the configured dt and the step bound (to a relative 1e-12)."""
    n = max(1, round(cfg.t_final / cfg.tau))
    period = cfg.t_final / n
    h = min(cfg.dt, 0.01 / spec.fastest_rate)
    # every stride below period / h - 1 gives a step above h
    stride = max(1, math.floor(period / h) - 1)
    assert stride == 1 or period / stride > h * (1.0 + 1e-12)
    while period / stride > h * (1.0 + 1e-12):
        stride += 1
    return TrajectoryConfig(dt=period / stride, t_final=cfg.t_final, seed=cfg.seed, tau=period)


def assert_grids_match_search(cfg):
    taus = set()
    for _, spec, _ in cli._scheme_specs(cfg):
        got, want = cli._grid(spec, cfg, cfg.t_final), grid_by_search(spec, cfg)
        assert (got.dt, got.tau, got.n_steps) == (want.dt, want.tau, want.n_steps)
        assert got.dt <= cfg.dt * (1.0 + 1e-12)
        check_step_size(spec, got)
        taus.add(got.tau)
    assert len(taus) == 1  # one sample period for every scheme


class TestGrid:
    @pytest.mark.parametrize("overrides", [
        {},  # defaults, kappa/g = 100
        dict(t_final=6.0),
        dict(t_final=35.0, dt=0.01, tau=0.25),
        dict(t_final=1.7, dt=0.013, tau=0.07),
        dict(t_final=123.4, dt=0.5, tau=3.0),
        dict(t_final=0.5, dt=0.5, tau=0.5),
        dict(g=0.92, kappa=9.2),  # kappa/g = 10
        dict(g=0.092, kappa=0.92),  # slow ancilla: the configured dt is kept
        dict(g=9.2, kappa=920.0, t_final=10.0),  # kappa/g = 100, rates x10
        dict(gamma=0.2, eta_list=(0.25, 0.75), t_final=77.7, tau=1.1),
        dict(dt=0.03),  # dt does not divide tau: dt is lowered, tau kept
        dict(tau=0.7, dt=0.5),  # one sample period for every scheme
        dict(tau=0.01, dt=0.05, t_final=2.0),  # tau shorter than dt
        dict(t_final=0.2),  # shorter than tau: one sample period
    ])
    def test_direct_dt_matches_search(self, overrides):
        assert_grids_match_search(ExperimentConfig(**overrides).validate())

    def test_direct_dt_matches_search_over_a_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            cfg = ExperimentConfig(t_final=float(rng.uniform(0.2, 400.0)),
                                   dt=float(10 ** rng.uniform(-4, 0)),
                                   tau=float(10 ** rng.uniform(-2, 0.5)),
                                   kappa=0.92 * float(10 ** rng.uniform(0, 3))).validate()
            assert_grids_match_search(cfg)


class TestCliPlumbing:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[physics]\nwarp = 9\n")
        code = main(["rates", "--config", cfg, "--out", str(tmp_path / "res")])
        assert code == 2
        assert "unknown key 'warp'" in capsys.readouterr().err

    def test_non_finite_phase_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[physics]\nphi_lo = nan\n")
        code = main(["compare", "--config", cfg, "--out", str(tmp_path / "res")])
        assert code == 2
        assert "'phi_lo' must be finite" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["rates", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "res")])
        assert code == 2

    def test_command_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
