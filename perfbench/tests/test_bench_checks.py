"""Each checker counts a deliberately wrong output as a failure."""

import math

import numpy as np
import pytest

import qlift
import checks
import workloads

GAMMA = 0.02
ETAS = (0.5, 1.0)
G, KAPPA = 0.92, 92.0


@pytest.fixture
def expected():
    return checks.compare_expectations(GAMMA, ETAS, G, KAPPA)


def exact_rows(expected):
    rows = {s: {"gamma_fit": r, "gamma_model": r} for s, r in expected["two_level"].items()}
    rows["ancilla"] = {"gamma_fit": expected["ancilla_oracle"],
                       "gamma_model": expected["ancilla_closed_form"]}
    return rows


def test_compare_exact_output_passes_and_reports_the_gap(expected):
    failures, report = checks.check_compare(0, exact_rows(expected), expected)
    assert failures == []
    assert report["ancilla_t1_closed_form_us"] == pytest.approx(142.0, rel=1e-3)
    assert report["ancilla_t1_fit_us"] == pytest.approx(17.60, abs=0.01)
    assert report["ancilla_t1_oracle_us"] == report["ancilla_t1_fit_us"]


@pytest.mark.parametrize("scheme", ["no_feedback", "wm_eta_0.5", "wm_eta_1"])
def test_compare_two_level_rate_off_by_one_percent_fails(expected, scheme):
    rows = exact_rows(expected)
    rows[scheme]["gamma_fit"] *= 1.01
    failures, _ = checks.check_compare(0, rows, expected)
    assert len(failures) == 1 and scheme in failures[0]


def test_compare_ancilla_off_the_oracle_fails(expected):
    rows = exact_rows(expected)
    rows["ancilla"]["gamma_fit"] *= 1.01
    assert checks.check_compare(0, rows, expected)[0]
    rows["ancilla"]["gamma_fit"] = expected["ancilla_oracle"] * 1.0005
    assert checks.check_compare(0, rows, expected)[0] == []


def test_compare_hiding_the_gap_fails(expected):
    rows = exact_rows(expected)
    del rows["ancilla"]
    assert any("hidden" in f for f in checks.check_compare(0, rows, expected)[0])
    rows = exact_rows(expected)
    rows["ancilla"]["gamma_model"] = rows["ancilla"]["gamma_fit"]
    assert checks.check_compare(0, rows, expected)[0]


def test_compare_nonzero_exit_fails(expected):
    failures, report = checks.check_compare(3, {}, expected)
    assert failures == ["compare: exit code 3"] and report is None


def test_rate_off_by_one_percent_fails():
    model = checks.gamma_wm(GAMMA, 0.5, checks.optimal_gain(GAMMA, 0.5))
    assert checks.check_rate(model * 1.01, model, "x")
    assert checks.check_rate(model * 0.99, model, "x")
    assert checks.check_rate(model * 1.004, model, "x") == []
    assert checks.check_rate(math.nan, model, "x")


def test_argmin_two_steps_off_fails():
    rates = np.abs(np.arange(21) - 12.0)
    assert checks.check_argmin(rates, 10, "x")
    assert checks.check_argmin(np.abs(np.arange(21) - 11.0), 10, "x") == []


def ensemble_output(shift_sem=0.0, at=5):
    times = 0.5 * np.arange(11)
    sem = np.full(11, 0.002)
    sem[0] = 0.0
    mean = np.exp(-GAMMA * times)
    mean[at] += shift_sem * sem[at]
    return times, mean, sem


def test_ensemble_mean_shifted_by_six_sem_fails():
    assert checks.check_ensemble(*ensemble_output(), GAMMA) == []
    assert checks.check_ensemble(*ensemble_output(4.9), GAMMA) == []
    failures = checks.check_ensemble(*ensemble_output(6.0), GAMMA)
    assert len(failures) == 1 and "6.00 SEM" in failures[0]
    assert checks.check_ensemble(*ensemble_output(-6.0, at=10), GAMMA)


def test_ensemble_gap_at_zero_or_zero_sem_fails():
    times, mean, sem = ensemble_output()
    mean[0] = 1.0 - 1e-12
    assert checks.check_ensemble(times, mean, sem, GAMMA)
    times, mean, sem = ensemble_output(1.0)
    sem[5] = 0.0
    assert checks.check_ensemble(times, mean, sem, GAMMA)


def test_record_and_model_checks():
    assert checks.check_record_rows(5999, 6000, "r")
    assert checks.check_record_rows(6000, 6000, "r") == []
    assert checks.check_model_metadata({"epochs_run": 3, "test_r": None}, "m") == []
    assert checks.check_model_metadata({"epochs_run": 3, "test_r": 0.1}, "m") == []
    assert checks.check_model_metadata({"epochs_run": 0, "test_r": 0.1}, "m")
    assert checks.check_model_metadata({"epochs_run": 3, "test_r": math.nan}, "m")
    assert checks.check_model_metadata({"epochs_run": 3}, "m")


def test_recorder_counts_exceptions_and_failed_checks():
    rec = workloads.Recorder()
    idx, value = rec.op(lambda: 2)
    rec.fail(idx, checks.check_exit(value, "cmd"))
    rec.op(lambda: 1 / 0)
    rec.op(lambda: 0)
    assert rec.ok == [False, False, True]
    assert len(rec.durations) == 3


def test_gain_sweep_counts_a_rate_off_by_one_percent(tmp_path, monkeypatch):
    sweep = workloads.GainSweep(1, str(tmp_path), etas=(1.0,))
    rec = workloads.Recorder()
    sweep.run_pass(0, rec)
    assert rec.ok == [True] * 21

    original = qlift.fitting.fit_exponential_offset

    def off(trace):
        fit = original(trace)
        return qlift.DecayFit(fit.gamma_eff * 1.01, fit.rms_residual, fit.n_points_used)

    monkeypatch.setattr(qlift.fitting, "fit_exponential_offset", off)
    rec = workloads.Recorder()
    sweep.run_pass(1, rec)
    assert rec.ok == [False] * 21


def test_ensemble_counts_a_mean_shifted_by_six_sem(tmp_path, monkeypatch):
    ens = workloads.Ensemble(3, str(tmp_path), n_trajectories=200, t_final=1.0)
    rec = workloads.Recorder()
    ens.run_pass(0, rec)
    assert rec.ok == [True]

    original = qlift.stochastic.run_ensemble

    def shifted(spec, config):
        res = original(spec, config)
        # push the mean 6 SEM further from exp(-gamma t) at every sample
        away = np.where(res.mean_pe >= np.exp(-GAMMA * res.times), 1.0, -1.0)
        mean = res.mean_pe + 6.0 * res.sem_pe * away
        return qlift.stochastic.EnsembleResult(res.times, mean, res.sem_pe, res.records)

    monkeypatch.setattr(qlift.stochastic, "run_ensemble", shifted)
    rec = workloads.Recorder()
    ens.run_pass(1, rec)
    assert rec.ok == [False]


def test_record_train_counts_a_nonzero_exit(tmp_path, monkeypatch):
    work = workloads.RecordTrain(5, str(tmp_path), n_records=2, t_final=20.0)
    rec = workloads.Recorder()
    work.run_pass(0, rec)
    assert rec.ok == [True, True, True], rec.messages

    original = qlift.cli.main
    monkeypatch.setattr(qlift.cli, "main",
                        lambda argv: 3 if argv[0] == "train" else original(argv))
    rec = workloads.Recorder()
    work.run_pass(1, rec)
    assert rec.ok == [True, False, False]


def test_compare_counts_a_nonzero_exit(tmp_path, monkeypatch):
    comp = workloads.Compare(1, str(tmp_path))
    monkeypatch.setattr(qlift.cli, "main", lambda argv: 4)
    rec = workloads.Recorder()
    comp.run_pass(0, rec)
    assert rec.ok == [False] and "exit code 4" in rec.messages[0]


def test_compare_counts_a_missing_output_file(tmp_path, monkeypatch):
    comp = workloads.Compare(1, str(tmp_path))
    monkeypatch.setattr(qlift.cli, "main", lambda argv: 0)
    rec = workloads.Recorder()
    comp.run_pass(0, rec)
    assert rec.ok == [False] and "FileNotFoundError" in rec.messages[0]


def test_same_seed_gives_same_inputs(tmp_path):
    for name in "abc":
        (tmp_path / name).mkdir()
    a = workloads.Ensemble(9, str(tmp_path / "a"), n_trajectories=10, t_final=1.0)
    b = workloads.Ensemble(9, str(tmp_path / "b"), n_trajectories=10, t_final=1.0)
    c = workloads.Ensemble(10, str(tmp_path / "c"), n_trajectories=10, t_final=1.0)
    assert a.grid(2) == b.grid(2)
    assert a.grid(2).seed != a.grid(3).seed != c.grid(2).seed
