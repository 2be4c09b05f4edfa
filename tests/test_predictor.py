import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlift
from qlift import predictor
from qlift.dynamics import SchemeKind, SchemeSpec, TrajectoryConfig
from qlift.predictor import (
    Mlp,
    TrainingDiverged,
    TrainSettings,
    WindowDataset,
    build_dataset,
    correlation_r,
    forward,
    gradients,
    init_mlp,
    load_model,
    loss_mse,
    predict_next,
    save_model,
    train,
)
from qlift.stochastic import run_ensemble
from qlift.traces import HomodyneRecord


def damped_sine_record(n=300, decay=200.0, freq=0.4):
    k = np.arange(n)
    return HomodyneRecord(0.5, np.exp(-k / decay) * np.sin(freq * k))


def reference_train(dataset, settings=TrainSettings()):
    """train() as it was with one Adam update per parameter tensor, and its
    per-batch fancy indexing.  Returns (params, metadata); on divergence,
    (params of the best-validation snapshot, None)."""
    split = dataset.split_index
    X_half, y_half = dataset.inputs[:split], dataset.targets[:split]
    X_test, y_test = dataset.inputs[split:], dataset.targets[split:]
    n_val = max(1, int(round(settings.val_fraction * split)))
    mean = float(X_half.mean())
    std = float(X_half.std())
    if std < 1e-12:
        std = 1.0

    def z(X):
        return (X - mean) / std

    Zt, yt = z(X_half[: split - n_val]), z(y_half[: split - n_val])
    Zv, yv = z(X_half[split - n_val:]), z(y_half[split - n_val:])

    mlp = init_mlp(window=dataset.window, seed=settings.seed)
    rng = np.random.default_rng(settings.seed + 1)
    m_adam = [np.zeros_like(p) for p in mlp.params]
    v_adam = [np.zeros_like(p) for p in mlp.params]
    t_adam = 0
    best_val = math.inf
    best_params = copy.deepcopy(mlp.params)
    best_epoch = 0
    stale = 0
    val_history = []
    n_fit = Zt.shape[0]
    for epoch in range(1, settings.max_epochs + 1):
        order = rng.permutation(n_fit)
        for start in range(0, n_fit, settings.batch_size):
            batch = order[start: start + settings.batch_size]
            grads = gradients(mlp, Zt[batch], yt[batch])
            t_adam += 1
            bc1 = 1.0 - predictor.ADAM_BETA1 ** t_adam
            bc2 = 1.0 - predictor.ADAM_BETA2 ** t_adam
            for p, g, m_, v_ in zip(mlp.params, grads, m_adam, v_adam):
                m_ *= predictor.ADAM_BETA1
                m_ += (1.0 - predictor.ADAM_BETA1) * g
                v_ *= predictor.ADAM_BETA2
                v_ += (1.0 - predictor.ADAM_BETA2) * g * g
                p -= (settings.learning_rate * (m_ / bc1)
                      / (np.sqrt(v_ / bc2) + predictor.ADAM_EPS))
        val_mse = loss_mse(mlp, Zv, yv)
        if not math.isfinite(val_mse):
            return best_params, None
        val_history.append(val_mse)
        if val_mse < best_val:
            best_val = val_mse
            best_params = copy.deepcopy(mlp.params)
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= settings.patience:
                break

    mlp.params = best_params
    pred_test = mean + std * forward(mlp, z(X_test))
    try:
        test_r = correlation_r(pred_test, y_test)
    except ValueError:
        test_r = None
    meta = {"val_history": [v * std * std for v in val_history],
            "epochs_run": len(val_history), "best_epoch": best_epoch, "test_r": test_r}
    return best_params, meta


def sme_record():
    spec = SchemeSpec(SchemeKind.NO_FEEDBACK, gamma=0.02, eta=1.0)
    cfg = TrajectoryConfig(dt=0.05, t_final=250.0, seed=7, n_trajectories=1, tau=0.5)
    return HomodyneRecord(cfg.tau, run_ensemble(spec, cfg).records[0])


class TestBuildDataset:
    def test_shapes_and_split(self):
        rec = HomodyneRecord(0.5, np.arange(12.0))
        ds = build_dataset(rec, window=5)
        assert ds.inputs.shape == (7, 5)
        assert ds.targets.shape == (7,)
        assert ds.split_index == 3
        assert ds.window == 5

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=7, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_windows_reconstruct_the_record(self, values):
        samples = np.asarray(values)
        ds = build_dataset(HomodyneRecord(1.0, samples), window=5)
        n_pairs = len(values) - 5
        assert ds.inputs.shape == (n_pairs, 5)
        for i in range(n_pairs):
            assert np.array_equal(ds.inputs[i], samples[i: i + 5])
        assert np.array_equal(ds.targets, samples[5:])
        assert ds.split_index == n_pairs // 2

    def test_too_short_record_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            build_dataset(HomodyneRecord(0.5, np.arange(6.0)), window=5)

    @pytest.mark.parametrize("window", [0, 2.5])
    def test_bad_window_rejected(self, window):
        # unchecked, 2.5 raised IndexError
        with pytest.raises(ValueError, match="window"):
            build_dataset(HomodyneRecord(0.5, np.arange(10.0)), window=window)

    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            WindowDataset(np.zeros(4), np.zeros(4), 2)
        with pytest.raises(ValueError, match="number of pairs"):
            WindowDataset(np.zeros((4, 5)), np.zeros(3), 2)
        with pytest.raises(ValueError, match="halves"):
            WindowDataset(np.zeros((4, 5)), np.zeros(4), 4)


class TestTrainSettings:
    @pytest.mark.parametrize("name, value", [
        ("learning_rate", -1e-3), ("learning_rate", math.nan), ("batch_size", 0),
        ("batch_size", 2.5), ("patience", 0), ("max_epochs", 0), ("val_fraction", 0.0),
        ("val_fraction", 1.0), ("seed", -1),
    ])
    def test_field_out_of_range_is_named(self, name, value):
        # unchecked, learning_rate -1e-3 trained uphill and batch_size 0 raised
        # from range()
        with pytest.raises(ValueError, match=f"^{name} must"):
            TrainSettings(**{name: value})

    def test_integral_float_count_is_that_integer(self):
        settings = TrainSettings(batch_size=16.0)
        assert settings == TrainSettings(batch_size=16)
        assert type(settings.batch_size) is int


class TestNetworkPieces:
    def test_init_is_seed_deterministic(self):
        a, b = init_mlp(seed=3), init_mlp(seed=3)
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa, pb)
        c = init_mlp(seed=4)
        assert not np.array_equal(a.params[0], c.params[0])

    def test_init_shapes_and_bounds(self):
        mlp = init_mlp(window=5, seed=0)
        shapes = [p.shape for p in mlp.params]
        assert shapes == [(32, 5), (32,), (16, 32), (16,), (1, 16), (1,)]
        for w, (fan_out, fan_in) in zip(mlp.params[0::2], [(32, 5), (16, 32), (1, 16)]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(w).max() <= bound
        for b in mlp.params[1::2]:
            assert np.array_equal(b, np.zeros_like(b))

    def test_forward_matches_manual_network(self, rng):
        mlp = init_mlp(seed=1)
        Z = rng.normal(size=(6, 5))
        out = forward(mlp, Z)
        W1, b1, W2, b2, W3, b3 = mlp.params
        for i in range(6):
            h1 = np.maximum(W1 @ Z[i] + b1, 0.0)
            h2 = np.maximum(W2 @ h1 + b2, 0.0)
            expected = (W3 @ h2 + b3)[0]
            assert out[i] == pytest.approx(expected, abs=1e-12)

    def test_loss_is_mean_squared_error(self, rng):
        mlp = init_mlp(seed=2)
        Z = rng.normal(size=(8, 5))
        y = rng.normal(size=8)
        assert loss_mse(mlp, Z, y) == pytest.approx(
            np.mean((forward(mlp, Z) - y) ** 2), rel=1e-14)

    def test_gradients_match_finite_differences(self, rng):
        mlp = init_mlp(seed=5)
        Z = rng.normal(size=(12, 5))
        y = rng.normal(size=12)
        analytic = gradients(mlp, Z, y)
        h = 1e-5
        for p, g in zip(mlp.params, analytic):
            numeric = np.zeros_like(p)
            flat_p = p.reshape(-1)
            flat_n = numeric.reshape(-1)
            for j in range(flat_p.size):
                keep = flat_p[j]
                flat_p[j] = keep + h
                up = loss_mse(mlp, Z, y)
                flat_p[j] = keep - h
                down = loss_mse(mlp, Z, y)
                flat_p[j] = keep
                flat_n[j] = (up - down) / (2.0 * h)
            scale = np.maximum(np.abs(numeric), 1e-8)
            assert np.max(np.abs(g - numeric) / scale) < 1e-4


class TestTraining:
    def test_learns_damped_oscillation(self):
        ds = build_dataset(damped_sine_record())
        model = train(ds, TrainSettings(patience=60))
        meta = model.metadata
        assert meta["test_r"] >= 0.995
        assert meta["test_mse"] < meta["baseline_mse"]
        assert meta["val_history"][meta["best_epoch"] - 1] == pytest.approx(
            min(meta["val_history"]))

    def test_trained_model_predicts_next_sample(self):
        rec = damped_sine_record()
        model = train(build_dataset(rec), TrainSettings(patience=60))
        sig = rec.samples
        for i in (150, 200, 260):
            assert predict_next(model, sig[i: i + 5]) == pytest.approx(
                sig[i + 5], abs=0.05)

    def test_white_noise_has_no_predictable_structure(self):
        noise = np.random.default_rng(7).normal(size=400)
        model = train(build_dataset(HomodyneRecord(0.5, noise)))
        r = model.metadata["test_r"]
        n_test = 400 - 5 - (400 - 5) // 2
        assert r is None or abs(r) <= 3.0 / math.sqrt(n_test)

    def test_constant_record_uses_std_clamp_path(self):
        model = train(build_dataset(HomodyneRecord(0.5, np.full(40, 3.7))))
        assert model.std == 1.0
        assert model.mean == pytest.approx(3.7)
        assert model.metadata["test_mse"] < 1e-6
        assert model.metadata["test_r"] is None
        assert predict_next(model, np.full(5, 3.7)) == pytest.approx(3.7, abs=1e-6)

    def test_retrain_is_bit_identical(self):
        ds = build_dataset(damped_sine_record(n=120))
        a = train(ds)
        b = train(ds)
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa, pb)
        assert a.metadata == b.metadata

    def test_validation_carveout_must_fit(self):
        ds = build_dataset(HomodyneRecord(0.5, np.arange(8.0)))  # split_index 1
        with pytest.raises(ValueError, match="validation"):
            train(ds)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_last_snapshot(self):
        rng = np.random.default_rng(3)
        ds = build_dataset(HomodyneRecord(0.5, rng.normal(size=80)))
        with pytest.raises(TrainingDiverged) as exc:
            train(ds, TrainSettings(learning_rate=1e120, max_epochs=30))
        assert isinstance(exc.value.model, Mlp)
        assert "non-finite" in str(exc.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_model_keeps_the_training_half_standardizer(self):
        # samples around 5, which the default standardizer (0, 1) would misread
        ds = build_dataset(HomodyneRecord(0.5, 5.0 + np.random.default_rng(3).normal(size=400)))
        with pytest.raises(TrainingDiverged) as exc:
            train(ds, TrainSettings(learning_rate=1e120, max_epochs=30))
        half = ds.inputs[:ds.split_index]
        assert exc.value.model.mean == float(half.mean())
        assert exc.value.model.std == float(half.std())
        assert abs(exc.value.model.mean - 5.0) < 0.2


class TestTrainingMatchesPerTensorAdam:
    @pytest.mark.parametrize("make_record, settings", [
        pytest.param(damped_sine_record, TrainSettings(max_epochs=120), id="damped-sine"),
        pytest.param(lambda: HomodyneRecord(0.5, np.random.default_rng(7).normal(size=400)),
                     TrainSettings(), id="white-noise"),
        pytest.param(sme_record, TrainSettings(batch_size=20, seed=4), id="run-ensemble"),
    ])
    def test_bit_identical(self, make_record, settings):
        ds = build_dataset(make_record())
        model = train(ds, settings)
        params, meta = reference_train(ds, settings)
        for got, want in zip(model.params, params, strict=True):
            assert np.array_equal(got, want)
        for key in ("val_history", "epochs_run", "best_epoch", "test_r"):
            assert model.metadata[key] == meta[key]

    def test_returned_params_own_their_memory(self):
        model = train(build_dataset(damped_sine_record(n=120)), TrainSettings(max_epochs=5))
        assert all(p.flags.owndata for p in model.params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_snapshot_is_bit_identical_and_owned(self, monkeypatch):
        ds = build_dataset(HomodyneRecord(0.5, np.random.default_rng(3).normal(size=80)))
        settings = TrainSettings(learning_rate=1e120, max_epochs=30)
        params, meta = reference_train(ds, settings)
        assert meta is None

        # the parameters train() is working on, as gradients() last saw them
        working = []
        real = predictor.gradients

        def spy(mlp, Z, y):
            working[:] = mlp.params
            return real(mlp, Z, y)

        monkeypatch.setattr(predictor, "gradients", spy)
        with pytest.raises(TrainingDiverged) as exc:
            train(ds, settings)
        snapshot = exc.value.model.params
        for got, want in zip(snapshot, params, strict=True):
            assert np.array_equal(got, want)
        assert working
        for p in snapshot:
            assert p.flags.owndata
            assert not any(np.shares_memory(p, q) for q in working)


class TestPersistence:
    def test_round_trip_is_exact(self, tmp_path):
        model = train(build_dataset(damped_sine_record(n=120)))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        for pa, pb in zip(model.params, back.params):
            assert np.array_equal(pa, pb)
        assert back.mean == model.mean
        assert back.std == model.std
        assert back.metadata == model.metadata

    def test_loaded_model_predicts_identically(self, tmp_path):
        rec = damped_sine_record(n=120)
        model = train(build_dataset(rec))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        window = rec.samples[40:45]
        assert predict_next(back, window) == predict_next(model, window)

    def test_load_leaves_numpy_random_unloaded(self, tmp_path):
        # the shapes a file must hold follow from its window; no network is drawn
        path = tmp_path / "model.json"
        save_model(init_mlp(window=4), path)
        code = ("import sys, qlift; qlift.load_model(sys.argv[1]); "
                "print('numpy.random' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(qlift.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "False\n"

    def test_rejects_foreign_architecture(self, tmp_path):
        model = init_mlp()
        path = tmp_path / "model.json"
        save_model(model, path)
        import json

        blob = json.loads(path.read_text())
        blob["hidden"] = [8, 8]
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="hidden"):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda blob: blob["params"].pop(),  # the last bias dropped
        lambda blob: blob["params"].__setitem__(2, np.ones((16, 3)).tolist()),  # W2 of fan-in 3
        lambda blob: blob.__setitem__("window", 5),  # W1 of fan-in 4 in a 5-sample file
    ], ids=["missing-tensor", "w2-shape", "window-mismatch"])
    def test_rejects_tensors_of_another_network(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(init_mlp(window=4), path)
        blob = json.loads(path.read_text())
        edit(blob)
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda blob: blob.__setitem__("window", "5"),
        lambda blob: blob.__setitem__("window", True),
        lambda blob: blob.__setitem__("window", 0),
        lambda blob: blob.pop("mean"),
        lambda blob: blob.pop("params"),
        lambda blob: blob.__setitem__("std", None),
        # unchecked, a standardizer of std 0 or mean nan loaded and predicted nan
        lambda blob: blob.__setitem__("std", 0.0),
        lambda blob: blob.__setitem__("mean", math.nan),
        lambda blob: blob.__setitem__("hidden", 32),
        lambda blob: blob.__setitem__("metadata", []),
        lambda blob: blob["params"][0][0].__setitem__(0, "x"),
    ], ids=["window-string", "window-bool", "window-zero", "no-mean", "no-params",
            "std-null", "std-zero", "mean-nan", "hidden-number", "metadata-list", "weight-string"])
    def test_rejects_malformed_file_naming_it(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(init_mlp(window=5), path)
        blob = json.loads(path.read_text())
        edit(blob)
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_model(path)

    def test_rejects_a_file_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_model(path)


class TestPredictNext:
    def test_rejects_wrong_window_length(self):
        mlp = init_mlp(window=5)
        with pytest.raises(ValueError, match="expected 5"):
            predict_next(mlp, np.zeros(4))
        with pytest.raises(ValueError, match="expected 5"):
            predict_next(mlp, np.zeros((5, 1)))


class TestCorrelation:
    def test_perfect_and_anti(self):
        x = np.array([1.0, 2.0, 4.0, 7.0])
        assert correlation_r(3 * x + 1, x) == pytest.approx(1.0)
        assert correlation_r(-2 * x, x) == pytest.approx(-1.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            correlation_r(np.ones(5), np.arange(5.0))
        with pytest.raises(ValueError, match="zero-variance"):
            correlation_r(np.arange(5.0), np.ones(5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # unchecked, nan gave r = nan and inf gave numpy RuntimeWarnings
        x = np.array([1.0, 2.0, 4.0, 7.0])
        with pytest.raises(ValueError, match="non-finite"):
            correlation_r(np.array([1.0, bad, 3.0, 5.0]), x)
        with pytest.raises(ValueError, match="non-finite"):
            correlation_r(x, np.array([1.0, 2.0, bad, 5.0]))

    def test_shape_requirements(self):
        with pytest.raises(ValueError):
            correlation_r(np.arange(3.0), np.arange(4.0))
        with pytest.raises(ValueError):
            correlation_r(np.array([1.0]), np.array([2.0]))
