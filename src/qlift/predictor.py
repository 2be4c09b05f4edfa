"""One-step-ahead prediction of the homodyne record with a small MLP.

The network maps a window of consecutive current samples to the next sample:
5 inputs, two ReLU hidden layers of 32 and 16 units, one linear output.
Everything, forward pass, backprop, and Adam, is written out here so the
arithmetic is auditable end to end; the only dependency is numpy arrays.

Inputs are standardized with statistics taken from the training half of the
record only.  The quality score is the Pearson correlation r between
predicted and actual next samples on the held-out test half.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .traces import HomodyneRecord

HIDDEN_SIZES = (32, 16)
# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; .model holds the best-validation snapshot."""

    def __init__(self, message, model):
        super().__init__(message)
        self.model = model


@dataclass(frozen=True)
class WindowDataset:
    """Sliding-window (inputs -> next sample) pairs, split chronologically.

    inputs[i] is samples[i : i + window] and targets[i] is
    samples[i + window].  Pairs before split_index form the training half,
    the rest the test half.
    """

    inputs: np.ndarray
    targets: np.ndarray
    split_index: int

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.targets.ndim != 1:
            raise ValueError("inputs must be 2-d and targets 1-d")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets disagree on the number of pairs")
        if not (0 < self.split_index < self.inputs.shape[0]):
            raise ValueError("split must leave both halves non-empty")

    @property
    def window(self) -> int:
        return self.inputs.shape[1]


def build_dataset(record: HomodyneRecord, window: int = 5) -> WindowDataset:
    """Slide a window of the given length over the record.

    Raises ValueError when the record has fewer than window + 2 samples
    (at least one training and one test pair are required).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    samples = record.samples
    n_pairs = samples.shape[0] - window
    if n_pairs < 2:
        raise ValueError(
            f"record of {samples.shape[0]} samples is too short for window {window}"
        )
    idx = np.arange(n_pairs)[:, None] + np.arange(window)[None, :]
    return WindowDataset(
        inputs=samples[idx].astype(float),
        targets=samples[window:].astype(float),
        split_index=n_pairs // 2,
    )


@dataclass
class Mlp:
    """Network parameters plus the input standardizer and training metadata.

    params holds [W1, b1, W2, b2, W3, b3] with W_k of shape (fan_out, fan_in).
    mean and std standardize raw samples; predictions are mapped back with
    the same statistics.
    """

    params: list
    mean: float = 0.0
    std: float = 1.0
    metadata: dict = field(default_factory=dict)


def init_mlp(window: int = 5, seed: int = 0) -> Mlp:
    """Glorot-uniform initialized network, biases at zero."""
    rng = np.random.default_rng(seed)
    sizes = (window,) + HIDDEN_SIZES + (1,)
    params = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        params.append(np.zeros(fan_out))
    return Mlp(params=params)


def _forward_trace(params, Z):
    """Forward pass keeping pre-activations for backprop."""
    W1, b1, W2, b2, W3, b3 = params
    a1 = Z @ W1.T + b1
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ W2.T + b2
    h2 = np.maximum(a2, 0.0)
    out = h2 @ W3.T + b3
    return out[:, 0], (a1, h1, a2, h2)


def forward(mlp: Mlp, Z: np.ndarray) -> np.ndarray:
    """Network output for standardized input rows Z of shape (n, window)."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    out, _ = _forward_trace(mlp.params, Z)
    return out


def _predict_raw(mlp: Mlp, X: np.ndarray) -> np.ndarray:
    """Raw-scale predictions for raw input rows X, through the standardizer."""
    return mlp.mean + mlp.std * forward(mlp, (X - mlp.mean) / mlp.std)


def loss_mse(mlp: Mlp, Z: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error of the network on standardized pairs."""
    pred = forward(mlp, Z)
    return float(np.mean((pred - np.asarray(y, dtype=float)) ** 2))


def gradients(mlp: Mlp, Z: np.ndarray, y: np.ndarray):
    """Backprop gradients of loss_mse in the same layout as mlp.params.

    ReLU is given derivative 0 at exactly 0.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    y = np.asarray(y, dtype=float)
    W1, b1, W2, b2, W3, b3 = mlp.params
    pred, (a1, h1, a2, h2) = _forward_trace(mlp.params, Z)
    n = Z.shape[0]

    d_out = (2.0 / n) * (pred - y)
    dW3 = d_out[None, :] @ h2
    db3 = np.array([d_out.sum()])
    d2 = (d_out[:, None] * W3) * (a2 > 0.0)
    dW2 = d2.T @ h1
    db2 = d2.sum(axis=0)
    d1 = (d2 @ W2) * (a1 > 0.0)
    dW1 = d1.T @ Z
    db1 = d1.sum(axis=0)
    return [dW1, db1, dW2, db2, dW3, db3]


def _unflatten(theta, shapes):
    """Views into a flat parameter vector, one per tensor shape."""
    params = []
    start = 0
    for shape in shapes:
        size = math.prod(shape)
        params.append(theta[start:start + size].reshape(shape))
        start += size
    return params


@dataclass(frozen=True)
class TrainSettings:
    learning_rate: float = 1e-3
    batch_size: int = 32
    patience: int = 20
    max_epochs: int = 2000
    val_fraction: float = 0.2
    seed: int = 0


def train(dataset: WindowDataset, settings: TrainSettings | None = None) -> Mlp:
    """Fit the network on the training half of the dataset.

    The last val_fraction of the training half is held out for early
    stopping: training stops after ``patience`` validation evaluations (one
    per epoch) without improvement, and the best-validation snapshot is
    returned.  Standardization statistics come from the training half.

    Metadata on the returned model records the raw-scale train, validation,
    and test MSE, the validation history, the test correlation (None when
    the prediction has no spread), and the last-value-hold baseline MSE on
    the test half.
    """
    if settings is None:
        settings = TrainSettings()
    split = dataset.split_index
    X_train_half, y_train_half = dataset.inputs[:split], dataset.targets[:split]
    X_test, y_test = dataset.inputs[split:], dataset.targets[split:]

    n_val = max(1, int(round(settings.val_fraction * split)))
    if split - n_val < 1:
        raise ValueError("training half too small to carve out a validation set")
    mean = float(X_train_half.mean())
    std = float(X_train_half.std())
    if std < 1e-12:
        std = 1.0

    Z, y = (X_train_half - mean) / std, (y_train_half - mean) / std
    Zt, yt = Z[: split - n_val], y[: split - n_val]
    Zv, yv = Z[split - n_val:], y[split - n_val:]

    mlp = init_mlp(window=dataset.window, seed=settings.seed)
    shapes = [p.shape for p in mlp.params]
    # one flat parameter vector, mlp.params being views into it: Adam is
    # elementwise, so one update of the whole vector equals one per tensor
    theta = np.concatenate([p.ravel() for p in mlp.params])
    mlp.params = _unflatten(theta, shapes)
    rng = np.random.default_rng(settings.seed + 1)
    m_adam = np.zeros_like(theta)
    v_adam = np.zeros_like(theta)
    t_adam = 0

    best_val = math.inf
    best_theta = theta.copy()
    best_epoch = 0
    stale = 0
    val_history = []
    n_fit = Zt.shape[0]
    diverged = None

    for epoch in range(1, settings.max_epochs + 1):
        order = rng.permutation(n_fit)
        Zo, yo = Zt[order], yt[order]
        for start in range(0, n_fit, settings.batch_size):
            stop = start + settings.batch_size
            grads = gradients(mlp, Zo[start:stop], yo[start:stop])
            g = np.concatenate([d.ravel() for d in grads])
            t_adam += 1
            bc1 = 1.0 - ADAM_BETA1 ** t_adam
            bc2 = 1.0 - ADAM_BETA2 ** t_adam
            m_adam *= ADAM_BETA1
            m_adam += (1.0 - ADAM_BETA1) * g
            v_adam *= ADAM_BETA2
            v_adam += (1.0 - ADAM_BETA2) * g * g
            theta -= settings.learning_rate * (m_adam / bc1) / (np.sqrt(v_adam / bc2) + ADAM_EPS)

        val_mse = loss_mse(mlp, Zv, yv)
        if not math.isfinite(val_mse):
            diverged = f"validation loss non-finite at epoch {epoch}"
            break
        val_history.append(val_mse)
        if val_mse < best_val:
            best_val = val_mse
            best_theta = theta.copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= settings.patience:
                break

    mlp.params = [p.copy() for p in _unflatten(best_theta, shapes)]
    mlp.mean, mlp.std = mean, std
    if diverged:
        raise TrainingDiverged(diverged, mlp)

    pred_train = _predict_raw(mlp, X_train_half[: split - n_val])
    pred_test = _predict_raw(mlp, X_test)
    baseline = float(np.mean((X_test[:, -1] - y_test) ** 2))
    try:
        test_r = correlation_r(pred_test, y_test)
    except ValueError:
        # a collapsed (constant) prediction has no defined correlation
        test_r = None
    mlp.metadata = {
        "train_mse": float(np.mean((pred_train - y_train_half[: split - n_val]) ** 2)),
        "val_mse": best_val * std * std,
        "val_history": [v * std * std for v in val_history],
        "test_mse": float(np.mean((pred_test - y_test) ** 2)),
        "test_r": test_r,
        "baseline_mse": baseline,
        "epochs_run": len(val_history),
        "best_epoch": best_epoch,
    }
    return mlp


def predict_next(mlp: Mlp, window_samples) -> float:
    """Predict the sample following a raw window of current samples."""
    x = np.asarray(window_samples, dtype=float)
    expected = mlp.params[0].shape[1]
    if x.shape != (expected,):
        raise ValueError(f"expected {expected} samples, got shape {x.shape}")
    return float(_predict_raw(mlp, x[None, :])[0])


def correlation_r(predicted, actual) -> float:
    """Pearson correlation between two sequences.

    Raises ValueError when either sequence has zero variance; a flat
    prediction is a degenerate score, not r = 0.
    """
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 1 or p.shape[0] < 2:
        raise ValueError("need two equal-length sequences of at least 2 points")
    if p.std() < 1e-15 or a.std() < 1e-15:
        raise ValueError("correlation undefined for zero-variance input")
    return float(np.corrcoef(p, a)[0, 1])


def save_model(mlp: Mlp, path) -> None:
    """Write the model as JSON; float round-trip is exact."""
    blob = {
        "window": int(mlp.params[0].shape[1]),
        "hidden": list(HIDDEN_SIZES),
        "params": [p.tolist() for p in mlp.params],
        "mean": mlp.mean,
        "std": mlp.std,
        "metadata": mlp.metadata,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)


def load_model(path) -> Mlp:
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    params = [np.asarray(p, dtype=float) for p in blob["params"]]
    if tuple(blob["hidden"]) != HIDDEN_SIZES:
        raise ValueError(f"unsupported hidden sizes {blob['hidden']}")
    return Mlp(params=params, mean=blob["mean"], std=blob["std"], metadata=blob["metadata"])
