"""Time-series containers shared by the simulation and analysis layers: each is
a sample period and the values sampled at it from t = 0, with ``times`` derived.
Times are in microseconds throughout; rates are in inverse microseconds.
It also holds the five checks of every scalar parameter of the package: each
returns the value (an int for a count) or raises a ValueError naming it.
"""

import math
from dataclasses import dataclass

import numpy as np

# How far P_e may stray outside [0, 1] before a trace is considered corrupt.
PE_TOLERANCE = 1e-9


def check_finite(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def check_positive(value: float, name: str) -> float:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def check_nonnegative(value: float, name: str) -> float:
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be >= 0 and finite, got {value!r}")
    return float(value)


def check_efficiency(value: float, name: str) -> float:
    if not 0.0 < value <= 1.0:  # false for nan
        raise ValueError(f"{name} must lie in (0, 1], got {value!r}")
    return float(value)


def check_count(value, name: str, least: int) -> int:
    if not (value % 1 == 0 and value >= least):  # value % 1 is nan for an inf or nan value
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_series(sample_period, values, least: int, non_finite: str, bad_shape: str):
    """values as a float array, after the rules every series shares: a positive
    sample period, one dimension of at least least samples, and finite values."""
    values = np.asarray(values, dtype=float)
    check_positive(sample_period, "sample_period")
    if values.ndim != 1 or values.shape[0] < least:
        raise ValueError(bad_shape)
    if not np.isfinite(values).all():
        raise ValueError(non_finite)
    return values


@dataclass(frozen=True)
class PopulationTrace:
    """Excited-state population sampled at a uniform period from t = 0:
    ``pe[k]`` is P_e at t = k * sample_period (microseconds).  Values must lie
    in [0, 1] up to ``PE_TOLERANCE``.
    """

    sample_period: float
    pe: np.ndarray

    def __post_init__(self):
        pe = _check_series(self.sample_period, self.pe, 2, "trace contains non-finite values",
                           "pe must be a one-dimensional array of at least two samples")
        object.__setattr__(self, "pe", pe)
        if pe.min() < -PE_TOLERANCE or pe.max() > 1.0 + PE_TOLERANCE:
            raise ValueError(f"population out of [0, 1]: min={pe.min():.3e}, max={pe.max():.3e}")

    @property
    def times(self) -> np.ndarray:
        return self.sample_period * np.arange(self.pe.shape[0])


@dataclass(frozen=True)
class HomodyneRecord:
    """A single trajectory's homodyne current, decimated to a uniform period.

    ``samples[k]`` is the current taken over the integration step that begins
    at t = k * sample_period.  The current is dimensionless in the convention
    used here (rates in 1/us absorbed into the amplitude).
    """

    sample_period: float
    samples: np.ndarray

    def __post_init__(self):
        samples = _check_series(self.sample_period, self.samples, 1,
                                "record contains non-finite samples",
                                "samples must be a non-empty one-dimensional array")
        object.__setattr__(self, "samples", samples)

    @property
    def times(self) -> np.ndarray:
        return self.sample_period * np.arange(self.samples.shape[0])
