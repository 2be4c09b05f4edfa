"""Time-series containers shared by the simulation and analysis layers: each is
a sample period and the values sampled at it from t = 0, with ``times`` derived.
Times are in microseconds throughout; rates are in inverse microseconds.
"""

import math
from dataclasses import dataclass

import numpy as np

# How far P_e may stray outside [0, 1] before a trace is considered corrupt.
PE_TOLERANCE = 1e-9


def _check_period(sample_period: float) -> None:
    if not (sample_period > 0 and math.isfinite(sample_period)):
        raise ValueError("sample_period must be positive and finite")


@dataclass(frozen=True)
class PopulationTrace:
    """Excited-state population sampled at a uniform period from t = 0:
    ``pe[k]`` is P_e at t = k * sample_period (microseconds).  Values must lie
    in [0, 1] up to ``PE_TOLERANCE``.
    """

    sample_period: float
    pe: np.ndarray

    def __post_init__(self):
        pe = np.asarray(self.pe, dtype=float)
        object.__setattr__(self, "pe", pe)
        _check_period(self.sample_period)
        if pe.ndim != 1 or pe.shape[0] < 2:
            raise ValueError("pe must be a one-dimensional array of at least two samples")
        if not np.isfinite(pe).all():
            raise ValueError("trace contains non-finite values")
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
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        _check_period(self.sample_period)
        if samples.ndim != 1 or samples.shape[0] < 1:
            raise ValueError("samples must be a non-empty one-dimensional array")
        if not np.isfinite(samples).all():
            raise ValueError("record contains non-finite samples")

    @property
    def times(self) -> np.ndarray:
        return self.sample_period * np.arange(self.samples.shape[0])
