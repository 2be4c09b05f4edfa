"""Time-series containers shared by the simulation and analysis layers.

Times are in microseconds throughout; rates are in inverse microseconds.
"""

import math
from dataclasses import dataclass

import numpy as np

# How far P_e may stray outside [0, 1] before a trace is considered corrupt.
PE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PopulationTrace:
    """Excited-state population sampled on a strictly increasing time grid.

    Attributes
    ----------
    times : np.ndarray
        Sample times in microseconds, strictly increasing, starting at any
        t0 >= 0.
    pe : np.ndarray
        Excited-state population at each sample time.  Values must lie in
        [0, 1] up to ``PE_TOLERANCE``.
    """

    times: np.ndarray
    pe: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        pe = np.asarray(self.pe, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "pe", pe)
        if times.ndim != 1 or pe.ndim != 1:
            raise ValueError("times and pe must be one-dimensional arrays")
        if times.shape != pe.shape:
            raise ValueError(
                f"length mismatch: {times.shape[0]} times vs {pe.shape[0]} populations"
            )
        if times.shape[0] < 2:
            raise ValueError("a trace needs at least two samples")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(pe)):
            raise ValueError("trace contains non-finite values")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if pe.min() < -PE_TOLERANCE or pe.max() > 1.0 + PE_TOLERANCE:
            raise ValueError(
                f"population out of [0, 1]: min={pe.min():.3e}, max={pe.max():.3e}"
            )

    def pe_at(self, t: float) -> float:
        """Linearly interpolated population at time t (must lie on the grid span)."""
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            raise ValueError(f"t={t} outside trace span [{self.times[0]}, {self.times[-1]}]")
        return float(np.interp(t, self.times, self.pe))


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
        if not (self.sample_period > 0 and math.isfinite(self.sample_period)):
            raise ValueError("sample_period must be positive and finite")
        if samples.ndim != 1 or samples.shape[0] < 1:
            raise ValueError("samples must be a non-empty one-dimensional array")
        if not np.isfinite(samples).all():
            raise ValueError("record contains non-finite samples")

    @property
    def times(self) -> np.ndarray:
        return self.sample_period * np.arange(self.samples.shape[0])
