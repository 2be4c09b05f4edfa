"""Decay-rate extraction and energy-retention metrics for population traces."""

import math
from dataclasses import dataclass

import numpy as np

from .traces import PopulationTrace


class FitError(ValueError):
    """Base class for fit failures."""


class InsufficientPointsError(FitError):
    """Fewer than the minimum number of usable points above the floor."""


class NonDecayingTraceError(FitError):
    """The trace does not decay; an exponential decay fit is meaningless."""


MIN_POINTS = 10
FLOOR_FRACTION = 1e-4


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit result.  gamma_eff in 1/us; t1 is always derived."""

    gamma_eff: float
    rms_residual: float
    n_points_used: int

    @property
    def t1(self) -> float:
        return 1.0 / self.gamma_eff


def _loglinear_slope(t: np.ndarray, logy: np.ndarray):
    """Least-squares slope of logy against t, and the RMS residual of the line.

    Closed form on the centred data: slope = sum(t~ y~) / sum(t~^2).  Both
    arrays are centred and then overwritten in place, so the caller must pass
    arrays it owns and does not read again (_fit_above_floor passes the
    fresh arrays it forms); the only buffers are the two inputs.
    """
    t -= t.mean()
    logy -= logy.mean()
    slope = float(t @ logy / (t @ t))
    t *= slope
    logy -= t  # residual of the fitted line
    return slope, math.sqrt(logy @ logy / logy.size)


def _fit_above_floor(period: float, y: np.ndarray, top: float, what: str) -> DecayFit:
    """Log-linear decay fit of y[k], sampled at t = k * period, over the points
    above FLOOR_FRACTION * top; ``what`` names those points in the error message."""
    mask = y > FLOOR_FRACTION * top
    n = int(mask.sum())
    if n < MIN_POINTS:
        raise InsufficientPointsError(
            f"only {n} usable {what} above the floor, need {MIN_POINTS}"
        )
    with np.errstate(all="ignore"):  # a slope out of range is rejected below
        slope, rms = _loglinear_slope(period * np.flatnonzero(mask), np.log(y[mask]))
    if slope >= 0.0:
        raise NonDecayingTraceError(f"fitted slope {slope:.3e} is not negative")
    if not math.isfinite(slope):
        raise FitError(f"fitted slope {slope!r} at sample period {period!r} us is not finite")
    return DecayFit(gamma_eff=-slope, rms_residual=rms, n_points_used=n)


def fit_exponential(trace: PopulationTrace) -> DecayFit:
    """Fit P_e(t) = P_e(0) exp(-gamma t) by least squares on log P_e.

    Samples below FLOOR_FRACTION * P_e(0) are excluded so the fit never
    chases noise near zero.  Raises InsufficientPointsError with fewer than
    MIN_POINTS usable samples and NonDecayingTraceError when the fitted
    slope is not negative.
    """
    pe0 = trace.pe[0]
    if pe0 <= 0.0:
        raise FitError("initial population must be positive for a decay fit")
    return _fit_above_floor(trace.sample_period, trace.pe, pe0, "points")


def fit_exponential_offset(trace: PopulationTrace) -> DecayFit:
    """Fit P_e(t) = A exp(-gamma t) + B without knowing the plateau B.

    With sample period h the successive differences P_e(t_k) - P_e(t_k + h)
    equal A (1 - e^{-gamma h}) e^{-gamma t_k}, so the offset drops out and
    the same log-linear fit applies to the differences above FLOOR_FRACTION
    of the largest.  Intended for deterministic traces that relax to a
    non-zero steady population.
    """
    d = trace.pe[:-1] - trace.pe[1:]
    top = d.max()
    if top <= 0.0:
        raise NonDecayingTraceError("population never decreases; nothing to fit")
    return _fit_above_floor(trace.sample_period, d, top, "differences")


def energy_retention(trace: PopulationTrace, t_upper: float) -> float:
    """Integral of P_e from 0 to t_upper by the trapezoid rule.

    For a pure exponential this saturates at T1 as t_upper grows, which is
    what makes it a scheme-independent figure of merit.  The rule runs over
    the grid times below t_upper and t_upper itself, where P_e is interpolated
    linearly; t_upper must lie within the trace.
    """
    times = trace.times
    if not (0.0 < t_upper <= times[-1] + 1e-12):
        raise ValueError(f"t_upper={t_upper} outside the trace span (0, {times[-1]}]")
    t = np.append(times[times < t_upper], t_upper)
    return float(np.trapezoid(np.interp(t, times, trace.pe), t))
