import tracemalloc
import warnings

import numpy as np
import pytest

from qlift import fitting
from qlift.fitting import (
    DecayFit,
    FitError,
    InsufficientPointsError,
    NonDecayingTraceError,
    energy_retention,
    fit_exponential,
    fit_exponential_offset,
)
from qlift.rates import population_curve
from qlift.traces import PopulationTrace

GAMMA = 0.0123
N_LONG = 1_150_001  # points in the ancilla trace of `qlift compare` at the defaults


def exponential_trace(gamma=GAMMA, t_end=400.0, step=0.5, pe0=1.0, offset=0.0):
    times = np.arange(0.0, t_end + step / 2, step)
    pe = (pe0 - offset) * np.exp(-gamma * times) + offset
    return PopulationTrace(step, pe)


def polyfit_slope(t, logy):
    """The np.polyfit line fit that the closed form replaced; the oracle it must match."""
    slope, intercept = np.polyfit(t, logy, 1)
    resid = logy - (slope * t + intercept)
    return slope, float(np.sqrt(np.mean(resid ** 2)))


def noisy_trace(rng):
    times = np.arange(0.0, 300.0, 0.5)
    noise = 1.0 + 0.01 * rng.standard_normal(times.shape)
    return PopulationTrace(0.5, np.clip(np.exp(-GAMMA * times) * noise, 1e-12, 1.0))


def long_trace(rng):
    step = 125.0 / (N_LONG - 1)
    return PopulationTrace(step, 0.65 * np.exp(-0.0568 * (step * np.arange(N_LONG))) + 0.35)


class TestClosedFormFit:
    @pytest.mark.parametrize("fit", [fit_exponential, fit_exponential_offset])
    @pytest.mark.parametrize("make_trace", [noisy_trace, long_trace])
    def test_matches_polyfit(self, fit, make_trace, rng, monkeypatch):
        trace = make_trace(rng)
        period, pe = trace.sample_period, trace.pe.copy()
        got = fit(trace)
        # the fit centres its arrays in place; they must be copies, not the trace's
        assert trace.sample_period == period and np.array_equal(trace.pe, pe)
        monkeypatch.setattr(fitting, "_loglinear_slope", polyfit_slope)
        want = fit(trace)
        assert got.gamma_eff == pytest.approx(want.gamma_eff, rel=1e-12, abs=0.0)
        assert abs(got.rms_residual - want.rms_residual) <= 1e-12
        assert got.n_points_used == want.n_points_used

    @pytest.mark.parametrize("fit", [fit_exponential, fit_exponential_offset])
    def test_slope_out_of_range_raises(self, fit):
        # sum(t~^2) underflows to 0 at this period: the slope was -inf, with a
        # divide-by-zero warning, and gamma_eff inf
        trace = PopulationTrace(1e-200, np.exp(-0.1 * np.arange(100)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="not finite"):
                fit(trace)

    def test_memory_is_bounded(self, rng):
        # np.polyfit peaks above 8 copies of the fitted points
        trace = long_trace(rng)
        tracemalloc.start()
        try:
            fit_exponential(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * N_LONG


class TestFitExponential:
    def test_recovers_generating_rate(self):
        fit = fit_exponential(population_curve(GAMMA, 0.5, 800))
        assert fit.gamma_eff == pytest.approx(GAMMA, rel=1e-9)
        assert fit.rms_residual < 1e-9

    def test_floor_excludes_decayed_tail(self):
        trace = exponential_trace(gamma=0.05, t_end=400.0)
        fit = fit_exponential(trace)
        # floor at 1e-4 of the start cuts the trace near t = ln(1e4)/0.05
        assert fit.n_points_used < trace.times.shape[0]
        assert fit.n_points_used == pytest.approx(np.log(1e4) / 0.05 / 0.5, rel=0.01)
        assert fit.gamma_eff == pytest.approx(0.05, rel=1e-9)

    def test_too_few_points(self):
        trace = PopulationTrace(1.0, np.exp(-np.arange(5.0)))
        with pytest.raises(InsufficientPointsError):
            fit_exponential(trace)

    def test_non_decaying_raises(self):
        times = np.arange(0.0, 20.0, 1.0)
        trace = PopulationTrace(1.0, 0.2 + 0.01 * times)
        with pytest.raises(NonDecayingTraceError):
            fit_exponential(trace)

    def test_zero_start_raises(self):
        times = np.arange(0.0, 20.0, 1.0)
        trace = PopulationTrace(1.0, np.zeros_like(times))
        with pytest.raises(FitError, match="initial population"):
            fit_exponential(trace)

    def test_tolerates_small_noise(self, rng):
        times = np.arange(0.0, 300.0, 0.5)
        noise = 1.0 + 0.01 * rng.standard_normal(times.shape)
        pe = np.clip(np.exp(-GAMMA * times) * noise, 1e-12, 1.0)
        fit = fit_exponential(PopulationTrace(0.5, pe))
        assert fit.gamma_eff == pytest.approx(GAMMA, rel=0.03)


class TestFitExponentialOffset:
    def test_recovers_rate_with_plateau(self):
        trace = exponential_trace(gamma=0.02, pe0=1.0, offset=0.35)
        fit = fit_exponential_offset(trace)
        assert fit.gamma_eff == pytest.approx(0.02, rel=1e-9)

    def test_works_without_plateau_too(self):
        fit = fit_exponential_offset(exponential_trace())
        assert fit.gamma_eff == pytest.approx(GAMMA, rel=1e-8)

    def test_flat_trace_raises(self):
        times = np.arange(0.0, 30.0, 1.0)
        trace = PopulationTrace(1.0, np.full_like(times, 0.4))
        with pytest.raises(NonDecayingTraceError):
            fit_exponential_offset(trace)


class TestDecayFit:
    def test_t1_is_reciprocal(self):
        fit = DecayFit(gamma_eff=0.004, rms_residual=0.0, n_points_used=10)
        assert fit.t1 == 250.0


class TestEnergyRetention:
    def test_matches_closed_form(self):
        gamma, t_up = 0.02, 100.0
        trace = exponential_trace(gamma=gamma, t_end=200.0, step=0.05)
        expected = (1.0 - np.exp(-gamma * t_up)) / gamma
        assert energy_retention(trace, t_up) == pytest.approx(expected, rel=1e-6)

    def test_saturates_at_t1(self):
        gamma = 0.02
        t1 = 1.0 / gamma
        trace = exponential_trace(gamma=gamma, t_end=10.5 * t1, step=0.05)
        assert energy_retention(trace, 10.0 * t1) == pytest.approx(t1, rel=2e-4)

    def test_interpolates_between_grid_points(self):
        gamma = 0.05
        trace = exponential_trace(gamma=gamma, t_end=100.0, step=1.0)
        t_up = 40.3  # not on the grid
        expected = (1.0 - np.exp(-gamma * t_up)) / gamma
        assert energy_retention(trace, t_up) == pytest.approx(expected, rel=1e-3)

    def test_bound_on_the_grid_is_the_plain_trapezoid(self):
        trace = exponential_trace(gamma=0.05, t_end=100.0, step=1.0)
        k = 40
        expected = np.trapezoid(trace.pe[:k + 1], trace.times[:k + 1])
        assert energy_retention(trace, trace.times[k]) == expected

    @pytest.mark.parametrize("t_up", [40.0, 40.3, 100.0])
    def test_returns_a_python_float(self, t_up):
        # on the grid, between grid points and at the trace's end alike
        trace = exponential_trace(gamma=0.05, t_end=100.0, step=1.0)
        assert type(energy_retention(trace, t_up)) is float

    def test_rejects_t_upper_outside_span(self):
        trace = exponential_trace(t_end=50.0)
        with pytest.raises(ValueError):
            energy_retention(trace, 60.0)
        with pytest.raises(ValueError):
            energy_retention(trace, 0.0)
