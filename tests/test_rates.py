import math

import numpy as np
import pytest

from qlift.rates import (
    RateResult,
    cooperativity,
    gamma_ancilla,
    gamma_ml,
    gamma_wm,
    optimal_lambda,
    population_curve,
    rate_table,
)

GAMMA = 0.02  # 1/us, i.e. a 50 us bare lifetime


class TestGammaWm:
    def test_zero_gain_is_bare_decay(self):
        assert gamma_wm(GAMMA, 0.8, 0.0) == GAMMA

    def test_optimal_gain_value(self):
        lam = optimal_lambda(GAMMA, 1.0)
        assert lam == pytest.approx(0.5 * math.sqrt(GAMMA), rel=1e-15)
        assert gamma_wm(GAMMA, 1.0, lam) == pytest.approx(GAMMA / 2.0, rel=1e-12)

    def test_half_efficiency_rate(self):
        lam = optimal_lambda(GAMMA, 0.5)
        # gamma (1 - eta/2) = 0.02 * 0.75
        assert gamma_wm(GAMMA, 0.5, lam) == pytest.approx(0.015, rel=1e-12)

    def test_optimum_is_a_minimum(self):
        lam = optimal_lambda(GAMMA, 0.7)
        best = gamma_wm(GAMMA, 0.7, lam)
        for delta in (0.1 * lam, 0.5 * lam, lam):
            assert gamma_wm(GAMMA, 0.7, lam + delta) > best
            assert gamma_wm(GAMMA, 0.7, max(lam - delta, 0.0)) >= best

    def test_quadratic_shape(self):
        # second difference of a quadratic in lam is exactly 2 * 2 * h^2
        h = 0.01
        vals = [gamma_wm(GAMMA, 1.0, lam) for lam in (0.02, 0.03, 0.04)]
        assert vals[0] - 2 * vals[1] + vals[2] == pytest.approx(2 * 2 * h * h, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_wm(-1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            gamma_wm(GAMMA, 0.0, 0.0)
        with pytest.raises(ValueError):
            gamma_wm(GAMMA, 1.1, 0.0)
        with pytest.raises(ValueError):
            gamma_wm(GAMMA, 0.5, -0.1)


class TestAncillaRates:
    def test_cooperativity_reference_point(self):
        # 4 g^2 / (kappa gamma) with g = 0.92, kappa = 92: 3.3856 / 1.84
        assert cooperativity(0.92, 92.0, GAMMA) == pytest.approx(1.84, rel=1e-12)

    def test_gamma_ancilla_reference_point(self):
        assert gamma_ancilla(GAMMA, 1.84) == pytest.approx(0.02 / 2.84, rel=1e-12)

    def test_zero_cooperativity_is_bare(self):
        assert gamma_ancilla(GAMMA, 0.0) == GAMMA

    def test_gamma_ml_endpoints(self):
        # r = 1 would leave no rate: r lies in [0, 1)
        assert gamma_ml(GAMMA, 1.84, 0.0) == gamma_ancilla(GAMMA, 1.84)
        with pytest.raises(ValueError, match="below 1, got 1.0$"):
            gamma_ml(GAMMA, 1.84, 1.0)

    def test_gamma_ml_reference_point(self):
        # (0.02 / 2.84) * (1 - 0.54^2) = 0.0070422535... * 0.7084
        assert gamma_ml(GAMMA, 1.84, 0.54) == pytest.approx(0.0049887324, rel=1e-7)

    @pytest.mark.parametrize("r", [1.3, -0.2])
    def test_r_outside_unit_interval_raises(self, r):
        with pytest.raises(ValueError, match=f"correlation r must .*, got {r}$"):
            gamma_ml(GAMMA, 1.84, r)

    def test_non_finite_r_raises(self):
        with pytest.raises(ValueError):
            gamma_ml(GAMMA, 1.84, float("nan"))


class TestLifetimes:
    def test_reference_lifetimes(self):
        expected = {
            "no_feedback": 50.0,
            "wm_eta_0.5": 66.66666666666667,
            "wm_eta_1": 100.0,
            "ancilla": 142.0,
            "ancilla_ml": 200.45172219085265,
        }
        table = {row.scheme: row.t1 for row in rate_table(GAMMA, etas=(0.5, 1.0), c=1.84, r=0.54)}
        assert table.keys() == expected.keys()
        for name, t1 in expected.items():
            assert table[name] == pytest.approx(t1, rel=1e-10), name

    def test_lifetimes_strictly_improve(self):
        t1s = [row.t1 for row in rate_table(GAMMA, etas=(0.5, 1.0), c=1.84, r=0.54)]
        assert all(a < b for a, b in zip(t1s, t1s[1:]))

    def test_t1_is_exact_reciprocal(self):
        row = RateResult("x", 0.0123)
        assert row.t1 == 1.0 / 0.0123

    def test_rate_result_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            RateResult("x", 0.0)


class TestPopulationCurve:
    def test_matches_exponential(self):
        times = np.linspace(0.0, 200.0, 401)
        trace = population_curve(GAMMA, 0.5, 401)
        np.testing.assert_allclose(trace.pe, np.exp(-GAMMA * times), rtol=1e-14)

    @pytest.mark.parametrize("n_samples", [2.5, 1, math.inf])
    def test_rejects_a_sample_count_that_is_not_a_whole_two_or_more(self, n_samples):
        # unchecked, 2.5 gave three samples
        with pytest.raises(ValueError, match="n_samples"):
            population_curve(GAMMA, 0.5, n_samples)
