"""Closed-form effective decay rates for the four control schemes.

Every scheme relaxes (in its model curve) as P_e(t) = P_e(0) exp(-Gamma t)
with a scheme-specific Gamma.  Rates are the primary objects here; lifetimes
are always derived as 1/Gamma and never stored independently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .traces import (PopulationTrace, check_count, check_efficiency, check_nonnegative,
                     check_positive)


def check_correlation(r: float, name: str = "correlation r") -> float:
    """The predictor's correlation score r as gamma_ml takes it: finite and
    in [0, 1), since r = 1 leaves the ancilla_ml scheme no rate and no
    lifetime.  Raises ValueError naming the value name."""
    if check_nonnegative(r, name) >= 1.0:
        raise ValueError(f"{name} must be below 1, got {r!r}")
    return float(r)


def gamma_wm(gamma: float, eta: float, lam: float) -> float:
    """Decay rate under homodyne-mediated feedback at gain lam:

        Gamma(lam) = gamma - 2 sqrt(eta gamma) lam + 2 lam^2

    This assumes phi_lo = 0.  At another phase phi the master equation decays
    at gamma - 2 sqrt(eta gamma) lam cos(phi) + 2 lam^2, so the feedback rows
    of ``qlift compare`` then deviate from this form by design.
    """
    gamma = check_positive(gamma, "gamma")
    eta = check_efficiency(eta, "detection efficiency")
    lam = check_nonnegative(lam, "feedback gain")
    return gamma - 2.0 * math.sqrt(eta * gamma) * lam + 2.0 * lam * lam


def wm_scheme_name(eta: float) -> str:
    """Row and file name of homodyne feedback at efficiency eta (6 digits)."""
    return f"wm_eta_{eta:g}"


def optimal_lambda(gamma: float, eta: float) -> float:
    """Gain minimizing gamma_wm: lam* = sqrt(eta gamma) / 2, giving
    Gamma(lam*) = gamma (1 - eta/2)."""
    gamma = check_positive(gamma, "gamma")
    eta = check_efficiency(eta, "detection efficiency")
    return 0.5 * math.sqrt(eta * gamma)


def cooperativity(g: float, kappa: float, gamma: float) -> float:
    """C = 4 g^2 / (kappa gamma) for coupling g and ancilla linewidth kappa."""
    g = check_positive(g, "g")
    kappa = check_positive(kappa, "kappa")
    gamma = check_positive(gamma, "gamma")
    return 4.0 * g * g / (kappa * gamma)


def gamma_ancilla(gamma: float, c: float) -> float:
    """Ancilla-assisted rate Gamma = gamma / (1 + C)."""
    gamma = check_positive(gamma, "gamma")
    c = check_nonnegative(c, "cooperativity")
    return gamma / (1.0 + c)


def gamma_ml(gamma: float, c: float, r: float) -> float:
    """Predictor-assisted rate Gamma = [gamma / (1 + C)] (1 - r^2) at the
    predictor's correlation score r (see check_correlation)."""
    base = gamma_ancilla(gamma, c)
    r = check_correlation(r)
    return base * (1.0 - r * r)


def population_curve(gamma_eff: float, sample_period: float, n_samples: int) -> PopulationTrace:
    """Model decay curve P_e(t) = exp(-gamma_eff t) at t = k * sample_period,
    k = 0 .. n_samples - 1."""
    gamma_eff = check_positive(gamma_eff, "gamma_eff")
    times = sample_period * np.arange(check_count(n_samples, "n_samples", 2))
    return PopulationTrace(sample_period, np.exp(-gamma_eff * times))


@dataclass(frozen=True)
class RateResult:
    """One scheme's effective rate.  The lifetime is derived, never stored."""

    scheme: str
    gamma_eff: float

    def __post_init__(self):
        check_positive(self.gamma_eff, "gamma_eff")

    @property
    def t1(self) -> float:
        return 1.0 / self.gamma_eff


def rate_table(gamma: float, etas, c: float, r: float):
    """Closed-form rate summary across all schemes.

    Returns a list of RateResult rows: bare decay, homodyne feedback at the
    optimal gain for each efficiency in ``etas``, the ancilla-assisted scheme
    at cooperativity ``c``, and the ancilla scheme with predictor correlation
    ``r``.
    """
    rows = [RateResult("no_feedback", check_positive(gamma, "gamma"))]
    for eta in etas:
        lam = optimal_lambda(gamma, eta)
        rows.append(RateResult(wm_scheme_name(eta), gamma_wm(gamma, eta, lam)))
    rows.append(RateResult("ancilla", gamma_ancilla(gamma, c)))
    rows.append(RateResult("ancilla_ml", gamma_ml(gamma, c, r)))
    return rows
