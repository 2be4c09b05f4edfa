"""Qubit lifetime extension toolkit.

Simulators (deterministic and stochastic), closed-form decay rates, decay
fitting, and a learned one-step predictor for the homodyne record, all under
one set of operator conventions (see qlift.operators).
"""

from .config import ConfigError, ExperimentConfig, load_config
from .dynamics import (
    IntegrationError,
    SchemeKind,
    SchemeSpec,
    TrajectoryConfig,
    ancilla_decay_generator,
    ancilla_feedback_generator,
    integrate_deterministic,
    no_feedback_generator,
    wm_generator,
)
from .fitting import (
    DecayFit,
    FitError,
    InsufficientPointsError,
    NonDecayingTraceError,
    energy_retention,
    fit_exponential,
    fit_exponential_offset,
)
from .predictor import (
    Mlp,
    TrainSettings,
    TrainingDiverged,
    build_dataset,
    correlation_r,
    load_model,
    predict_next,
    save_model,
    train,
)
from .rates import (
    RateResult,
    cooperativity,
    gamma_ancilla,
    gamma_ml,
    gamma_wm,
    optimal_lambda,
    population_curve,
    rate_table,
)
from .stochastic import EnsembleResult, run_ensemble
from .traces import HomodyneRecord, PopulationTrace

__version__ = "0.1.0"
