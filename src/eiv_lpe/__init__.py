"""Errors-in-variables estimation of transmission line parameters from PMU data.

The package builds a real-valued EIV regression from voltage/current phasor
records of a pi-model line and solves it with a TLS baseline plus four
noise-robust estimators (mtee, mtc, cmtc, egle), with scenario tooling and a
benchmark CLI for accuracy and convergence studies.
"""

from __future__ import annotations

from .estimators import (
    DivergenceError,
    EstimateResult,
    EstimatorConfig,
    EstimatorError,
    estimate,
)
from .line_model import (
    EivProblem,
    PMU_DTYPE,
    LineParameters,
    admittance_to_params,
    branch_currents,
    build_regression,
    params_to_admittance,
    simulate_records,
)
from .noise import (
    GaussianNoise,
    GmmModel,
    GmmNoise,
    LaplacianNoise,
    apply_noise,
    gmm_bic,
    sample_noise,
)
from .scenario import (
    AreReport,
    LoadRampProfile,
    Scenario,
    are,
    generate_true_records,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AreReport",
    "DivergenceError",
    "EivProblem",
    "EstimateResult",
    "EstimatorConfig",
    "EstimatorError",
    "GaussianNoise",
    "GmmModel",
    "GmmNoise",
    "LaplacianNoise",
    "LineParameters",
    "LoadRampProfile",
    "PMU_DTYPE",
    "Scenario",
    "admittance_to_params",
    "apply_noise",
    "are",
    "branch_currents",
    "build_regression",
    "estimate",
    "generate_true_records",
    "gmm_bic",
    "params_to_admittance",
    "run_scenario",
    "sample_noise",
    "simulate_records",
]
