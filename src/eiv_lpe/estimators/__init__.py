"""Estimators for the errors-in-variables line regression."""

from __future__ import annotations

from ..line_model import EivProblem
from .config import (
    METHODS,
    DivergenceError,
    EgleMeta,
    EstimateResult,
    EstimatorConfig,
    EstimatorError,
    Trace,
)
from .egle import (
    NewtonResult,
    egle_estimate,
    newton_system,
    solve_params,
)
from .itl import (
    cmtc_estimate,
    mtc_estimate,
    mtc_gradient,
    mtc_objective,
    mtee_estimate,
    mtee_gradient,
    mtee_objective,
    total_error,
)
from .tls import tls_estimate, tls_objective

__all__ = [
    "METHODS",
    "DivergenceError",
    "EgleMeta",
    "EstimateResult",
    "EstimatorConfig",
    "EstimatorError",
    "NewtonResult",
    "Trace",
    "estimate",
    "cmtc_estimate",
    "egle_estimate",
    "mtc_estimate",
    "mtc_gradient",
    "mtc_objective",
    "mtee_estimate",
    "mtee_gradient",
    "mtee_objective",
    "newton_system",
    "solve_params",
    "tls_estimate",
    "tls_objective",
    "total_error",
]

_DISPATCH = {
    "tls": tls_estimate,
    "mtee": mtee_estimate,
    "mtc": mtc_estimate,
    "cmtc": cmtc_estimate,
    "egle": egle_estimate,
}


def estimate(problem: EivProblem, config: EstimatorConfig) -> EstimateResult:
    """Run the estimator named by config.method on the problem."""
    return _DISPATCH[config.method](problem, config)
