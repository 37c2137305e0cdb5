"""Estimators for the errors-in-variables line regression.

`estimate(problem, config)` is the one way to run an estimator: it runs the
method named by `config.method` and times the run into `elapsed`.  The
objectives, their gradients and egle's Newton pieces are exported for
analysis and tests.
"""

from __future__ import annotations

import time

from ..line_model import EivProblem
from .config import (
    METHODS,
    DivergenceError,
    EgleCandidate,
    EgleMeta,
    EstimateResult,
    EstimatorConfig,
    EstimatorError,
    Trace,
)
from .egle import NewtonResult, _egle_estimate, newton_system, solve_params
from .itl import (
    _ascent,
    mtc_gradient,
    mtc_objective,
    mtee_gradient,
    mtee_objective,
    total_error,
)
from .tls import _tls_estimate, tls_objective

__all__ = [
    "METHODS",
    "DivergenceError",
    "EgleCandidate",
    "EgleMeta",
    "EstimateResult",
    "EstimatorConfig",
    "EstimatorError",
    "NewtonResult",
    "Trace",
    "estimate",
    "mtc_gradient",
    "mtc_objective",
    "mtee_gradient",
    "mtee_objective",
    "newton_system",
    "solve_params",
    "tls_objective",
    "total_error",
]

_DISPATCH = {
    "tls": _tls_estimate,
    "mtee": _ascent,
    "mtc": _ascent,
    "cmtc": _ascent,
    "egle": _egle_estimate,
}


def estimate(problem: EivProblem, config: EstimatorConfig) -> EstimateResult:
    """Run the estimator named by config.method on the problem, timing the run."""
    start = time.perf_counter()
    result = _DISPATCH[config.method](problem, config)
    result.elapsed = time.perf_counter() - start
    return result
