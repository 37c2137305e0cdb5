"""Total least squares baseline via singular value decomposition."""

from __future__ import annotations

import time

import numpy as np

from ..line_model import EivProblem
from .config import EstimateResult, EstimatorConfig, EstimatorError, Trace

__all__ = ["tls_estimate", "tls_objective"]


def tls_objective(problem: EivProblem, w: np.ndarray) -> float:
    """Normalized squared residual ||y - Xw||^2 / (||w||^2 + eps0^-2)."""
    r = problem.y - problem.x @ w
    return float(r @ r / (w @ w + problem.eps0**-2))


def tls_estimate(problem: EivProblem, config: EstimatorConfig | None = None) -> EstimateResult:
    """Classic TLS fit from the smallest right singular vector of [X y].

    With [X y] = U D V^T, the solution is w = -v[:p] / v[p] where v is the
    right singular vector of the smallest singular value.

    Raises
    ------
    EstimatorError
        If the last component of the singular vector is numerically zero
        (no finite TLS solution).
    """
    start = time.perf_counter()
    p = problem.x.shape[1]
    stacked = np.column_stack([problem.x, problem.y])
    _, _, vt = np.linalg.svd(stacked, full_matrices=False)
    v = vt[-1]
    if abs(v[p]) < 1e-14:
        raise EstimatorError(
            f"TLS solution does not exist: |v[p]| = {abs(v[p]):.3e} < 1e-14"
        )
    w = -v[:p] / v[p]
    w0 = config.w0 if config is not None and config.w0 is not None else np.zeros(p)
    trace = Trace([w0, w], [tls_objective(problem, w0), tls_objective(problem, w)])
    return EstimateResult(
        method="tls",
        w=w,
        iterations=1,
        converged=True,
        trace=trace,
        elapsed=time.perf_counter() - start,
    )
