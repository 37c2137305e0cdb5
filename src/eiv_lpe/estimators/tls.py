"""Total least squares baseline via singular value decomposition."""

from __future__ import annotations

import time

import numpy as np

from ..line_model import EivProblem
from .config import EstimateResult, EstimatorConfig, EstimatorError, Trace

__all__ = ["tls_estimate", "tls_objective", "warm_start"]


def tls_objective(problem: EivProblem, w: np.ndarray) -> float:
    """Normalized squared residual ||y - Xw||^2 / (||w||^2 + eps0^-2)."""
    r = problem.y - problem.x @ w
    return float(r @ r / (w @ w + problem.eps0**-2))


def tls_estimate(problem: EivProblem, config: EstimatorConfig | None = None) -> EstimateResult:
    """Classic TLS fit from the smallest right singular vector of [X y].

    With [X y] = U D V^T, the solution is w = -v[:p] / v[p] where v is the
    right singular vector of the smallest singular value.  A square X
    (n = p rows) takes the full V, whose last row is the null direction of
    [X y] that the thin SVD leaves out.  TLS takes no start: the trace runs
    from zeros to w, and `config` is ignored, taken so all methods are called alike.

    Raises
    ------
    EstimatorError
        If the last component of the singular vector is numerically zero
        (no finite TLS solution).
    """
    start = time.perf_counter()
    p = problem.x.shape[1]
    stacked = np.column_stack([problem.x, problem.y])
    _, _, vt = np.linalg.svd(stacked, full_matrices=stacked.shape[0] <= p)
    v = vt[-1]
    if abs(v[p]) < 1e-14:
        raise EstimatorError(
            f"TLS solution does not exist: |v[p]| = {abs(v[p]):.3e} < 1e-14"
        )
    w = -v[:p] / v[p]
    zero = np.zeros(p)
    trace = Trace([zero, w], [tls_objective(problem, zero), tls_objective(problem, w)])
    return EstimateResult(
        method="tls",
        w=w,
        iterations=1,
        converged=True,
        trace=trace,
        elapsed=time.perf_counter() - start,
    )


def warm_start(problem: EivProblem, config: EstimatorConfig) -> np.ndarray:
    """The start of an iterative estimator: a copy of config.w0, else the TLS solution.

    Raises
    ------
    ValueError
        If w0 does not have shape (p,) or is not finite.
    EstimatorError
        If w0 is unset and the problem has no finite TLS solution.
    """
    if config.w0 is None:
        return tls_estimate(problem).w
    p = problem.x.shape[1]
    w0 = np.array(config.w0, dtype=float)
    if w0.shape != (p,):
        raise ValueError(f"w0 must have shape ({p},)")
    if not np.isfinite(w0).all():
        raise ValueError("w0 must be finite")
    return w0
