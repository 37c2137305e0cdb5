"""Information-theoretic EIV estimators: total error entropy and correntropy.

Both families score the normalized total error e = (y - Xw) / sqrt(||w||^2 +
eps0^-2), which accounts for noise in the regressors as well as the response.
MTEE ascends a Parzen estimate of the error's quadratic information
potential; MTC ascends the mean correntropy of the error; CMTC adds a linear
equality constraint through a per-step multiplier update.

All three run one fixed-step first-order ascent loop, each on one exact
kernel pass that yields the objective and its gradient together (the
objective and gradient functions are views of that pass).  When no step
size is given, a stability-based step is derived from the local curvature
at the starting point; the divergence guard aborts runs whose iterates
blow up.
"""

from __future__ import annotations

import time

import numpy as np

from ..line_model import EivProblem
from .config import (
    DIVERGENCE_NORM,
    DivergenceError,
    EstimateResult,
    EstimatorConfig,
    Trace,
)

__all__ = [
    "total_error",
    "mtee_objective",
    "mtee_gradient",
    "mtee_estimate",
    "mtc_objective",
    "mtc_gradient",
    "mtc_estimate",
    "cmtc_estimate",
]

# Pairwise kernel passes run over row blocks of this size so the working
# set stays cache resident at any n; cost is O(n^2) time, O(block n) space.
KERNEL_BLOCK_ROWS = 64


def total_error(problem: EivProblem, w: np.ndarray) -> np.ndarray:
    """Residual normalized by the total noise gain sqrt(||w||^2 + eps0^-2)."""
    w = np.asarray(w, dtype=float)
    scale = np.sqrt(w @ w + problem.eps0**-2)
    return (problem.y - problem.x @ w) / scale


def _mtee_value_grad(
    problem: EivProblem, w: np.ndarray, sigma: float
) -> tuple[float, np.ndarray]:
    """Information potential and its exact gradient, sharing one kernel pass.

    The pairwise kernel has width sigma * sqrt(2) (sum of two width-sigma
    Parzen windows), normalized as a density.  Gradient:

        g = 1/(2 sigma^2 n^2) sum_ij K_ij [ d_ij^2 w / S + d_ij (x_i - x_j) / sqrt(S) ]

    with d_ij = e_i - e_j and S = ||w||^2 + eps0^-2.  The cross term
    collapses to 2 X^T rowsum(K*d) because K*d is antisymmetric.
    """
    x, eps_bar = problem.x, problem.eps0**-2
    n = x.shape[0]
    s = float(w @ w + eps_bar)
    e = (problem.y - x @ w) / np.sqrt(s)
    coef = -0.25 / sigma**2
    ksum = 0.0
    quad = 0.0
    rs = np.empty(n)
    for lo in range(0, n, KERNEL_BLOCK_ROWS):
        hi = min(lo + KERNEL_BLOCK_ROWS, n)
        d = e[lo:hi, None] - e[None, :]
        k = np.multiply(d, d)
        k *= coef
        np.exp(k, out=k)
        ksum += float(k.sum())
        k *= d
        rs[lo:hi] = k.sum(axis=1)
        k *= d
        quad += float(k.sum())
    norm = 1.0 / (2.0 * sigma * np.sqrt(np.pi))
    value = ksum * norm / n**2
    grad = (quad * w / s + 2.0 * (x.T @ rs) / np.sqrt(s)) * (
        norm / (2.0 * sigma**2 * n**2)
    )
    return value, grad


def mtee_objective(problem: EivProblem, w: np.ndarray, sigma: float) -> float:
    """Parzen quadratic information potential of the total error (O(n^2))."""
    return _mtee_value_grad(problem, np.asarray(w, dtype=float), sigma)[0]


def mtee_gradient(problem: EivProblem, w: np.ndarray, sigma: float) -> np.ndarray:
    """Exact gradient of mtee_objective with respect to w."""
    return _mtee_value_grad(problem, np.asarray(w, dtype=float), sigma)[1]


def _lam_max(problem: EivProblem) -> float:
    x = problem.x
    gram = x.T @ x / x.shape[0]
    return float(np.linalg.eigvalsh(gram)[-1])


def _auto_step(problem: EivProblem, w0: np.ndarray, sigma: float, method: str) -> float:
    """Half the stability limit of the fixed-step iteration near w0.

    The local curvature of both objectives scales as lam_max(X^T X / n)
    divided by sigma^2 S (times the kernel peak for the entropy case), so
    half of 2 / curvature is a safe default step.
    """
    s0 = float(w0 @ w0 + problem.eps0**-2)
    lam = max(_lam_max(problem), 1e-30)
    if method == "mtee":
        peak = 1.0 / (2.0 * sigma * np.sqrt(np.pi))
        return sigma**2 * s0 / (peak * lam)
    return sigma**2 * s0 / lam


def _start(problem: EivProblem, config: EstimatorConfig) -> np.ndarray:
    if config.w0 is not None:
        w0 = np.asarray(config.w0, dtype=float).copy()
        if w0.shape != (problem.x.shape[1],):
            raise ValueError(f"w0 must have shape ({problem.x.shape[1]},)")
        return w0
    return np.zeros(problem.x.shape[1])


def _guard(w: np.ndarray, method: str, iteration: int) -> None:
    norm = float(np.linalg.norm(w))
    if not np.isfinite(norm) or norm > DIVERGENCE_NORM:
        raise DivergenceError(
            f"{method} diverged at iteration {iteration}: ||w|| = {norm:.3e}"
        )


def _mtc_value_grad(
    problem: EivProblem, w: np.ndarray, sigma: float
) -> tuple[float, np.ndarray]:
    """Mean correntropy of the total error and its exact gradient.

    J = mean exp(-e_i^2 / (2 sigma^2 S)), S = ||w||^2 + eps0^-2, e = y - Xw.
    """
    x = problem.x
    n = x.shape[0]
    s = float(w @ w + problem.eps0**-2)
    e = problem.y - x @ w
    c = np.exp(e * e * (-0.5 / (sigma**2 * s)))
    value = float(c.mean())
    ce = c * e
    grad = (s * (x.T @ ce) + float(ce @ e) * w) / (n * sigma**2 * s**2)
    return value, grad


def mtc_objective(problem: EivProblem, w: np.ndarray, sigma: float) -> float:
    """Mean Gaussian correntropy of the normalized total error."""
    return _mtc_value_grad(problem, np.asarray(w, dtype=float), sigma)[0]


def mtc_gradient(problem: EivProblem, w: np.ndarray, sigma: float) -> np.ndarray:
    """Exact gradient of mtc_objective with respect to w."""
    return _mtc_value_grad(problem, np.asarray(w, dtype=float), sigma)[1]


def _ascent(problem: EivProblem, config: EstimatorConfig, method: str) -> EstimateResult:
    """The fixed-step ascent shared by mtee, mtc and cmtc.

    mtee ascends the information potential, mtc and cmtc the correntropy;
    cmtc follows each step with the multiplier correction that restores
    the equality constraint.  Stops when the max-norm update is <= tol.
    """
    start = time.perf_counter()
    value_grad = _mtee_value_grad if method == "mtee" else _mtc_value_grad
    sigma = float(config.kernel_sigma)
    w = _start(problem, config)
    step = config.step if config.step is not None else _auto_step(problem, w, sigma, method)
    constrained = method == "cmtc"
    if constrained:
        if problem.constraint is None:
            raise ValueError("cmtc requires a problem with an equality constraint")
        c_mat, f_vec = problem.constraint
        # Oblique projector pieces for the multiplier update: the step
        # eta * C * lambda restores C^T w = f exactly each iteration.
        ctc_inv = np.linalg.inv(c_mat.T @ c_mat)
    # iterates are never updated in place, so the trace keeps references
    ws: list[np.ndarray] = []
    values: list[float] = []
    iterations = 0
    converged = False
    for r in range(config.max_iters):
        value, grad = value_grad(problem, w, sigma)
        ws.append(w)
        values.append(value)
        w_next = w + step * grad
        if constrained:
            w_next = w_next + c_mat @ (ctc_inv @ (f_vec - c_mat.T @ w_next))
        _guard(w_next, method, r + 1)
        delta = float(np.abs(w_next - w).max())
        w = w_next
        iterations = r + 1
        if delta <= config.tol:
            converged = True
            break
    ws.append(w)
    values.append(value_grad(problem, w, sigma)[0])
    return EstimateResult(
        method=method,
        w=w,
        iterations=iterations,
        converged=converged,
        trace=Trace(ws, values),
        elapsed=time.perf_counter() - start,
    )


def mtee_estimate(problem: EivProblem, config: EstimatorConfig) -> EstimateResult:
    """Fixed-step ascent of the total error information potential."""
    return _ascent(problem, config, "mtee")


def mtc_estimate(problem: EivProblem, config: EstimatorConfig) -> EstimateResult:
    """Fixed-step ascent of the total correntropy objective."""
    return _ascent(problem, config, "mtc")


def cmtc_estimate(problem: EivProblem, config: EstimatorConfig) -> EstimateResult:
    """Constrained total correntropy ascent.

    Each step applies the unconstrained correntropy update followed by the
    multiplier correction eta * C * lambda with

        lambda = (1/eta) (C^T C)^{-1} (f - C^T w - eta C^T g),

    which lands every iterate exactly on the constraint set C^T w = f.
    """
    return _ascent(problem, config, "cmtc")
