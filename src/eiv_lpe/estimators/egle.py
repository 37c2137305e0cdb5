"""Grouped Gaussian-mixture EIV estimator with BIC model selection.

The noise on the response and on the regressors is modeled by two scalar
Gaussian mixtures sharing a component count m.  Rows are assigned to mixture
components, and for each candidate m the estimator alternates two steps:
refit both mixtures by EM on the normalized total error of the current
parameters (egle_em_samples), and re-solve the parameter stationarity system
by Newton's method (with a KKT-augmented system when the problem carries an
equality constraint).  Each iterate's trace objective is the standardized
SSE of the conditional-mean noise estimates, 1/2 sum_i alpha_i^2 gamma_sig_i
in the notation of _group_terms.  The final m is chosen by the lowest summed
BIC of the two mixture fits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..line_model import EivProblem
from ..noise import GmmModel, em_fit, gmm_bic
from .config import (
    EgleCandidate,
    EgleMeta,
    EstimateResult,
    EstimatorConfig,
    EstimatorError,
    Trace,
    checked_w0,
)
from .tls import tls_estimate

__all__ = [
    "newton_system",
    "egle_em_samples",
    "solve_params",
    "NewtonResult",
    "egle_estimate",
]

NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-10


@dataclass
class NewtonResult:
    w: np.ndarray
    iterations: int
    converged: bool


def _group_terms(
    problem: EivProblem,
    w: np.ndarray,
    y_gmm: GmmModel,
    x_gmm: GmmModel,
    labels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row scaled residuals alpha and residual gains gamma_sig.

    For a row in component g the residual offset and gain are

        gamma_mu_g  = y_mu_g - x_mu_g * sum_j w_j
        gamma_sig_g = y_var_g + x_var_g * sum_j w_j^2

    and alpha = (y - Xw - gamma_mu) / gamma_sig elementwise.
    """
    gamma_mu = y_gmm.means - x_gmm.means * float(w.sum())
    gamma_sig = y_gmm.variances + x_gmm.variances * float(w @ w)
    gs = gamma_sig[labels]
    alpha = (problem.y - problem.x @ w - gamma_mu[labels]) / gs
    return alpha, gs


def newton_system(
    problem: EivProblem,
    w: np.ndarray,
    y_gmm: GmmModel,
    x_gmm: GmmModel,
    labels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """f(w) = sum_g (X_g - Xe_g)^T alpha_g and its exact Jacobian from one row pass.

    With v and mu the x-mixture variance and mean of each row's component,
    the regressor noise estimate is Xe = mu 1^T - (v * alpha) w^T.  With
    Z = X - mu 1^T + 2 (v * alpha) w^T, d alpha / d w = -diag(1 / gamma_sig) Z
    and J = (sum_i v_i alpha_i^2) I - Z^T diag(1 / gamma_sig) Z, symmetric
    because f is a gradient.
    """
    alpha, gs = _group_terms(problem, w, y_gmm, x_gmm, labels)
    va = x_gmm.variances[labels] * alpha
    vaw = np.outer(va, w)
    mu = x_gmm.means[labels][:, None]
    f = (problem.x - (-vaw + mu)).T @ alpha
    z = problem.x - mu + 2.0 * vaw
    jac = float(va @ alpha) * np.eye(w.size) - z.T @ (z / gs[:, None])
    return f, jac


def _trace_objective(
    problem: EivProblem,
    w: np.ndarray,
    y_gmm: GmmModel,
    x_gmm: GmmModel,
    labels: np.ndarray,
) -> float:
    """Half the standardized SSE of the noise estimates, 1/2 sum_i alpha_i^2 gamma_sig_i.

    Standardized, the estimates of a row are sqrt(y_var) alpha and -sqrt(x_var) alpha w.
    """
    alpha, gs = _group_terms(problem, w, y_gmm, x_gmm, labels)
    return 0.5 * float((alpha * alpha) @ gs)


def solve_params(
    problem: EivProblem,
    y_gmm: GmmModel,
    x_gmm: GmmModel,
    labels: np.ndarray,
    w0: np.ndarray,
) -> NewtonResult:
    """Newton solve of the stationarity system for fixed mixtures.

    Each step takes f and its closed-form Jacobian from one row pass, and
    the solve stops once a step's max norm is at most NEWTON_TOL, or after
    NEWTON_MAX_ITER steps.  With an equality constraint C^T w = f the step
    solves the KKT-augmented system, so every iterate after the first lies
    exactly on the constraint set.

    Raises
    ------
    EstimatorError
        If the (augmented) Jacobian is singular.
    """
    w = np.asarray(w0, dtype=float).copy()
    p = w.size
    constrained = problem.constraint is not None
    if constrained:
        c_mat, f_vec = problem.constraint
        c = c_mat.shape[1]
    converged = False
    iterations = 0
    for it in range(NEWTON_MAX_ITER):
        f0, jac = newton_system(problem, w, y_gmm, x_gmm, labels)
        try:
            if constrained:
                kkt = np.zeros((p + c, p + c))
                kkt[:p, :p] = jac
                kkt[:p, p:] = c_mat
                kkt[p:, :p] = c_mat.T
                rhs = np.concatenate([-f0, f_vec - c_mat.T @ w])
                step = np.linalg.solve(kkt, rhs)[:p]
            else:
                step = np.linalg.solve(jac, -f0)
        except np.linalg.LinAlgError as exc:
            cond = np.linalg.cond(jac)
            raise EstimatorError(
                f"singular Newton system (cond(J) = {cond:.3e})"
            ) from exc
        if not np.isfinite(step).all():
            raise EstimatorError("non-finite Newton step")
        w = w + step
        iterations = it + 1
        if float(np.abs(step).max()) <= NEWTON_TOL:
            converged = True
            break
    return NewtonResult(w, iterations, converged)


def egle_em_samples(
    problem: EivProblem, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mixture-refit inputs: the normalized total error and its copies.

    The conditional-mean noise estimates shrink the residual by their
    variance shares, so refitting mixtures to them directly collapses the
    variances and lets the fitted means pump the parameters along the
    weakly excited direction of X.  Refitting instead on the normalized
    total error r / sqrt(1 + eps0^2 ||w||^2), whose per-sample variance is
    the full channel noise variance, depends only on the data and the
    current w; every candidate m is then scored on the same sample set.
    The regressor copies keep only the sign of w_j (their variance share
    per column is eps0^2 w_j^2, restored to eps0^2 per sample).
    """
    ratio = problem.eps0**2
    denom = 1.0 + ratio * float(w @ w)
    r = problem.y - problem.x @ w
    y_s = r / np.sqrt(denom)
    x_s = -np.outer(y_s * problem.eps0, np.sign(w))
    return y_s, x_s


def _fit_candidate(
    problem: EivProblem, config: EstimatorConfig, w0: np.ndarray, m: int
) -> EgleCandidate:
    """Alternate EM refits and Newton solves for mixture order m from w0.

    The candidate converges once w moves at most config.tol in an outer
    iteration.  EM refits warm-start from the previous mixtures; updates are
    halved once they stop contracting (see the loop comment).  A singular
    Newton system, a non-finite step or EM rejecting diverged samples ends
    the candidate as failed.
    """
    n, p = problem.x.shape
    w = w0.copy()
    # iterates are never updated in place, so the trace keeps references
    ws: list[np.ndarray] = []
    sse: list[float] = []
    y_gmm = x_gmm = None
    deltas: list[float] = []
    damped = False
    converged = False
    for outer in range(1, config.max_iters + 1):
        y_s, x_s = egle_em_samples(problem, w)
        try:
            y_fit = em_fit(y_s, m, config.seed, init=y_gmm)
            y_gmm = y_fit.model
            x_fit = em_fit(x_s.ravel(), m, config.seed, init=x_gmm)
            x_gmm = x_fit.model
            labels = y_fit.assignment.labels
            if not ws:
                ws.append(w)
                sse.append(_trace_objective(problem, w, y_gmm, x_gmm, labels))
            res = solve_params(problem, y_gmm, x_gmm, labels, w)
        except (EstimatorError, ValueError) as exc:
            # em_fit rejects non-finite samples once an iterate diverges
            trace = Trace(np.reshape(ws, (-1, p)), sse)
            return EgleCandidate(m, w, trace, outer, False, np.inf, y_gmm, x_gmm, str(exc))
        w_next = res.w
        delta = float(np.abs(w_next - w).max())
        # Hard row membership can flip boundary rows back and forth,
        # locking the alternation into a two-cycle; once the update
        # stops contracting, halved steps settle on the equilibrium
        # between the two assignments.
        if not damped and len(deltas) >= 2 and delta > 0.5 * deltas[-2]:
            damped = True
        if damped:
            w_next = 0.5 * (w + w_next)
            delta = 0.5 * delta
        deltas.append(delta)
        w = w_next
        ws.append(w)
        sse.append(_trace_objective(problem, w, y_gmm, x_gmm, labels))
        if delta <= config.tol:
            converged = True
            break
    bic = gmm_bic(y_fit.loglik, m, n) + gmm_bic(x_fit.loglik, m, n * p)
    return EgleCandidate(m, w, Trace(ws, sse), outer, converged, float(bic), y_gmm, x_gmm, None)


def egle_estimate(problem: EivProblem, config: EstimatorConfig) -> EstimateResult:
    """Fit a candidate per m = 1..m_max and keep the one BIC selects.

    Every candidate starts from the same w0 (the TLS solution when the
    config does not provide one).  The winner has the lowest combined BIC,
    ties going to the smaller m, and the result is its record.

    Raises
    ------
    EstimatorError
        If every candidate m fails, leaving nothing to select from.
    """
    start = time.perf_counter()
    w0 = checked_w0(config, problem.x.shape[1])
    if w0 is None:
        w0 = tls_estimate(problem).w
    orders = range(1, config.egle_m_max + 1)
    candidates = tuple(_fit_candidate(problem, config, w0, m) for m in orders)
    fitted = [c for c in candidates if c.failure is None]
    if not fitted:
        why = "; ".join(f"m={c.m}: outer={c.outer_iters}, error: {c.failure}" for c in candidates)
        raise EstimatorError(f"egle failed for every m ({why})")
    best_bic = min(c.bic for c in fitted)
    # candidates run in m order, so the first within 1e-9 has the smallest m
    win = next(c for c in fitted if c.bic <= best_bic + 1e-9)
    return EstimateResult(
        method="egle",
        w=win.w,
        iterations=win.outer_iters,
        converged=win.converged,
        trace=win.trace,
        elapsed=time.perf_counter() - start,
        egle_meta=EgleMeta(m_star=win.m, candidates=candidates),
    )
