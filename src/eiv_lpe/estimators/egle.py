"""Grouped Gaussian-mixture EIV estimator with BIC model selection.

The noise on the response and on the regressors is modeled by two scalar
Gaussian mixtures sharing a component count m.  Rows are assigned to mixture
components, and for each candidate m the estimator alternates three steps:
estimate per-entry noise realizations from the current parameters, refit
both mixtures by EM on those estimates, and re-solve the parameter
stationarity system by Newton's method (with a KKT-augmented system when the
problem carries an equality constraint).  The final m is chosen by the
lowest summed BIC of the two mixture fits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..line_model import EivProblem
from ..noise import GmmModel, em_fit, gmm_bic
from .config import EgleMeta, EstimateResult, EstimatorConfig, EstimatorError, Trace
from .tls import tls_estimate

__all__ = [
    "standardized_sse",
    "egle_stationarity",
    "egle_jacobian",
    "egle_noise_estimates",
    "egle_em_samples",
    "solve_params",
    "NewtonResult",
    "egle_estimate",
]

NEWTON_MAX_ITER = 50


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row scaled residuals alpha plus the per-row mixture moments.

    For a row in component g the residual offset and gain are

        gamma_mu_g  = y_mu_g - x_mu_g * sum_j w_j
        gamma_sig_g = y_var_g + x_var_g * sum_j w_j^2

    and alpha = (y - Xw - gamma_mu) / gamma_sig elementwise.
    """
    w_sum = float(w.sum())
    w_sq = float(w @ w)
    gamma_mu = y_gmm.means - x_gmm.means * w_sum
    gamma_sig = y_gmm.variances + x_gmm.variances * w_sq
    gm = gamma_mu[labels]
    gs = gamma_sig[labels]
    alpha = (problem.y - problem.x @ w - gm) / gs
    return alpha, gm, gs


def egle_noise_estimates(
    problem: EivProblem,
    w: np.ndarray,
    y_gmm: GmmModel,
    x_gmm: GmmModel,
    labels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional-mean noise realizations given parameters and mixtures.

    y_e = y_var * alpha + y_mu and x_e[:, j] = -w_j * x_var * alpha + x_mu,
    with the component moments of each row's assigned group.  Substituting
    these back into the regression reproduces the row residual exactly.
    """
    alpha, _, _ = _group_terms(problem, w, y_gmm, x_gmm, labels)
    y_e = y_gmm.variances[labels] * alpha + y_gmm.means[labels]
    x_e = (
        -np.outer(x_gmm.variances[labels] * alpha, w)
        + x_gmm.means[labels][:, None]
    )
    return y_e, x_e


def egle_stationarity(
    problem: EivProblem,
    w: np.ndarray,
    y_gmm: GmmModel,
    x_gmm: GmmModel,
    labels: np.ndarray,
) -> np.ndarray:
    """Gradient-of-likelihood system f(w) = sum_g (X_g - Xe_g)^T alpha_g."""
    alpha, _, _ = _group_terms(problem, w, y_gmm, x_gmm, labels)
    x_e = (
        -np.outer(x_gmm.variances[labels] * alpha, w)
        + x_gmm.means[labels][:, None]
    )
    return (problem.x - x_e).T @ alpha


def egle_jacobian(
    problem: EivProblem,
    w: np.ndarray,
    y_gmm: GmmModel,
    x_gmm: GmmModel,
    labels: np.ndarray,
) -> np.ndarray:
    """Exact Jacobian of egle_stationarity with respect to w.

    With v and mu the x-mixture variance and mean of each row's component,
    gamma_sig the row gains of _group_terms and
    Z = X - mu 1^T + 2 (v * alpha) w^T, so that d alpha / d w =
    -diag(1 / gamma_sig) Z,

        J = (sum_i v_i alpha_i^2) I - Z^T diag(1 / gamma_sig) Z,

    which is symmetric because f is a gradient.
    """
    alpha, _, gs = _group_terms(problem, w, y_gmm, x_gmm, labels)
    va = x_gmm.variances[labels] * alpha
    z = problem.x - x_gmm.means[labels][:, None] + 2.0 * np.outer(va, w)
    return float(va @ alpha) * np.eye(w.size) - z.T @ (z / gs[:, None])


def standardized_sse(
    y_e: np.ndarray,
    x_e: np.ndarray,
    y_gmm: GmmModel,
    x_gmm: GmmModel,
    labels: np.ndarray,
) -> float:
    """Half the squared norm of the component-standardized noise estimates."""
    ys = (y_e - y_gmm.means[labels]) / np.sqrt(y_gmm.variances[labels])
    xs = (x_e - x_gmm.means[labels][:, None]) / np.sqrt(x_gmm.variances[labels][:, None])
    return 0.5 * float(ys @ ys) + 0.5 * float((xs * xs).sum())


def solve_params(
    problem: EivProblem,
    y_gmm: GmmModel,
    x_gmm: GmmModel,
    labels: np.ndarray,
    w0: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = NEWTON_MAX_ITER,
) -> NewtonResult:
    """Newton solve of the stationarity system for fixed mixtures.

    Each step uses the closed-form Jacobian of egle_jacobian.  With an
    equality constraint C^T w = f the step solves the KKT-augmented
    system, so every iterate after the first lies exactly on the
    constraint set.

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
    for it in range(max_iter):
        f0 = egle_stationarity(problem, w, y_gmm, x_gmm, labels)
        jac = egle_jacobian(problem, w, y_gmm, x_gmm, labels)
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
        if float(np.abs(step).max()) <= tol:
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


def egle_estimate(problem: EivProblem, config: EstimatorConfig) -> EstimateResult:
    """Alternating noise-estimation / EM / Newton loop over m = 1..m_max.

    Every candidate m starts from the same w0 (the TLS solution when the
    config does not provide one).  A candidate converges when the parameter
    vector moves less than egle_outer_tol between outer iterations; EM
    refits after the first outer iteration warm-start from the previous
    mixtures, and updates are halved once they stop contracting (see the
    loop comment).  The winner is the candidate with the lowest combined BIC,
    ties going to the smaller m; the result's converged flag reports
    whether that candidate met the outer tolerance.

    Raises
    ------
    EstimatorError
        If every candidate m fails outright (singular Newton systems,
        non-finite steps or EM rejecting diverged samples), leaving nothing
        to select from.
    """
    start = time.perf_counter()
    n, p = problem.x.shape
    if config.w0 is not None:
        w0 = np.asarray(config.w0, dtype=float).copy()
    else:
        w0 = tls_estimate(problem).w
    runs: dict[int, dict] = {}
    for m in range(1, config.egle_m_max + 1):
        w = w0.copy()
        # iterates are never updated in place, so the trace keeps references
        ws: list[np.ndarray] = []
        sse: list[float] = []
        outer = 0
        converged = False
        failure: str | None = None
        y_fit = x_fit = None
        deltas: list[float] = []
        damped = False
        for outer in range(1, config.max_iters + 1):
            y_s, x_s = egle_em_samples(problem, w)
            try:
                y_fit = em_fit(
                    y_s, m, config.seed,
                    init=y_fit.model if y_fit is not None else None,
                )
                x_fit = em_fit(
                    x_s.ravel(), m, config.seed,
                    init=x_fit.model if x_fit is not None else None,
                )
                labels = y_fit.assignment.labels
                if not ws:
                    y_e, x_e = egle_noise_estimates(
                        problem, w, y_fit.model, x_fit.model, labels
                    )
                    ws.append(w)
                    sse.append(standardized_sse(y_e, x_e, y_fit.model, x_fit.model, labels))
                res = solve_params(
                    problem, y_fit.model, x_fit.model, labels, w,
                    tol=config.egle_inner_tol,
                )
            except (EstimatorError, ValueError) as exc:
                # em_fit rejects non-finite samples once an iterate diverges
                failure = str(exc)
                break
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
            y_e, x_e = egle_noise_estimates(problem, w, y_fit.model, x_fit.model, labels)
            ws.append(w)
            sse.append(standardized_sse(y_e, x_e, y_fit.model, x_fit.model, labels))
            if delta <= config.egle_outer_tol:
                converged = True
                break
        if y_fit is not None and failure is None:
            bic = gmm_bic(y_fit.loglik, m, n) + gmm_bic(x_fit.loglik, m, n * p)
        else:
            bic = np.inf
        runs[m] = {
            "w": w,
            "ws": ws,
            "sse": sse,
            "outer": outer,
            "converged": converged,
            "bic": float(bic),
            "y_gmm": y_fit.model if y_fit is not None else None,
            "x_gmm": x_fit.model if x_fit is not None else None,
            "failure": failure,
        }
    candidates = {m: r for m, r in runs.items() if r["failure"] is None}
    if not candidates:
        detail = "; ".join(
            f"m={m}: outer={r['outer']}, error: {r['failure']}" for m, r in runs.items()
        )
        raise EstimatorError(f"egle failed for every m ({detail})")
    best_bic = min(r["bic"] for r in candidates.values())
    m_star = min(m for m, r in candidates.items() if r["bic"] <= best_bic + 1e-9)
    win = runs[m_star]
    meta = EgleMeta(
        m_star=m_star,
        bic_by_m={m: r["bic"] for m, r in runs.items()},
        y_gmm=win["y_gmm"],
        x_gmm=win["x_gmm"],
        outer_iters_by_m={m: r["outer"] for m, r in runs.items()},
        converged_by_m={m: r["converged"] for m, r in runs.items()},
    )
    return EstimateResult(
        method="egle",
        w=win["w"],
        iterations=win["outer"],
        converged=win["converged"],
        trace=Trace(win["ws"], win["sse"]),
        elapsed=time.perf_counter() - start,
        egle_meta=meta,
    )
