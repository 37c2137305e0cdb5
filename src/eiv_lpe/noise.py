"""Measurement noise models and a scalar Gaussian mixture EM fitter.

Noise is injected independently into every real and imaginary phasor
component of a PMU record (8 scalars per record).  Three families are
supported: Gaussian, zero-median Laplacian sampled by inverse CDF, and a
finite scalar Gaussian mixture sampled component-first.  All sampling is
driven by an explicit seed; no global RNG state is touched.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GmmModel",
    "GaussianNoise",
    "LaplacianNoise",
    "GmmNoise",
    "NoiseModel",
    "NoiseAssignment",
    "EmFit",
    "sample_noise",
    "apply_noise",
    "em_fit",
    "gmm_bic",
]

# Floor applied to component variances; collapse below the flag threshold is
# reported through EmFit.variance_floored and a warning.
VARIANCE_FLOOR = 1e-12
COLLAPSE_FLAG = 1e-14


@dataclass(frozen=True, eq=False)
class GmmModel:
    """Scalar Gaussian mixture with components sorted by mean ascending."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        var = np.asarray(self.variances, dtype=float)
        if not (w.shape == mu.shape == var.shape) or w.ndim != 1 or w.size < 1:
            raise ValueError("weights, means, variances must be equal-length 1-d arrays")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
        if (w < 0).any():
            raise ValueError("mixture weights must be non-negative")
        if (var <= 0).any():
            raise ValueError("component variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def m(self) -> int:
        return self.weights.size

    def mean(self) -> float:
        """Mixture mean."""
        return float(self.weights @ self.means)

    def variance(self) -> float:
        """Mixture variance (law of total variance)."""
        mu = self.mean()
        return float(self.weights @ (self.variances + (self.means - mu) ** 2))

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Pointwise log density of the mixture."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return _log_resp(x, self.weights, self.means, self.variances)[1]


@dataclass(frozen=True)
class GaussianNoise:
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class LaplacianNoise:
    mu: float
    scale: float

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class GmmNoise:
    model: GmmModel


NoiseModel = GaussianNoise | LaplacianNoise | GmmNoise


@dataclass
class NoiseAssignment:
    """Per-sample hard labels plus soft responsibilities from an EM fit.

    responsibilities is (n, m), a transposed view of the fit's (m, n)
    array.  labels[i] is the argmax of responsibilities[i] with ties
    resolved to the lowest component index.
    """

    labels: np.ndarray
    responsibilities: np.ndarray


@dataclass
class EmFit:
    """Full result of one EM run, including diagnostics used by callers."""

    model: GmmModel
    assignment: NoiseAssignment
    loglik: float
    loglik_history: list[float] = field(default_factory=list)
    n_iter: int = 0
    converged: bool = False
    variance_floored: bool = False


def _draw(model: NoiseModel, count: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(model, GaussianNoise):
        return rng.normal(model.mu, model.sigma, size=count)
    if isinstance(model, LaplacianNoise):
        # Inverse CDF: u uniform on (-1/2, 1/2), x = mu - s sign(u) ln(1 - 2|u|).
        u = rng.uniform(-0.5, 0.5, size=count)
        return model.mu - model.scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    if isinstance(model, GmmNoise):
        gm = model.model
        comp = rng.choice(gm.m, size=count, p=gm.weights)
        return rng.normal(gm.means[comp], np.sqrt(gm.variances[comp]))
    raise TypeError(f"unknown noise model {model!r}")


def sample_noise(model: NoiseModel, count: int, seed: int) -> np.ndarray:
    """Draw `count` iid noise samples, deterministic in (model, count, seed)."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return _draw(model, count, np.random.default_rng(seed))


def apply_noise(records: np.recarray, model: NoiseModel, seed: int) -> np.recarray:
    """Add iid noise to all 8 phasor scalars of every record.

    Draw order is fixed per record: vk.re, vk.im, vl.re, vl.im, ik.re,
    ik.im, il.re, il.im, so a given seed always produces the same noise
    matrix regardless of caller context.
    """
    draws = sample_noise(model, 8 * len(records), seed).reshape(-1, 4, 2)
    noisy = records.copy()
    for j, name in enumerate(("vk", "vl", "ik", "il")):
        column = noisy[name]
        column.real += draws[:, j, 0]
        column.imag += draws[:, j, 1]
    return noisy


def _log_resp(x: np.ndarray, w: np.ndarray, mu: np.ndarray, var: np.ndarray):
    """(m, n) log responsibilities and the (n,) per-sample log likelihood.

    Components lie along axis 0, so every per-sample reduction runs over
    the m rows; the operations and their order are those of the (n, m)
    layout, so the results are the same bits, only faster.
    """
    log_comp = x - mu[:, None]
    log_comp *= log_comp
    log_comp *= 0.5
    log_comp /= var[:, None]
    np.subtract((np.log(w) - 0.5 * np.log(2.0 * np.pi * var))[:, None], log_comp, out=log_comp)
    top = log_comp.max(axis=0)
    shifted = log_comp - top
    np.exp(shifted, out=shifted)
    log_norm = shifted.sum(axis=0)
    np.log(log_norm, out=log_norm)
    log_norm += top
    log_comp -= log_norm
    return log_comp, log_norm


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sum each row of `a` left to right, starting from 0.

    That is the order in which ``.sum(axis=0)`` reduces a C-ordered (n, m)
    array, one sample after another.  The pairwise ``a.sum(axis=1)`` and
    ``resp @ x`` round differently, and EM's hard labels and iteration
    counts follow those bits.  Adding 0.0 turns an all-(-0.0) row into
    0.0, as the reduction from 0 does.
    """
    return np.cumsum(a, axis=1)[:, -1] + 0.0


def _em_once(
    x: np.ndarray,
    w: np.ndarray,
    mu: np.ndarray,
    var: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[float], bool, bool]:
    """One EM run from (w, mu, var); resp is (m, n), from the final E-step."""
    n = x.size
    history: list[float] = []
    floored = False
    converged = False
    for _ in range(max_iter):
        log_resp, log_pdf = _log_resp(x, w, mu, var)
        loglik = float(log_pdf.sum())
        # tol scales with |loglik|: the sum over samples grows with n
        if history and loglik - history[-1] < tol * max(1.0, abs(loglik)):
            history.append(loglik)
            converged = True
            break
        history.append(loglik)
        resp = np.exp(log_resp, out=log_resp)
        nk = np.maximum(_row_sums(resp), 1e-300)
        w = nk / n
        mu = _row_sums(resp * x) / nk
        dev = x - mu[:, None]
        dev *= dev
        dev *= resp
        var = _row_sums(dev) / nk
        if (var < COLLAPSE_FLAG).any():
            floored = True
        var = np.maximum(var, VARIANCE_FLOOR)
    else:
        log_resp, log_pdf = _log_resp(x, w, mu, var)
        history.append(float(log_pdf.sum()))
    return w, mu, var, np.exp(log_resp, out=log_resp), history, converged, floored


def em_fit(
    samples: np.ndarray,
    m: int,
    seed: int = 0,
    tol: float = 1e-9,
    max_iter: int = 500,
    init: GmmModel | None = None,
) -> EmFit:
    """Fit an m-component scalar GMM by EM.

    Initialization is deterministic: component means at the k-th quantiles,
    pooled sample variance, uniform weights.  One additional restart with
    seed-perturbed means is run and the higher final log likelihood wins.
    Passing a warm-start model via ``init`` replaces both cold starts with
    a single run from that model's parameters.  For m = 1 the closed-form
    sample moments are returned directly.  tol is relative to the log
    likelihood magnitude.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < m:
        raise ValueError(f"need at least m={m} samples, got {x.size}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")

    if m == 1:
        mu = np.array([x.mean()])
        var = np.maximum(np.array([x.var()]), VARIANCE_FLOOR)
        floored = bool(x.var() < COLLAPSE_FLAG)
        if floored:
            warnings.warn("GMM component variance collapsed; floored at 1e-12")
        _, log_pdf = _log_resp(x, np.array([1.0]), mu, var)
        loglik = float(log_pdf.sum())
        model = GmmModel(np.array([1.0]), mu, var)
        assignment = NoiseAssignment(np.zeros(x.size, dtype=int), np.ones((x.size, 1)))
        return EmFit(model, assignment, loglik, [loglik], 1, True, floored)

    if init is not None:
        if init.m != m:
            raise ValueError(f"init has {init.m} components, expected {m}")
        w, mu, var, resp, history, converged, floored = _em_once(
            x,
            init.weights.astype(float).copy(),
            init.means.astype(float).copy(),
            np.maximum(init.variances.astype(float), VARIANCE_FLOOR),
            tol,
            max_iter,
        )
    else:
        pooled = max(x.var(), VARIANCE_FLOOR)
        quantiles = np.quantile(x, (np.arange(m) + 0.5) / m)
        w0 = np.full(m, 1.0 / m)
        var0 = np.full(m, pooled)
        rng = np.random.default_rng(seed)
        perturbed = quantiles + rng.normal(0.0, np.sqrt(pooled), size=m)

        best = None
        for mu0 in (quantiles, perturbed):
            w, mu, var, resp, history, converged, floored = _em_once(
                x, w0.copy(), mu0.astype(float).copy(), var0.copy(), tol, max_iter
            )
            if best is None or history[-1] > best[4][-1]:
                best = (w, mu, var, resp, history, converged, floored)
        w, mu, var, resp, history, converged, floored = best

    order = np.argsort(mu)
    w, mu, var, resp = w[order], mu[order], var[order], resp[order]
    if floored:
        warnings.warn("GMM component variance collapsed; floored at 1e-12")
    model = GmmModel(w / w.sum(), mu, var)
    labels = resp.argmax(axis=0)
    return EmFit(
        model,
        NoiseAssignment(labels, resp.T),
        history[-1],
        history,
        len(history),
        converged,
        floored,
    )


def gmm_bic(loglik: float, m: int, n_samples: int) -> float:
    """Bayesian information criterion with k = 3m - 1 free parameters."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    k = 3 * m - 1
    return k * np.log(n_samples) - 2.0 * loglik
