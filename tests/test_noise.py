"""Noise models, seeded sampling, record corruption and GMM/EM fitting."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiv_lpe import noise
from eiv_lpe.line_model import PMU_DTYPE
from eiv_lpe.noise import (
    EmFit,
    GaussianNoise,
    GmmModel,
    GmmNoise,
    LaplacianNoise,
    apply_noise,
    em_fit,
    gmm_bic,
    sample_noise,
)


def test_gmm_model_validation():
    with pytest.raises(ValueError):
        GmmModel(np.array([0.6, 0.5]), np.zeros(2), np.ones(2))  # weights sum != 1
    with pytest.raises(ValueError):
        GmmModel(np.array([1.2, -0.2]), np.zeros(2), np.ones(2))  # negative weight
    with pytest.raises(ValueError):
        GmmModel(np.array([1.0]), np.zeros(1), np.zeros(1))  # zero variance
    with pytest.raises(ValueError):
        GmmModel(np.array([1.0]), np.zeros(2), np.ones(1))  # length mismatch


def test_gmm_model_moments():
    model = GmmModel(np.array([0.3, 0.7]), np.array([-0.06, 0.04]), np.array([4e-4, 4e-4]))
    assert model.m == 2
    assert abs(model.mean() - 0.01) < 1e-15
    # var = sum w (sigma^2 + mu^2) - mean^2
    assert abs(model.variance() - (4e-4 + 0.3 * 0.06**2 + 0.7 * 0.04**2 - 1e-4)) < 1e-15


def test_gmm_log_density_hand_check():
    model = GmmModel(np.array([0.3, 0.7]), np.array([-1.0, 2.0]), np.array([0.5, 2.0]))
    pts = np.array([-1.5, 0.0, 2.5])
    direct = np.log(
        0.3 * np.exp(-0.5 * (pts + 1.0) ** 2 / 0.5) / np.sqrt(2 * np.pi * 0.5)
        + 0.7 * np.exp(-0.5 * (pts - 2.0) ** 2 / 2.0) / np.sqrt(2 * np.pi * 2.0)
    )
    assert np.allclose(model.log_density(pts), direct, rtol=0, atol=1e-12)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        GaussianNoise(0.0, 0.0)
    with pytest.raises(ValueError):
        LaplacianNoise(0.0, -0.1)


def test_sample_noise_deterministic():
    model = GaussianNoise(0.0, 0.01)
    a = sample_noise(model, 64, seed=7)
    b = sample_noise(model, 64, seed=7)
    c = sample_noise(model, 64, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        sample_noise(model, -1, seed=0)


def test_sample_noise_moments():
    g = sample_noise(GaussianNoise(0.002, 0.01), 200_000, seed=3)
    assert abs(g.mean() - 0.002) < 2e-4
    assert abs(g.std() - 0.01) < 2e-4
    lap = sample_noise(LaplacianNoise(-0.001, 0.005), 200_000, seed=4)
    assert abs(lap.mean() + 0.001) < 2e-4
    # laplace std = sqrt(2) * scale
    assert abs(lap.std() - np.sqrt(2.0) * 0.005) < 2e-4
    model = GmmModel(np.array([0.3, 0.7]), np.array([0.0, 0.01]), np.array([4e-6, 4e-6]))
    mm = sample_noise(GmmNoise(model), 200_000, seed=5)
    assert abs(mm.mean() - model.mean()) < 2e-4
    assert abs(mm.var() - model.variance()) < 2e-6


def test_apply_noise_order_and_reproducibility():
    # per record the eight draws go to vk.re, vk.im, vl.re, vl.im,
    # ik.re, ik.im, il.re, il.im in that order
    recs = np.rec.array(
        [(0, 1 + 2j, 3 + 4j, 5 + 6j, 7 + 8j), (1, -1 + 0j, 0.5 - 0.5j, 0j, 1j)],
        dtype=PMU_DTYPE,
    )
    model = GaussianNoise(0.0, 0.3)
    noisy = apply_noise(recs, model, seed=9)
    draws = sample_noise(model, 16, seed=9).reshape(2, 8)
    for rec, out, d in zip(recs, noisy, draws):
        assert out.t == rec.t
        got = np.array(
            [
                out.vk.real - rec.vk.real, out.vk.imag - rec.vk.imag,
                out.vl.real - rec.vl.real, out.vl.imag - rec.vl.imag,
                out.ik.real - rec.ik.real, out.ik.imag - rec.ik.imag,
                out.il.real - rec.il.real, out.il.imag - rec.il.imag,
            ]
        )
        assert np.allclose(got, d, rtol=0, atol=1e-15)
    again = apply_noise(recs, model, seed=9)
    assert all(a == b for a, b in zip(noisy, again))


def test_em_single_component_closed_form():
    x = sample_noise(GaussianNoise(0.5, 2.0), 500, seed=1)
    fit = em_fit(x, 1)
    assert isinstance(fit, EmFit)
    assert fit.converged
    assert abs(fit.model.means[0] - x.mean()) < 1e-14
    assert abs(fit.model.variances[0] - x.var()) < 1e-14
    assert fit.model.weights[0] == 1.0
    # log likelihood equals the plug-in Gaussian value
    direct = -0.5 * x.size * (np.log(2 * np.pi * x.var()) + 1.0)
    assert abs(fit.loglik - direct) < 1e-8 * abs(direct)


def test_em_two_component_recovery():
    truth = GmmModel(np.array([0.3, 0.7]), np.array([-0.06, 0.04]), np.array([4e-4, 4e-4]))
    x = sample_noise(GmmNoise(truth), 4000, seed=11)
    fit = em_fit(x, 2, seed=0)
    assert fit.converged
    assert np.allclose(fit.model.weights, truth.weights, atol=0.03)
    assert np.allclose(fit.model.means, truth.means, atol=0.005)
    assert np.allclose(fit.model.variances, truth.variances, rtol=0.15)
    # components come back sorted by mean
    assert fit.model.means[0] < fit.model.means[1]
    # labels follow the dominant responsibility
    resp = fit.assignment.responsibilities
    assert np.array_equal(fit.assignment.labels, resp.argmax(axis=1))
    assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)


def test_em_monotone_loglik():
    x = sample_noise(GaussianNoise(0.0, 1.0), 300, seed=2)
    fit = em_fit(x, 2, seed=0)
    hist = np.array(fit.loglik_history)
    assert (np.diff(hist) > -1e-7 * np.abs(hist[:-1])).all()


def test_em_warm_start():
    truth = GmmModel(np.array([0.5, 0.5]), np.array([-1.0, 1.0]), np.array([0.04, 0.04]))
    x = sample_noise(GmmNoise(truth), 1000, seed=3)
    warm = em_fit(x, 2, init=truth)
    assert warm.converged
    assert warm.n_iter <= 5
    with pytest.raises(ValueError):
        em_fit(x, 3, init=truth)  # init size must match m


def test_em_argument_validation():
    with pytest.raises(ValueError):
        em_fit(np.array([1.0]), 2)  # fewer samples than components
    with pytest.raises(ValueError):
        em_fit(np.ones(5), 0)
    with pytest.raises(ValueError):
        em_fit(np.array([1.0, np.nan, 0.0]), 1)


def test_em_variance_floor_warning():
    with pytest.warns(UserWarning):
        fit = em_fit(np.zeros(5), 1)
    assert fit.variance_floored
    assert fit.model.variances[0] == 1e-12


def test_em_label_tie_break_lowest_index():
    # identical components give 0.5/0.5 responsibilities; argmax picks index 0
    init = GmmModel(np.array([0.5, 0.5]), np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    fit = em_fit(np.array([-1.0, 1.0, -0.5, 0.5]), 2, init=init)
    assert np.allclose(fit.assignment.responsibilities, 0.5, atol=1e-12)
    assert np.array_equal(fit.assignment.labels, np.zeros(4, dtype=int))


def test_gmm_bic_hand_value():
    # k = 3m - 1 free parameters, bic = k ln n - 2 loglik
    assert abs(gmm_bic(-10.0, 2, 100) - (5 * np.log(100) + 20.0)) < 1e-12
    assert abs(gmm_bic(3.5, 1, 50) - (2 * np.log(50) - 7.0)) < 1e-12
    with pytest.raises(ValueError):
        gmm_bic(0.0, 1, 0)


# --- oracle: the EM kernel in the (n, m) layout -------------------------------
# em_fit lays responsibilities out as (m, n) and sums the M-step rows left to
# right.  The (n, m) kernel below is the reference it must match bit for bit:
# a different summation order (pairwise sums, a matrix product) moves the
# hard labels and iteration counts that egle's results follow.


def _reference_log_resp(x, w, mu, var):
    log_comp = (
        np.log(w)
        - 0.5 * np.log(2.0 * np.pi * var)
        - 0.5 * (x[:, None] - mu) ** 2 / var
    )
    top = log_comp.max(axis=1, keepdims=True)
    log_norm = top + np.log(np.exp(log_comp - top).sum(axis=1, keepdims=True))
    return log_comp - log_norm, log_norm[:, 0]


def _reference_em_once(x, w, mu, var, tol, max_iter):
    n = x.size
    history = []
    floored = False
    converged = False
    for _ in range(max_iter):
        log_resp, log_pdf = _reference_log_resp(x, w, mu, var)
        loglik = float(log_pdf.sum())
        if history and loglik - history[-1] < tol * max(1.0, abs(loglik)):
            history.append(loglik)
            converged = True
            break
        history.append(loglik)
        resp = np.exp(log_resp)
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-300)
        w = nk / n
        mu = (resp * x[:, None]).sum(axis=0) / nk
        var = (resp * (x[:, None] - mu) ** 2).sum(axis=0) / nk
        if (var < noise.COLLAPSE_FLAG).any():
            floored = True
        var = np.maximum(var, noise.VARIANCE_FLOOR)
    else:
        log_resp, log_pdf = _reference_log_resp(x, w, mu, var)
        history.append(float(log_pdf.sum()))
    resp = np.exp(_reference_log_resp(x, w, mu, var)[0])
    # em_fit takes the responsibilities as (m, n)
    return w, mu, var, resp.T, history, converged, floored


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _oracle_samples(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 0)
    if kind == "gaussian":
        return rng.normal(0.0, scale, n)
    if kind == "laplacian":
        return rng.laplace(0.0, scale, n)
    # egle's x-mixture input: sign-flipped copies of one residual vector
    y = rng.normal(0.0, scale, n)
    return -np.outer(y * 0.01, rng.choice([-1.0, 1.0], size=4)).ravel()


def _oracle_init(x: np.ndarray, m: int, seed: int) -> GmmModel:
    rng = np.random.default_rng(seed + 1)
    return GmmModel(
        rng.dirichlet(np.ones(m)),
        np.sort(rng.choice(x, size=m)),
        x.var() * rng.uniform(0.2, 2.0, size=m),
    )


_ORACLE_CASES = dict(
    kind=st.sampled_from(["gaussian", "laplacian", "egle"]),
    m=st.sampled_from([2, 3]),
    n=st.integers(3, 400),
    seed=st.integers(0, 2**31 - 1),
    warm=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(**_ORACLE_CASES)
def test_em_fit_matches_nm_layout_bit_for_bit(kind, m, n, seed, warm):
    x = _oracle_samples(kind, n, seed)
    init = _oracle_init(x, m, seed) if warm else None
    # the kernel: every output of one run from the same start
    start = init or GmmModel(
        np.full(m, 1.0 / m), np.quantile(x, (np.arange(m) + 0.5) / m), np.full(m, x.var())
    )
    args = (x, start.weights, start.means, start.variances, 1e-9, 500)
    got, want = noise._em_once(*args), _reference_em_once(*args)
    for g, r in zip(got, want):
        assert _same_bits(g, r) if isinstance(g, np.ndarray) else g == r
    # the fit: both cold starts or the warm start, then ordering and labels
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a floored variance warns in both
        fit = em_fit(x, m, seed=seed, init=init)
        with mock.patch.object(noise, "_em_once", _reference_em_once):
            ref = em_fit(x, m, seed=seed, init=init)
    for name in ("weights", "means", "variances"):
        assert _same_bits(getattr(fit.model, name), getattr(ref.model, name))
    assert fit.loglik_history == ref.loglik_history
    assert (fit.n_iter, fit.converged, fit.variance_floored) == (
        ref.n_iter, ref.converged, ref.variance_floored
    )
    assert _same_bits(fit.assignment.labels, ref.assignment.labels)
    assert _same_bits(fit.assignment.responsibilities, ref.assignment.responsibilities)
    assert fit.assignment.responsibilities.shape == (x.size, m)


def test_log_density_is_the_em_kernel_log_likelihood():
    model = GmmModel(np.array([0.2, 0.5, 0.3]), np.array([-1.0, 0.0, 2.0]), np.array([0.3, 1.0, 2.0]))
    pts = np.linspace(-4.0, 5.0, 101)
    want = _reference_log_resp(pts, model.weights, model.means, model.variances)[1]
    assert _same_bits(model.log_density(pts), want)


@settings(max_examples=60, deadline=None)
@given(**_ORACLE_CASES)
def test_em_loglik_never_decreases(kind, m, n, seed, warm):
    x = _oracle_samples(kind, n, seed)
    init = _oracle_init(x, m, seed) if warm else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = em_fit(x, m, seed=seed, init=init)
    hist = np.array(fit.loglik_history)
    # each EM step raises the likelihood; only the rounding of the summed
    # log densities may show as a drop
    assert (np.diff(hist) >= -1e-12 * np.abs(hist[:-1]).clip(min=1.0)).all()
