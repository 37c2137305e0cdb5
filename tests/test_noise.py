"""Noise models, seeded sampling, record corruption and GMM/EM fitting."""

import numpy as np
import pytest

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
