"""Mixture-based EIV solver: sample map, trace objective, Newton, selection."""

import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiv_lpe.estimators import (
    EgleCandidate,
    EstimatorConfig,
    EstimatorError,
    Trace,
    cmtc_estimate,
    egle,
    egle_estimate,
    estimate,
    tls_estimate,
)
from eiv_lpe.estimators.egle import (
    _trace_objective,
    egle_em_samples,
    newton_system,
    solve_params,
)
from eiv_lpe import noise
from eiv_lpe.line_model import EivProblem, LineParameters, build_regression
from eiv_lpe.noise import GaussianNoise, GmmModel, apply_noise, em_fit, gmm_bic
from eiv_lpe.scenario import LoadRampProfile, Scenario, generate_true_records, run_scenario


def _eiv_instance(rng, n=60, p=3, noise=0.02, constrained=False):
    w_true = rng.normal(0, 1.5, p)
    x = rng.normal(size=(n, p))
    y = x @ w_true + noise * rng.normal(size=n)
    constraint = None
    if constrained:
        c = np.zeros((p, 1))
        c[0, 0] = 1.0
        constraint = (c, np.array([w_true[0]]))
    return EivProblem(x + noise * rng.normal(size=(n, p)), y, constraint=constraint), w_true


def _reference_group_terms(problem, w, y_gmm, x_gmm, labels):
    """Per-row scaled residuals alpha and gains gamma_sig, spelled out."""
    gamma_mu = y_gmm.means - x_gmm.means * float(w.sum())
    gamma_sig = y_gmm.variances + x_gmm.variances * float(w @ w)
    gs = gamma_sig[labels]
    return (problem.y - problem.x @ w - gamma_mu[labels]) / gs, gs


def _noise_estimates(problem, w, y_gmm, x_gmm, labels):
    """Conditional-mean noise realizations given parameters and mixtures.

    y_e = y_var * alpha + y_mu and x_e[:, j] = -w_j * x_var * alpha + x_mu,
    with the component moments of each row's assigned group.
    """
    alpha, _ = _reference_group_terms(problem, w, y_gmm, x_gmm, labels)
    y_e = y_gmm.variances[labels] * alpha + y_gmm.means[labels]
    x_e = -np.outer(x_gmm.variances[labels] * alpha, w) + x_gmm.means[labels][:, None]
    return y_e, x_e


def _standardized_sse(y_e, x_e, y_gmm, x_gmm, labels):
    """Half the squared norm of the component-standardized noise estimates."""
    ys = (y_e - y_gmm.means[labels]) / np.sqrt(y_gmm.variances[labels])
    xs = (x_e - x_gmm.means[labels][:, None]) / np.sqrt(x_gmm.variances[labels][:, None])
    return 0.5 * float(ys @ ys) + 0.5 * float((xs * xs).sum())


def _reference_stationarity(problem, w, y_gmm, x_gmm, labels):
    alpha, _ = _reference_group_terms(problem, w, y_gmm, x_gmm, labels)
    x_e = -np.outer(x_gmm.variances[labels] * alpha, w) + x_gmm.means[labels][:, None]
    return (problem.x - x_e).T @ alpha


def _reference_jacobian(problem, w, y_gmm, x_gmm, labels):
    alpha, gs = _reference_group_terms(problem, w, y_gmm, x_gmm, labels)
    va = x_gmm.variances[labels] * alpha
    z = problem.x - x_gmm.means[labels][:, None] + 2.0 * np.outer(va, w)
    return float(va @ alpha) * np.eye(w.size) - z.T @ (z / gs[:, None])


def test_em_samples_shapes_and_values():
    rng = np.random.default_rng(0)
    problem, w_true = _eiv_instance(rng)
    w = w_true + 0.1
    y_s, x_s = egle_em_samples(problem, w)
    denom = np.sqrt(1.0 + float(w @ w))  # eps0 = 1
    expected = (problem.y - problem.x @ w) / denom
    assert np.allclose(y_s, expected, rtol=0, atol=1e-14)
    assert x_s.shape == problem.x.shape
    assert np.allclose(x_s, -np.outer(y_s, np.sign(w)), rtol=0, atol=1e-14)


def test_noise_estimates_reconstruct_residual():
    # the conditional-mean split is exact: y_e - x_e w == y - X w row by row
    rng = np.random.default_rng(1)
    problem, w_true = _eiv_instance(rng)
    w = w_true + 0.05
    gmm = GmmModel(np.array([0.4, 0.6]), np.array([-0.01, 0.02]), np.array([1e-4, 4e-4]))
    labels = rng.integers(0, 2, size=problem.y.size)
    y_e, x_e = _noise_estimates(problem, w, gmm, gmm, labels)
    lhs = y_e - (x_e * w).sum(axis=1)
    rhs = problem.y - problem.x @ w
    assert np.abs(lhs - rhs).max() < 1e-12


def test_standardized_sse_hand_value():
    gmm = GmmModel(np.array([1.0]), np.array([0.5]), np.array([4.0]))
    y_e = np.array([0.5, 2.5])
    x_e = np.array([[0.5], [4.5]])
    labels = np.zeros(2, dtype=int)
    # y terms: (0, 1); x terms: (0, 2) -> 0.5 * (1 + 4)
    assert abs(_standardized_sse(y_e, x_e, gmm, gmm, labels) - 2.5) < 1e-14
    # the closed form: gamma_mu = 0.5 - 0.5 * 1 = 0, gamma_sig = 4 + 4 * 1 = 8,
    # so residuals (8, 16) give alpha = (1, 2) and 0.5 * (1 + 4) * 8
    problem = EivProblem(np.array([[1.0], [2.0]]), np.array([9.0, 18.0]))
    assert _trace_objective(problem, np.array([1.0]), gmm, gmm, labels) == 20.0


def _random_gmm(rng, m, scale):
    return GmmModel(
        rng.dirichlet(np.ones(m)),
        np.sort(rng.normal(0.0, scale, m)),
        rng.uniform(0.2, 2.0, m) * scale**2,
    )


def test_trace_objective_matches_noise_estimate_oracle():
    # 1/2 sum alpha^2 gamma_sig is the standardized SSE of the noise estimates
    rng = np.random.default_rng(8)
    for i in range(30):
        m = i % 3 + 1
        p = int(rng.integers(1, 5))
        problem, w_true = _eiv_instance(rng, n=int(rng.integers(4, 80)), p=p, noise=0.05)
        w = w_true + 0.1 * rng.normal(size=p)
        y_gmm, x_gmm = _random_gmm(rng, m, 0.05), _random_gmm(rng, m, 0.05)
        labels = rng.integers(0, m, size=problem.y.size)
        y_e, x_e = _noise_estimates(problem, w, y_gmm, x_gmm, labels)
        expected = _standardized_sse(y_e, x_e, y_gmm, x_gmm, labels)
        got = _trace_objective(problem, w, y_gmm, x_gmm, labels)
        assert abs(got - expected) <= 1e-12 * expected


def test_newton_system_matches_reference_formulas_bit_for_bit():
    rng = np.random.default_rng(9)
    for i in range(20):
        m = i % 3 + 1
        p = int(rng.integers(1, 5))
        problem, w_true = _eiv_instance(rng, n=int(rng.integers(4, 80)), p=p, noise=0.05)
        w = w_true + 0.1 * rng.normal(size=p)
        y_gmm, x_gmm = _random_gmm(rng, m, 0.05), _random_gmm(rng, m, 0.05)
        labels = rng.integers(0, m, size=problem.y.size)
        f, jac = newton_system(problem, w, y_gmm, x_gmm, labels)
        f_ref = _reference_stationarity(problem, w, y_gmm, x_gmm, labels)
        jac_ref = _reference_jacobian(problem, w, y_gmm, x_gmm, labels)
        assert f.tobytes() == f_ref.tobytes()
        assert jac.tobytes() == jac_ref.tobytes()


def _fd_jacobian(problem, w, y_gmm, x_gmm, labels, central):
    """Finite-difference Jacobian of newton_system's f, column by column.

    Forward differences step by 1e-7 * max(1, |w_j|), central differences
    by 1e-5 * max(1, |w_j|).
    """
    def f(v):
        return newton_system(problem, v, y_gmm, x_gmm, labels)[0]

    jac = np.empty((w.size, w.size))
    for j in range(w.size):
        h = np.zeros(w.size)
        h[j] = (1e-5 if central else 1e-7) * max(1.0, abs(w[j]))
        if central:
            jac[:, j] = (f(w + h) - f(w - h)) / (2.0 * h[j])
        else:
            jac[:, j] = (f(w + h) - f(w)) / h[j]
    return jac


def test_jacobian_matches_finite_differences_and_is_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = int(rng.integers(1, 4))
        p = int(rng.integers(2, 5))
        problem, w_true = _eiv_instance(rng, n=int(rng.integers(10, 80)), p=p, noise=0.05)
        w = w_true + 0.1 * rng.normal(size=p)
        y_gmm, x_gmm = _random_gmm(rng, m, 0.05), _random_gmm(rng, m, 0.05)
        labels = rng.integers(0, m, size=problem.y.size)
        jac = newton_system(problem, w, y_gmm, x_gmm, labels)[1]
        scale = np.abs(jac).max()
        assert np.abs(jac - jac.T).max() <= 1e-12 * scale
        central = _fd_jacobian(problem, w, y_gmm, x_gmm, labels, central=True)
        assert np.abs(jac - central).max() <= 1e-6 * scale
        forward = _fd_jacobian(problem, w, y_gmm, x_gmm, labels, central=False)
        assert np.abs(jac - forward).max() <= 1e-4 * scale


def test_solve_params_with_zero_mean_gaussian_matches_tls():
    # with a single zero-mean component on both sides the stationarity
    # system reduces to the total least squares optimality condition
    rng = np.random.default_rng(2)
    for i in range(3):
        problem, _ = _eiv_instance(rng, n=120, p=3, noise=0.05)
        w_tls = tls_estimate(problem).w
        pinned = GmmModel(np.array([1.0]), np.array([0.0]), np.array([0.05**2]))
        labels = np.zeros(problem.y.size, dtype=int)
        res = solve_params(problem, pinned, pinned, labels, w_tls * 1.05)
        assert res.converged
        assert np.abs(res.w - w_tls).max() < 1e-8 * np.abs(w_tls).max()
        # and the stationarity residual vanishes there
        f = newton_system(problem, res.w, pinned, pinned, labels)[0]
        assert np.abs(f).max() < 1e-8


def test_solve_params_respects_constraint():
    rng = np.random.default_rng(3)
    problem, w_true = _eiv_instance(rng, constrained=True)
    c, f_vec = problem.constraint
    pinned = GmmModel(np.array([1.0]), np.array([0.0]), np.array([0.02**2]))
    labels = np.zeros(problem.y.size, dtype=int)
    res = solve_params(problem, pinned, pinned, labels, w_true + 0.1)
    assert abs((c.T @ res.w).item() - f_vec.item()) < 1e-10


def _unconstrained_newton(problem, y_gmm, x_gmm, labels, w0):
    """Plain Newton steps on J alone: the w, iterations and converged that solve_params
    must give on a problem without constraint columns."""
    w = np.asarray(w0, dtype=float).copy()
    for it in range(egle.NEWTON_MAX_ITER):
        f0, jac = newton_system(problem, w, y_gmm, x_gmm, labels)
        step = np.linalg.solve(jac, -f0)
        w = w + step
        if float(np.abs(step).max()) <= egle.NEWTON_TOL:
            return w, it + 1, True
    return w, egle.NEWTON_MAX_ITER, False


def test_solve_params_without_a_constraint_matches_plain_newton_bit_for_bit():
    # with no constraint columns the KKT system is the Jacobian itself, so
    # the solve takes the same steps as plain Newton, bit for bit
    rng = np.random.default_rng(12)
    converged = 0
    for i in range(40):
        m = i % 3 + 1
        p = int(rng.integers(1, 5))
        problem, w_true = _eiv_instance(rng, n=int(rng.integers(10, 80)), p=p, noise=0.05)
        y_gmm, x_gmm = _random_gmm(rng, m, 0.05), _random_gmm(rng, m, 0.05)
        labels = rng.integers(0, m, size=problem.y.size)
        w0 = w_true + 0.1 * rng.normal(size=p)
        w, iterations, ok = _unconstrained_newton(problem, y_gmm, x_gmm, labels, w0)
        empty = EivProblem(problem.x, problem.y, constraint=(np.zeros((p, 0)), np.zeros(0)))
        for prob in (problem, empty):
            res = solve_params(prob, y_gmm, x_gmm, labels, w0)
            assert res.w.tobytes() == w.tobytes()
            assert (res.iterations, res.converged) == (iterations, ok)
        converged += ok
    assert converged >= 20


def test_egle_estimate_near_truth_and_meta():
    rng = np.random.default_rng(4)
    problem, w_true = _eiv_instance(rng, n=200, p=3, noise=0.02, constrained=True)
    with warnings.catch_warnings():
        # the m = 2 candidate may collapse a variance on near-Gaussian noise
        warnings.simplefilter("ignore", UserWarning)
        res = egle_estimate(problem, EstimatorConfig("egle", egle_m_max=2, w0=w_true + 0.05))
    assert np.abs(res.w - w_true).max() < 0.05
    meta = res.egle_meta
    assert [c.m for c in meta.candidates] == [1, 2]
    assert all(c.failure is None and c.y_gmm.weights.size == c.m for c in meta.candidates)
    assert meta.m_star in (1, 2)
    # the winner has the lowest BIC and ties go to the smaller m
    best = min(c.bic for c in meta.candidates)
    win = meta.candidates[meta.m_star - 1]
    assert win.bic <= best + 1e-9
    assert all(c.bic > best + 1e-9 for c in meta.candidates[: meta.m_star - 1])
    # the result is the winner's record
    assert res.w.tobytes() == win.w.tobytes()
    assert (res.iterations, res.converged) == (win.outer_iters, win.converged)
    assert res.trace.w.tobytes() == win.trace.w.tobytes()
    assert res.trace.objective.tobytes() == win.trace.objective.tobytes()
    assert len(res.trace) == res.iterations + 1
    # constrained output lands on the constraint set
    c, f_vec = problem.constraint
    assert abs((c.T @ res.w).item() - f_vec.item()) < 1e-10


def _spy_em_fit(monkeypatch):
    """Record (m, sample count) of every em_fit call egle makes."""
    real_em_fit, calls = egle.em_fit, []

    def em_fit(samples, m, *args, **kwargs):
        calls.append((m, samples.size))
        return real_em_fit(samples, m, *args, **kwargs)

    monkeypatch.setattr(egle, "em_fit", em_fit)
    return calls


def test_egle_estimate_on_a_long_window_does_not_move_with_pairwise_sums(monkeypatch):
    # criterion 2's shape on 1,024 records: the x samples are 16 * 1,024 =
    # 2**14 copies of 2**13 distinct values (w's signs are +, +, -, -), so the
    # m = 2 x fits run on the distinct half and sum pairwise, and the reported
    # candidate is m = 1
    scenario = Scenario(
        "long", LineParameters(r=0.00269, x=0.0302, b=0.38),
        LoadRampProfile(n_records=1024, vk_mag=(1.00, 1.02), angle_spread=(0.04, 0.24),
                        sag_per_rad=0.05),
        GaussianNoise(0.0, 0.005),
    )

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            (out,) = run_scenario(scenario, [EstimatorConfig("egle")], seed=0)
        return out.result

    calls = _spy_em_fit(monkeypatch)
    res = run()
    problem = build_regression(apply_noise(generate_true_records(scenario), scenario.noise, 0))
    n, p = problem.x.shape
    assert (n, p) == (4096, 4)
    # y fits get the n rows; x fits get all 4n samples at m = 1, the 2n distinct ones at m = 2
    assert {size for m, size in calls if m == 1} == {n, 4 * n}
    assert {size for m, size in calls if m == 2} == {n, 2 * n}
    # above every sample count, the constant gives left-to-right sums on all 4n samples
    monkeypatch.setattr(noise, "EM_LARGE_FIT_SAMPLES", 1 << 30)
    calls.clear()
    ref = run()
    assert {size for m, size in calls if m == 2} == {n, 4 * n}
    meta, ref_meta = res.egle_meta, ref.egle_meta
    assert meta.m_star == ref_meta.m_star == 1
    assert res.w.tobytes() == ref.w.tobytes()
    assert res.trace.w.tobytes() == ref.trace.w.tobytes()
    assert res.trace.objective.tobytes() == ref.trace.objective.tobytes()
    one, two = meta.candidates
    ref_one, ref_two = ref_meta.candidates
    assert (one.outer_iters, two.outer_iters) == (ref_one.outer_iters, ref_two.outer_iters)
    assert one.bic == ref_one.bic
    assert two.bic == pytest.approx(ref_two.bic, rel=1e-9, abs=0)
    # the m = 2 BIC is that of the final mixtures on the last refit's full samples
    y_s, x_s = egle_em_samples(problem, two.trace.w[-2])
    bic = noise.gmm_bic(two.y_gmm.log_density(y_s).sum(), 2, n) + noise.gmm_bic(
        two.x_gmm.log_density(x_s.ravel()).sum(), 2, n * p
    )
    assert two.bic == pytest.approx(bic, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "signs, distinct_columns",
    [((1, 1, -1, -1), 2), ((1, -1, 1, -1), 2), ((1, 1, 1, 1), 1), ((1, 1, 1, -1), 4)],
    ids=["2+2", "alternating", "4", "3+1"],
)
def test_egle_fits_x_mixtures_on_distinct_columns_only_when_signs_pair_up(
    monkeypatch, signs, distinct_columns
):
    rng = np.random.default_rng(11)
    n, p = 200, 4
    w_true = np.array(signs) * rng.uniform(1.0, 2.0, p)
    x = rng.normal(size=(n, p))
    problem = EivProblem(x + 0.02 * rng.normal(size=(n, p)), x @ w_true + 0.02 * rng.normal(size=n))
    calls = _spy_em_fit(monkeypatch)
    # every fit counts as large, so only the sign counts decide
    monkeypatch.setattr(noise, "EM_LARGE_FIT_SAMPLES", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = egle_estimate(problem, EstimatorConfig("egle", egle_m_max=2, w0=w_true))
    assert all(c.failure is None for c in res.egle_meta.candidates)
    assert {size for m, size in calls if m == 1} == {n, n * p}
    assert {size for m, size in calls if m == 2} == {n, n * distinct_columns}


def test_egle_keeps_other_candidates_when_em_fails(monkeypatch):
    # a diverged iterate makes em_fit reject its samples with ValueError;
    # that fails only the candidate m it happened in
    real_em_fit = egle.em_fit

    def em_fit(samples, m, *args, **kwargs):
        if m == 2:
            raise ValueError("samples must be finite")
        return real_em_fit(samples, m, *args, **kwargs)

    monkeypatch.setattr(egle, "em_fit", em_fit)
    rng = np.random.default_rng(4)
    problem, w_true = _eiv_instance(rng, n=200, p=3, noise=0.02)
    res = egle_estimate(problem, EstimatorConfig("egle", egle_m_max=2, w0=w_true + 0.05))
    assert res.egle_meta.m_star == 1
    one, two = res.egle_meta.candidates
    assert np.isfinite(one.bic) and one.failure is None
    # m = 2 failed in its first outer iteration, before any fit or iterate
    assert two.bic == np.inf and two.failure == "samples must be finite"
    assert two.outer_iters == 1 and not two.converged
    assert two.y_gmm is None and two.x_gmm is None and len(two.trace) == 0
    assert two.newton_steps == two.newton_unconverged == 0


def test_egle_candidate_failing_in_a_later_iteration_keeps_what_it_completed(monkeypatch):
    # m = 2's third Newton solve fails; the candidate keeps its two
    # completed iterations, their mixtures and Newton counts, and its last w
    rng = np.random.default_rng(4)
    problem, w_true = _eiv_instance(rng, n=200, p=3, noise=0.02, constrained=True)
    real_solve, done = egle.solve_params, []

    def solve_params(problem, y_gmm, *args):
        if y_gmm.weights.size != 2:
            return real_solve(problem, y_gmm, *args)
        if len(done) == 2:
            raise EstimatorError("singular Newton system (cond(J) = inf)")
        done.append(real_solve(problem, y_gmm, *args))
        return done[-1]

    monkeypatch.setattr(egle, "solve_params", solve_params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = egle_estimate(problem, EstimatorConfig("egle", egle_m_max=2, w0=w_true + 0.05))
    one, two = res.egle_meta.candidates
    assert res.egle_meta.m_star == 1 and one.failure is None
    assert two.failure == "singular Newton system (cond(J) = inf)"
    assert two.outer_iters == 3 and len(two.trace) == 3
    assert two.w.tobytes() == two.trace.w[-1].tobytes()
    assert two.y_gmm.weights.size == two.x_gmm.weights.size == 2
    assert two.newton_steps == sum(r.iterations for r in done)
    assert two.newton_unconverged == sum(not r.converged for r in done)
    assert not two.converged and two.bic == np.inf


def test_egle_starts_from_tls_when_unseeded():
    rng = np.random.default_rng(5)
    problem, _ = _eiv_instance(rng, n=150, p=2, noise=0.01)
    res = egle_estimate(problem, EstimatorConfig("egle", egle_m_max=1))
    w_tls = tls_estimate(problem).w
    assert np.allclose(res.trace[0][0], w_tls, rtol=0, atol=1e-12)


def test_egle_candidates_count_their_newton_steps(monkeypatch):
    # each candidate's counts are the sums over the solves it made, seen
    # through a wrapper that tells the candidates apart by mixture order
    rng = np.random.default_rng(4)
    problem, w_true = _eiv_instance(rng, n=200, p=3, noise=0.02, constrained=True)
    config = EstimatorConfig("egle", egle_m_max=2, w0=w_true + 0.05)
    solves = {1: [], 2: []}
    real_solve = egle.solve_params

    def solve_params(problem, y_gmm, *args):
        res = real_solve(problem, y_gmm, *args)
        solves[y_gmm.weights.size].append(res)
        return res

    monkeypatch.setattr(egle, "solve_params", solve_params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        watched = egle_estimate(problem, config)
    for c in watched.egle_meta.candidates:
        assert len(solves[c.m]) == c.outer_iters
        assert c.newton_steps == sum(r.iterations for r in solves[c.m]) >= c.outer_iters
        assert c.newton_unconverged == sum(not r.converged for r in solves[c.m]) == 0
    # one step per solve: every solve ends at the cap, unconverged
    monkeypatch.setattr(egle, "NEWTON_MAX_ITER", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        capped = egle_estimate(problem, config)
    for c in capped.egle_meta.candidates:
        assert c.failure is None
        assert c.newton_unconverged == c.newton_steps == c.outer_iters


def _plain_fit_candidate(problem, config, w0, m):
    """egle's outer loop without the cycle replay: every outer iteration up
    to the cap refits both mixtures and solves for w."""
    n, p = problem.x.shape
    w = w0.copy()
    ws, sse, deltas = [], [], []
    y_gmm = x_gmm = None
    damped = converged = False
    failure = None
    newton_steps = newton_unconverged = 0
    for outer in range(1, config.max_iters + 1):
        y_s, x_s = egle_em_samples(problem, w)
        signs, first, counts = np.unique(np.sign(w), return_index=True, return_counts=True)
        copies = 1
        if m > 1 and (counts == counts[0]).all() and n * signs.size >= noise.EM_LARGE_FIT_SAMPLES:
            copies, x_s = int(counts[0]), x_s[:, np.sort(first)]
        try:
            y_fit = em_fit(y_s, m, config.seed, init=y_gmm)
            y_gmm = y_fit.model
            x_fit = em_fit(x_s.ravel(), m, config.seed, init=x_gmm)
            x_gmm = x_fit.model
            labels = y_fit.labels
            if not ws:
                ws.append(w)
                sse.append(_trace_objective(problem, w, y_gmm, x_gmm, labels))
            res = solve_params(problem, y_gmm, x_gmm, labels, w)
        except (EstimatorError, ValueError) as exc:
            failure = str(exc)
            break
        newton_steps += res.iterations
        newton_unconverged += not res.converged
        w_next = res.w
        delta = float(np.abs(w_next - w).max())
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
    bic = np.inf
    if failure is None:
        bic = gmm_bic(y_fit.loglik, m, n) + gmm_bic(copies * x_fit.loglik, m, n * p)
    return EgleCandidate(
        m, w, Trace(np.reshape(ws, (-1, p)), sse), outer, converged, float(bic),
        y_gmm, x_gmm, failure, newton_steps, newton_unconverged, None,
    )


def _bits(value):
    """A candidate field as bytes and reprs, equal only for the same bits."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, Trace):
        return value.w.tobytes(), value.objective.tobytes()
    if isinstance(value, GmmModel):
        return tuple(a.tobytes() for a in (value.weights, value.means, value.variances))
    return repr(value)


@pytest.mark.parametrize("seed", [0, 3])
def test_egle_cycle_replay_matches_the_plain_loop_bit_for_bit(monkeypatch, seed):
    # with a tolerance below any step the damped iteration runs until its
    # state repeats bit for bit (here: seed 0's m = 2 candidate from outer
    # iteration 44 with period 6, seed 3's m = 1 from 13 with period 1,
    # where the half step rounds back to w); the other candidate reaches
    # the cap or converges
    rng = np.random.default_rng(seed)
    problem, w_true = _eiv_instance(rng, n=20, p=3, noise=0.02, constrained=True)
    config = EstimatorConfig("egle", max_iters=60, tol=1e-300, w0=w_true + 0.05)
    calls = _spy_em_fit(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        replayed = egle_estimate(problem, config)
        fits = [m for m, _ in calls]
        monkeypatch.setattr(egle, "_fit_candidate", _plain_fit_candidate)
        plain = egle_estimate(problem, config)
    assert any(c.cycle is not None for c in replayed.egle_meta.candidates)
    assert replayed.egle_meta.m_star == plain.egle_meta.m_star
    names = [f.name for f in fields(EgleCandidate) if f.name != "cycle"]
    for c, ref in zip(replayed.egle_meta.candidates, plain.egle_meta.candidates):
        assert [_bits(getattr(c, k)) for k in names] == [_bits(getattr(ref, k)) for k in names]
        if c.cycle is None:
            assert fits.count(c.m) == 2 * c.outer_iters
            continue
        start, period = c.cycle
        assert c.outer_iters == config.max_iters and not c.converged
        # the w that started iteration `start` starts iteration start + period
        assert c.trace.w[start - 1].tobytes() == c.trace.w[start - 1 + period].tobytes()
        # the replay refits nothing: two fits per outer iteration before the repeat
        assert fits.count(c.m) == 2 * (start + period - 1)
    assert _bits(replayed.w) == _bits(plain.w) and _bits(replayed.trace) == _bits(plain.trace)


def test_egle_outer_iteration_cap():
    rng = np.random.default_rng(6)
    problem, w_true = _eiv_instance(rng, n=80, p=2, noise=0.05)
    res = egle_estimate(
        problem, EstimatorConfig("egle", egle_m_max=1, max_iters=2, w0=w_true + 0.3)
    )
    assert res.iterations <= 2


def test_egle_all_candidates_failing_raises():
    # a zero regression keeps the stationarity system identically zero, so
    # every candidate m hits a singular Newton system
    problem = EivProblem(np.zeros((2, 2)), np.zeros(2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        with pytest.raises(EstimatorError) as info:
            egle_estimate(problem, EstimatorConfig("egle", w0=np.array([0.1, -0.2])))
    singular = "error: singular Newton system (cond(J) = inf)"
    assert str(info.value) == (
        f"egle failed for every m (m=1: outer=1, {singular}; m=2: outer=1, {singular})"
    )


@pytest.mark.parametrize("method", ["mtee", "mtc", "cmtc", "egle"])
def test_w0_of_the_wrong_shape_is_rejected(method):
    # egle checks w0 as the ascent methods do, before numpy's matmul would;
    # a non-finite start is rejected before any iteration could diverge on it
    rng = np.random.default_rng(8)
    problem, _ = _eiv_instance(rng, n=40, p=4, constrained=True)
    with pytest.raises(ValueError, match=r"^w0 must have shape \(4,\)$"):
        estimate(problem, EstimatorConfig(method, w0=np.zeros(3)))
    for bad in (np.nan, np.inf, -np.inf):
        w0 = np.array([0.1, bad, -0.1, 0.2])
        with pytest.raises(ValueError, match=r"^w0 must be finite$"):
            estimate(problem, EstimatorConfig(method, w0=w0))


def _tied_window(n_records, seed):
    scenario = Scenario(
        "w", LineParameters(r=0.00269, x=0.0302, b=0.38),
        LoadRampProfile(n_records=n_records, vk_mag=(0.95, 1.08), angle_spread=(0.3, 0.6)),
        GaussianNoise(0.0, 0.005), seed=seed,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short windows may be ill conditioned
        clean = generate_true_records(scenario)
    return build_regression(apply_noise(clean, scenario.noise, seed))


@pytest.mark.parametrize("method", ["cmtc", "egle"])
@settings(max_examples=15, deadline=None)
@given(n_records=st.integers(3, 25), seed=st.integers(0, 2**32 - 1))
def test_constrained_iterates_satisfy_y1_plus_y3_zero(method, n_records, seed):
    # every iterate after the start lies on C^T w = y1 + y3 = 0, whether it
    # comes from the multiplier correction (cmtc) or a KKT Newton step (egle)
    problem = _tied_window(n_records, seed)
    w0 = tls_estimate(problem).w
    if method == "cmtc":
        run, config = cmtc_estimate, EstimatorConfig("cmtc", w0=w0, max_iters=200)
    else:
        run, config = egle_estimate, EstimatorConfig("egle", w0=w0, max_iters=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # EM variance floor
        res = run(problem, config)
    assert len(res.trace) > 1
    for w, _ in res.trace[1:]:
        assert abs(w[0] + w[2]) <= 1e-10
