"""Entropy and correntropy ascent: objectives, gradients, constraints, guards."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiv_lpe.estimators import (
    DivergenceError,
    EstimatorConfig,
    EstimatorError,
    cmtc_estimate,
    estimate,
    mtc_estimate,
    mtee_estimate,
    tls_estimate,
)
from eiv_lpe.estimators import itl
from eiv_lpe.estimators.itl import (
    _block_rows,
    mtc_gradient,
    mtc_objective,
    mtee_gradient,
    mtee_objective,
    total_error,
)
from eiv_lpe.line_model import EivProblem, LineParameters, build_regression, params_to_admittance
from eiv_lpe.noise import GaussianNoise, LaplacianNoise, apply_noise
from eiv_lpe.scenario import (
    LoadRampProfile,
    Scenario,
    generate_true_records,
    initial_guess,
    run_scenario,
)

# largest n the kernel pass covers in one row block
ONE_BLOCK = max(n for n in range(1, 4096) if _block_rows(n) == n)


def _random_problem(rng, n, p, noise=0.01, constrained=False):
    w_true = rng.normal(0, 1, p)
    x = rng.normal(size=(n, p))
    y = x @ w_true + noise * rng.normal(size=n)
    constraint = None
    if constrained:
        c = np.zeros((p, 1))
        c[0, 0] = 1.0
        constraint = (c, np.array([w_true[0]]))
    return EivProblem(x + noise * rng.normal(size=(n, p)), y, constraint=constraint), w_true


def test_total_error_formula():
    rng = np.random.default_rng(0)
    problem, _ = _random_problem(rng, 12, 3)
    w = rng.normal(size=3)
    e = total_error(problem, w)
    expected = (problem.y - problem.x @ w) / np.sqrt(w @ w + 1.0)
    assert np.allclose(e, expected, rtol=0, atol=1e-14)


def test_mtee_objective_matches_double_sum():
    # blocked kernel pass equals the naive O(n^2) double sum, including
    # sizes that end in a partial block
    rng = np.random.default_rng(1)
    sigma = 0.4
    for n in (15, 100, ONE_BLOCK, ONE_BLOCK + 1, 2 * ONE_BLOCK - 5):
        problem, w_true = _random_problem(rng, n, 3, noise=0.05)
        w = w_true + 0.1 * rng.normal(size=3)
        e = total_error(problem, w)
        brute = 0.0
        for i in range(n):
            brute += float(np.exp(-((e[i] - e) ** 2) / (4.0 * sigma**2)).sum())
        brute /= 2.0 * sigma * np.sqrt(np.pi) * n**2
        assert abs(mtee_objective(problem, w, sigma) - brute) < 1e-14


def test_mtee_objective_peak_at_zero_error():
    # identical errors put every pair at the kernel peak 1 / (2 sigma sqrt(pi))
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    w = np.array([0.5, -0.25])
    problem = EivProblem(x, x @ w)
    for sigma in (0.02, 0.3):
        assert abs(mtee_objective(problem, w, sigma) - 1.0 / (2 * sigma * np.sqrt(np.pi))) < 1e-14


def _elementwise_value_grad(problem, w, sigma, rows=64):
    """Oracle: the pass the moment form replaced, summing K, K*d and K*d^2
    pair by pair over 64-row blocks of the uncentred errors."""
    x = problem.x
    n = x.shape[0]
    s = float(w @ w + problem.eps0**-2)
    e = (problem.y - x @ w) / np.sqrt(s)
    ksum, quad, rs = 0.0, 0.0, np.empty(n)
    for lo in range(0, n, rows):
        d = e[lo : lo + rows, None] - e[None, :]
        k = np.exp(d * d * (-0.25 / sigma**2))
        ksum += float(k.sum())
        rs[lo : lo + rows] = (k * d).sum(axis=1)
        quad += float((k * d * d).sum())
    norm = 1.0 / (2.0 * sigma * np.sqrt(np.pi))
    grad = (quad * w / s + 2.0 * (x.T @ rs) / np.sqrt(s)) * (norm / (2.0 * sigma**2 * n**2))
    return ksum * norm / n**2, grad


def _subtract_value_grad(problem, w, sigma):
    """Oracle: the moment pass as it took each block's pair differences
    from the broadcast subtract raw[lo:hi, None] - raw."""
    x = problem.x
    n = x.shape[0]
    s = float(w @ w) + problem.eps0**-2
    root_s = math.sqrt(s)
    raw = problem.y - x @ w
    raw /= root_s
    basis = np.empty((2, n))
    basis[0] = 1.0
    e = basis[1]
    np.subtract(raw, raw.sum() / n, out=e)
    moments = np.empty((2, n))
    rows = _block_rows(n)
    block = np.empty((rows, n))
    coef = -0.25 / (sigma * sigma)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        k = block[: hi - lo]
        np.subtract(raw[lo:hi, None], raw, out=k)
        np.multiply(k, k, out=k)
        k *= coef
        np.exp(k, out=k)
        k.ravel()[lo :: n + 1] = 0.0
        np.matmul(basis, k.T, out=moments[:, lo:hi])
    rs = e * moments[0]
    rs -= moments[1]
    norm = 1.0 / (2.0 * sigma * math.sqrt(math.pi))
    scale = norm / (sigma * sigma * n * n)
    grad = (scale / root_s) * (x.T @ rs) + (scale * float(e @ rs) / s) * w
    return (float(moments[0].sum()) + n) * norm / (n * n), grad


def _gradient_scale(problem, w, sigma):
    """The gradient with every term taken in absolute value.

    Rounding in any summation order is relative to this scale, not to |g|:
    the two halves of g cancel towards a stationary point.
    """
    x = problem.x
    n = x.shape[0]
    s = float(w @ w + problem.eps0**-2)
    e = (problem.y - x @ w) / np.sqrt(s)
    d = e[:, None] - e[None, :]
    kd = np.abs(np.exp(d * d * (-0.25 / sigma**2)) * d)
    quad = float((kd * np.abs(d)).sum())
    terms = quad * np.abs(w) / s + 2.0 * (np.abs(x).T @ kd.sum(axis=1)) / np.sqrt(s)
    norm = 1.0 / (2.0 * sigma * np.sqrt(np.pi))
    return terms * (norm / (2.0 * sigma**2 * n**2))


def _several_ragged_blocks(n):
    rows = _block_rows(n)
    return n > rows and n % rows != 0


MOMENT_PASS_SPACE = dict(
    n=st.one_of(
        st.just(1),
        st.integers(2, ONE_BLOCK - 1),
        st.just(ONE_BLOCK),
        st.integers(ONE_BLOCK + 1, 3 * ONE_BLOCK).filter(_several_ragged_blocks),
    ),
    p=st.integers(1, 4),
    offset=st.sampled_from([0.0, 1e3, 1e6]),
    skewed=st.booleans(),
    log_width=st.floats(math.log10(0.02), math.log10(3.0)),
    seed=st.integers(0, 2**31 - 1),
)


def _moment_pass_case(n, p, offset, skewed, log_width, seed, tied=False):
    """A problem, w and sigma from one draw of MOMENT_PASS_SPACE.

    tied zeroes about half the rows of X and gives their responses one of
    0.0, -0.0 and +-spread, so that exact repeats and signed zeros put
    d = 0 off the diagonal.
    """
    rng = np.random.default_rng(seed)
    p = min(p, n)
    spread = 10.0 ** rng.uniform(-3, 0)
    x = rng.normal(size=(n, p))
    w = rng.normal(size=p)
    noise = rng.gamma(2.0, size=n) if skewed else rng.laplace(size=n)
    y = x @ w + spread * (noise + offset)
    if tied:
        rows = rng.random(n) < 0.5
        x[rows] = 0.0
        y[rows] = rng.choice([0.0, -0.0, spread, -spread], size=int(rows.sum()))
    problem = EivProblem(x, y)
    w = w + 0.3 * spread * rng.normal(size=p)
    sigma = 10.0**log_width * (float(np.std(total_error(problem, w))) or 1.0)
    return problem, w, sigma


@settings(max_examples=80, deadline=None)
@given(**MOMENT_PASS_SPACE)
def test_mtee_moment_pass_matches_elementwise_oracle(n, p, offset, skewed, log_width, seed):
    # errors spread over 1e-3..1 with a common offset of up to 1e6 spreads,
    # which only the centring keeps out of e*K1 - Ke; kernel width 0.02-3
    # error standard deviations, the narrow end leaving points with no
    # neighbour within many widths
    problem, w, sigma = _moment_pass_case(n, p, offset, skewed, log_width, seed)
    value, grad = itl._mtee_kernel(problem, sigma)(w)
    ref_value, ref_grad = _elementwise_value_grad(problem, w, sigma)
    assert abs(value - ref_value) <= 1e-13 * ref_value
    # the floor covers gradients whose kernel values are subnormal
    scale = _gradient_scale(problem, w, sigma).max()
    assert np.abs(grad - ref_grad).max() <= 1e-13 * scale + 1e-300


@settings(max_examples=80, deadline=None)
@given(**MOMENT_PASS_SPACE, tied=st.booleans())
def test_mtee_rank_two_differences_match_subtract_oracle_bit_for_bit(
    n, p, offset, skewed, log_width, seed, tied
):
    # [raw_i, 1] @ [-1; raw_j] rounds one sum of two exact products, as the
    # subtraction does, so K and everything after it keep every bit; the
    # kernel is called once before, as an ascent reuses it
    problem, w, sigma = _moment_pass_case(n, p, offset, skewed, log_width, seed, tied)
    kernel = itl._mtee_kernel(problem, sigma)
    kernel(2.0 * w)
    value, grad = kernel(w)
    ref_value, ref_grad = _subtract_value_grad(problem, w, sigma)
    assert value == ref_value
    assert grad.tobytes() == ref_grad.tobytes()


ORACLE_LINE = LineParameters(r=0.00269, x=0.0302, b=0.38)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mtee_stops_where_the_elementwise_oracle_stops(seed, monkeypatch):
    noise = LaplacianNoise(0.0, 0.005) if seed % 2 else GaussianNoise(0.0, 0.005)
    profile = LoadRampProfile(
        n_records=50, vk_mag=(0.95, 1.08), angle_spread=(0.3, 0.6), sag_per_rad=0.08,
        ref_angle=(0.0, 0.6),
    )
    records = generate_true_records(Scenario("oracle", ORACLE_LINE, profile, noise))
    problem = build_regression(apply_noise(records, noise, seed))
    guess = params_to_admittance(initial_guess(ORACLE_LINE, seed))
    config = EstimatorConfig("mtee", w0=guess)
    res = mtee_estimate(problem, config)

    def elementwise_kernel(problem, sigma):
        return lambda w: _elementwise_value_grad(problem, w, sigma)

    monkeypatch.setattr(itl, "_mtee_kernel", elementwise_kernel)
    ref = mtee_estimate(problem, config)
    assert res.converged and ref.converged
    assert res.iterations == ref.iterations
    assert np.allclose(res.w, ref.w, rtol=1e-12, atol=0)


def _plain_mtc_value_grad(problem, w, sigma):
    """Oracle: the pass the two-product kernel replaced, on fresh
    temporaries, with e = y - X @ w and X^T @ (c e) as separate products."""
    x = problem.x
    n = x.shape[0]
    s = float(w @ w + problem.eps0**-2)
    e = problem.y - x @ w
    c = np.exp(e * e * (-0.5 / (sigma**2 * s)))
    value = float(c.mean())
    ce = c * e
    grad = (s * (x.T @ ce) + float(ce @ e) * w) / (n * sigma**2 * s**2)
    return value, grad


def _mtc_rounding_scale(problem, w, sigma):
    """The value and gradient's first-order response to rounding in e.

    Any order of y - Xw rounds e_i by a multiple of u (|y_i| + |x_i| |w|),
    which exp magnifies by e_i^2 / (sigma^2 S); each scale adds those
    responses, with every term in absolute value, to the pass's own size.
    """
    x = problem.x
    n = x.shape[0]
    s = float(w @ w + problem.eps0**-2)
    e = problem.y - x @ w
    bound = np.abs(problem.y) + np.abs(x) @ np.abs(w)
    q = e * e / (sigma**2 * s)
    c = np.exp(-0.5 * q)
    size = np.abs(e)
    value = float((c * (1.0 + size * bound / (sigma**2 * s))).mean())
    by_x = c * (size + np.abs(1.0 - q) * bound)
    by_w = c * (e * e + np.abs(2.0 - q) * size * bound)
    grad = (s * (np.abs(x).T @ by_x) + float(by_w.sum()) * np.abs(w)) / (n * sigma**2 * s**2)
    return value, grad


@settings(max_examples=80, deadline=None)
@given(**MOMENT_PASS_SPACE, tied=st.booleans())
def test_mtc_two_product_pass_matches_plain_oracle(n, p, offset, skewed, log_width, seed, tied):
    # the same problems as mtee's: errors up to 1e6 spreads off zero and
    # kernels 0.02-3 error deviations wide, where exp turns the last bit of
    # e into up to ~1e3 ulp of c; the kernel is called once before, as an
    # ascent reuses it
    problem, w, sigma = _moment_pass_case(n, p, offset, skewed, log_width, seed, tied)
    kernel = itl._mtc_kernel(problem, sigma)
    kernel(2.0 * w)
    value, grad = kernel(w)
    ref_value, ref_grad = _plain_mtc_value_grad(problem, w, sigma)
    value_scale, grad_scale = _mtc_rounding_scale(problem, w, sigma)
    assert abs(value - ref_value) <= 1e-14 * value_scale
    assert np.abs(grad - ref_grad).max() <= 1e-14 * grad_scale.max() + 1e-300


@pytest.mark.parametrize(
    "noise, n_records, profile",
    [
        (LaplacianNoise(0.0, 0.005), 250, "wide"),
        (GaussianNoise(0.0, 0.005), 2000, "narrow"),
    ],
    ids=["criterion-3", "gaussian-2000"],
)
def test_mtc_and_cmtc_stop_where_the_plain_oracle_stops(noise, n_records, profile, monkeypatch):
    # the criterion-3 window and criterion 2's 2,000-record Gaussian one
    ramp = {
        "wide": dict(vk_mag=(0.95, 1.08), angle_spread=(0.3, 0.6), sag_per_rad=0.08,
                     ref_angle=(0.0, 0.6)),
        "narrow": dict(vk_mag=(1.00, 1.02), angle_spread=(0.04, 0.24), sag_per_rad=0.05),
    }[profile]
    scenario = Scenario("window", ORACLE_LINE, LoadRampProfile(n_records=n_records, **ramp), noise)
    configs = [EstimatorConfig("mtc"), EstimatorConfig("cmtc")]
    runs = run_scenario(scenario, configs, seed=1)

    def plain_kernel(problem, sigma):
        return lambda w: _plain_mtc_value_grad(problem, w, sigma)

    monkeypatch.setattr(itl, "_mtc_kernel", plain_kernel)
    refs = run_scenario(scenario, configs, seed=1)
    for run, ref in zip(runs, refs):
        res, want = run.result, ref.result
        assert res.converged and want.converged
        assert res.iterations == want.iterations
        assert np.allclose(res.w, want.w, rtol=1e-12, atol=0)
    # cmtc keeps y1 + y3 = 0 exactly on every iterate (criterion 7 reads 0)
    assert all(w[0] + w[2] == 0.0 for w, _ in runs[1].result.trace)


def test_mtc_objective_formula():
    rng = np.random.default_rng(2)
    problem, _ = _random_problem(rng, 10, 2)
    w = rng.normal(size=2)
    s = w @ w + 1.0
    e = problem.y - problem.x @ w
    sigma = 0.3
    expected = float(np.mean(np.exp(-(e**2) / (2.0 * sigma**2 * s))))
    assert abs(mtc_objective(problem, w, sigma) - expected) < 1e-14


def test_gradients_match_central_differences():
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(10):
        n = int(rng.integers(8, 20))
        p = int(rng.integers(2, 5))
        problem, w_true = _random_problem(rng, n, p, noise=0.02)
        w = w_true + 0.05 * rng.normal(size=p)
        sigma = float(rng.uniform(0.1, 0.6))
        for grad_fn, obj_fn in ((mtee_gradient, mtee_objective), (mtc_gradient, mtc_objective)):
            g = grad_fn(problem, w, sigma)
            fd = np.empty(p)
            for j in range(p):
                wp, wm = w.copy(), w.copy()
                wp[j] += h
                wm[j] -= h
                fd[j] = (obj_fn(problem, wp, sigma) - obj_fn(problem, wm, sigma)) / (2 * h)
            assert np.linalg.norm(fd - g) <= 1e-5 * np.linalg.norm(g)


def test_mtee_recovers_clean_solution():
    rng = np.random.default_rng(4)
    problem, w_true = _random_problem(rng, 60, 3, noise=0.0)
    res = mtee_estimate(problem, EstimatorConfig("mtee", w0=w_true + 0.05, kernel_sigma=0.1))
    assert np.abs(res.w - w_true).max() < 1e-4
    assert len(res.trace) == res.iterations + 1
    # ascent: information potential never decreases along the trace
    values = [v for _, v in res.trace]
    assert values[-1] >= values[0]


def test_mtc_converges_and_traces():
    rng = np.random.default_rng(5)
    problem, w_true = _random_problem(rng, 80, 3, noise=0.005)
    res = mtc_estimate(problem, EstimatorConfig("mtc", kernel_sigma=0.2, w0=np.zeros(3)))
    assert res.converged
    assert np.abs(res.w - w_true).max() < 0.05
    assert len(res.trace) == res.iterations + 1
    assert np.array_equal(res.trace[0][0], np.zeros(3))


def test_cmtc_requires_constraint():
    rng = np.random.default_rng(6)
    problem, _ = _random_problem(rng, 20, 2)
    # [X y] of the second has no finite TLS solution: the check comes before the start
    no_tls = EivProblem(np.array([[1.0], [0.0]]), np.array([0.0, 1e6]))
    with pytest.raises(EstimatorError):
        tls_estimate(no_tls)
    for unconstrained in (problem, no_tls):
        with pytest.raises(ValueError, match="requires a problem with an equality constraint"):
            cmtc_estimate(unconstrained, EstimatorConfig("cmtc"))


def _noisy_stock_window(seed=0):
    noise = LaplacianNoise(0.0, 0.005)
    profile = LoadRampProfile(n_records=40, vk_mag=(0.95, 1.08), angle_spread=(0.3, 0.6))
    records = generate_true_records(Scenario("window", ORACLE_LINE, profile, noise))
    return build_regression(apply_noise(records, noise, seed))


@pytest.mark.parametrize("method", ["tls", "mtee", "mtc"])
def test_unconstrained_methods_ignore_the_window_constraint(method):
    problem = _noisy_stock_window()
    assert problem.constraint is not None
    free = replace(problem, constraint=None)
    guess = params_to_admittance(initial_guess(ORACLE_LINE, 0))
    config = EstimatorConfig(method, w0=guess, max_iters=200)
    tied, untied = estimate(problem, config), estimate(free, config)
    assert tied.w.tobytes() == untied.w.tobytes()
    assert tied.trace.w.tobytes() == untied.trace.w.tobytes()
    assert tied.trace.objective.tobytes() == untied.trace.objective.tobytes()
    assert (tied.iterations, tied.converged) == (untied.iterations, untied.converged)


@pytest.mark.parametrize("method", ["mtee", "mtc", "cmtc"])
def test_ascent_without_w0_starts_from_tls(method):
    problem = _noisy_stock_window(seed=1)
    res = estimate(problem, EstimatorConfig(method, max_iters=3))
    assert res.trace[0][0].tobytes() == tls_estimate(problem).w.tobytes()


@pytest.mark.parametrize("method", ["mtee", "mtc", "cmtc"])
def test_w0_is_stored_as_given_and_converted_at_the_start(method):
    problem = _noisy_stock_window(seed=1)
    start = params_to_admittance(initial_guess(ORACLE_LINE, 0)).tolist()
    config = EstimatorConfig(method, w0=start, max_iters=2)
    assert config.w0 is start
    res = estimate(problem, config)
    assert res.trace[0][0].tolist() == start
    assert config.w0 is start  # the run converted a copy


def test_cmtc_constraint_holds_every_iterate():
    rng = np.random.default_rng(7)
    problem, w_true = _random_problem(rng, 80, 3, noise=0.005, constrained=True)
    c, f = problem.constraint
    w0 = w_true.copy()
    w0[1:] += 0.1
    res = cmtc_estimate(problem, EstimatorConfig("cmtc", kernel_sigma=0.2, w0=w0, max_iters=500))
    for w, _ in res.trace:
        assert abs((c.T @ w).item() - f.item()) < 1e-12
    assert np.abs(res.w - w_true).max() < 0.05


def test_divergence_guard():
    rng = np.random.default_rng(8)
    problem, _ = _random_problem(rng, 20, 2)
    with pytest.raises(DivergenceError):
        mtc_estimate(problem, EstimatorConfig("mtc", step=1e18, kernel_sigma=5.0))


def test_w0_shape_validation():
    rng = np.random.default_rng(9)
    problem, _ = _random_problem(rng, 20, 3)
    with pytest.raises(ValueError):
        mtee_estimate(problem, EstimatorConfig("mtee", w0=np.zeros(2)))


def test_explicit_step_is_used():
    # every trace increment equals step times the gradient at the previous iterate
    rng = np.random.default_rng(10)
    problem, w_true = _random_problem(rng, 30, 2)
    w0 = w_true + 0.1
    res = mtc_estimate(
        problem, EstimatorConfig("mtc", w0=w0, step=0.01, kernel_sigma=0.2, max_iters=3, tol=1e-20)
    )
    assert res.iterations == 3
    for (w_prev, _), (w_next, _) in zip(res.trace, res.trace[1:]):
        g = mtc_gradient(problem, w_prev, 0.2)
        assert np.allclose(w_next - w_prev, 0.01 * g, rtol=0, atol=1e-14)
