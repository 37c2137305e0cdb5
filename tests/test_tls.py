"""Total least squares baseline: exactness, oracle equivalence, failure mode."""

import numpy as np
import pytest

from eiv_lpe.estimators import EstimatorConfig, EstimatorError, estimate
from eiv_lpe.estimators.tls import tls_objective
from eiv_lpe.line_model import EivProblem, LineParameters, build_regression, params_to_admittance
from eiv_lpe.scenario import LoadRampProfile, Scenario, generate_true_records


def test_tls_trivial_consistent_system():
    problem = EivProblem(np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
    res = estimate(problem, EstimatorConfig("tls"))
    assert np.allclose(res.w, [2.0], rtol=0, atol=1e-12)
    assert res.converged
    assert res.iterations == 1
    assert len(res.trace) == 2


def test_tls_objective_formula():
    rng = np.random.default_rng(0)
    problem = EivProblem(rng.normal(size=(8, 3)), rng.normal(size=8), eps0=0.5)
    w = rng.normal(size=3)
    r = problem.y - problem.x @ w
    expected = float(r @ r) / (float(w @ w) + 0.5**-2)
    assert abs(tls_objective(problem, w) - expected) < 1e-12


def test_tls_matches_normal_matrix_eigenvector():
    # independent construction: smallest eigenvector of [X y]^T [X y]
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(10, 40))
        p = int(rng.integers(1, 5))
        w_true = rng.normal(0, 2, p)
        x = rng.normal(size=(n, p)) + 0.02 * rng.normal(size=(n, p))
        y = x @ w_true + 0.02 * rng.normal(size=n)
        problem = EivProblem(x, y)
        res = estimate(problem, EstimatorConfig("tls"))
        m = np.column_stack([x, y])
        _, vecs = np.linalg.eigh(m.T @ m)
        v = vecs[:, 0]
        w_oracle = -v[:p] / v[p]
        assert np.abs(res.w - w_oracle).max() < 1e-10 * max(1.0, np.abs(w_oracle).max())


def test_tls_minimizes_objective():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 2))
    y = x @ np.array([1.0, -2.0]) + 0.05 * rng.normal(size=30)
    problem = EivProblem(x, y)
    res = estimate(problem, EstimatorConfig("tls"))
    best = tls_objective(problem, res.w)
    for _ in range(25):
        probe = res.w + rng.normal(0, 0.1, 2)
        assert tls_objective(problem, probe) >= best - 1e-12


def test_tls_no_solution_direction():
    # y dominates an orthogonal direction: the smallest right singular
    # vector has a zero last component and no finite w exists
    problem = EivProblem(np.array([[1.0], [0.0]]), np.array([0.0, 1e6]))
    with pytest.raises(EstimatorError):
        estimate(problem, EstimatorConfig("tls"))


@pytest.mark.parametrize("w0", [[5.0], [1.0, 2.0], [np.nan]], ids=["valid", "wrong-shape", "nan"])
def test_tls_takes_no_start(w0):
    # tls ignores w0: neither read nor checked, its trace starts at zeros
    problem = EivProblem(np.array([[1.0], [2.0], [3.5]]), np.array([2.0, 4.1, 6.9]))
    plain = estimate(problem, EstimatorConfig("tls"))
    res = estimate(problem, EstimatorConfig("tls", w0=np.array(w0)))
    assert np.array_equal(res.w, plain.w)
    assert np.array_equal(res.trace.w, plain.trace.w)
    assert np.array_equal(res.trace.objective, plain.trace.objective)
    assert (res.iterations, res.converged) == (plain.iterations, plain.converged)
    assert np.array_equal(res.trace[0][0], [0.0])
    assert np.array_equal(res.trace[-1][0], res.w)


def test_tls_square_consistent_system():
    # n = p rows: the null direction of [X y] is the (p+1)-th right singular
    # vector, which only the full SVD returns
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 4))
    w_true = np.array([1.0, 2.0, 3.0, 4.0])
    res = estimate(EivProblem(x, x @ w_true), EstimatorConfig("tls"))
    assert np.allclose(res.w, w_true, rtol=1e-10, atol=0)


def test_tls_one_record_window_is_exact():
    # one noiseless record is a square 4 x 4 regression (cond(X) ~ 100)
    line = LineParameters(r=0.00269, x=0.0302, b=0.38)
    records = generate_true_records(Scenario("one", line, LoadRampProfile(n_records=1), None))
    problem = build_regression(records)
    assert problem.x.shape == (4, 4)
    w_true = params_to_admittance(line)
    res = estimate(problem, EstimatorConfig("tls"))
    assert np.allclose(res.w, w_true, rtol=1e-9, atol=0)
