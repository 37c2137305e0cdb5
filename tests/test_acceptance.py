"""Release gates: accuracy, convergence, constraint and complexity criteria.

Each test covers one numbered release criterion on the stock L_64-65 line
(true r = 0.00269, x = 0.0302, b = 0.38 p.u.) and prints a single
`criterion N: PASS/FAIL` line; conftest echoes the lines after the run.

The three noise studies (Gaussian, Laplacian, two-component mixture) share
module-scoped fixtures so the 10-seed grids run once.  Two excitation
profiles are used: a narrow ramp close to normal operation for the large
Gaussian study, and a wide ramp (larger magnitude/angle range plus a
reference-angle drift) that keeps the short windows of the entropy and
mixture studies well excited.
"""

import math
import time
import warnings

import numpy as np
import pytest

from eiv_lpe.estimators import EstimatorConfig, estimate, tls_estimate
from eiv_lpe.estimators.egle import solve_params
from eiv_lpe.estimators.itl import (
    mtc_gradient,
    mtc_objective,
    mtee_estimate,
    mtee_gradient,
    mtee_objective,
    total_error,
)
from eiv_lpe.line_model import (
    EivProblem,
    LineParameters,
    admittance_to_params,
    build_regression,
    params_to_admittance,
)
from eiv_lpe.noise import GaussianNoise, GmmModel, GmmNoise, LaplacianNoise, apply_noise
from eiv_lpe.scenario import (
    LoadRampProfile,
    Scenario,
    are,
    generate_true_records,
    initial_guess,
    run_scenario,
)

TRUTH = LineParameters(r=0.00269, x=0.0302, b=0.3800)
SEEDS = range(10)

# narrow ramp: long window near nominal operation
NARROW = dict(vk_mag=(1.00, 1.02), angle_spread=(0.04, 0.24), sag_per_rad=0.05)
# wide ramp: short windows need more excitation for the weak r direction
WIDE = dict(
    vk_mag=(0.95, 1.08), angle_spread=(0.3, 0.6), sag_per_rad=0.08, ref_angle=(0.0, 0.6)
)

GMM_NOISE = GmmNoise(
    GmmModel(np.array([0.3, 0.7]), np.array([0.0, 0.01]), np.array([0.002**2, 0.002**2]))
)


def _check(log, name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} — {detail}"
    log.append(line)
    print(line)
    assert ok, line


def _run_study(scenario, configs, seeds=SEEDS, trace_marks=()):
    """Run a seed sweep and keep only scalar outcomes per run.

    trace_marks lists iteration indices at which the r-parameter ARE of
    the trace iterate is recorded (key `are_r_at[idx]`).
    """
    rows: dict[str, list[dict]] = {}
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for seed in seeds:
            for out in run_scenario(scenario, configs, seed=seed):
                assert out.error is None, f"{out.config.method} failed: {out.error}"
                res = out.result
                row = {
                    "are_r": out.report.r,
                    "are_x": out.report.x,
                    "are_b": out.report.b,
                    "iters": res.iterations,
                    "converged": res.converged,
                    "elapsed": res.elapsed,
                }
                if out.config.method in ("cmtc", "egle"):
                    row["cons"] = max(abs(w[0] + w[2]) for w, _ in res.trace)
                if res.egle_meta is not None:
                    row["m_star"] = res.egle_meta.m_star
                if trace_marks:
                    row["are_r_at"] = {}
                    for idx in trace_marks:
                        w_at = res.trace[min(idx, len(res.trace) - 1)][0]
                        row["are_r_at"][idx] = are(admittance_to_params(w_at), scenario.line).r
                rows.setdefault(out.config.method, []).append(row)
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


def _median(rows, field):
    return float(np.median([r[field] for r in rows]))


def _med_pct(rows):
    return tuple(100.0 * _median(rows, f) for f in ("are_r", "are_x", "are_b"))


@pytest.fixture(scope="module")
def gaussian_study():
    scenario = Scenario(
        "gauss", TRUTH, LoadRampProfile(n_records=2000, **NARROW), GaussianNoise(0.0, 0.005)
    )
    configs = [
        EstimatorConfig("tls"),
        EstimatorConfig("mtc"),
        EstimatorConfig("cmtc"),
        EstimatorConfig("egle"),
    ]
    return _run_study(scenario, configs)


@pytest.fixture(scope="module")
def gaussian_mtee_study():
    # mtee is O(n^2) per iteration, so it runs on a 100-record (400-row) window
    scenario = Scenario(
        "gauss_mtee", TRUTH, LoadRampProfile(n_records=100, **WIDE), GaussianNoise(0.0, 0.005)
    )
    return _run_study(scenario, [EstimatorConfig("mtee")])


@pytest.fixture(scope="module")
def laplacian_study():
    scenario = Scenario(
        "laplace", TRUTH, LoadRampProfile(n_records=250, **WIDE), LaplacianNoise(0.0, 0.005)
    )
    configs = [
        EstimatorConfig("tls"),
        EstimatorConfig("mtee"),
        EstimatorConfig("mtc"),
        EstimatorConfig("cmtc"),
        EstimatorConfig("egle"),
    ]
    return _run_study(scenario, configs)


@pytest.fixture(scope="module")
def gmm_study():
    scenario = Scenario(
        "gmm", TRUTH, LoadRampProfile(n_records=400, **WIDE), GMM_NOISE
    )
    return _run_study(scenario, [EstimatorConfig("mtee"), EstimatorConfig("egle")])


@pytest.fixture(scope="module")
def gmm_trace_study():
    # fixed modest step and a dead tolerance expose the slow correntropy
    # convergence between iterations 1e3 and 1e4
    scenario = Scenario(
        "gmm_trace", TRUTH, LoadRampProfile(n_records=400, **WIDE), GMM_NOISE
    )
    configs = [
        EstimatorConfig("mtc", step=0.1, max_iters=10_000, tol=1e-16),
        EstimatorConfig("cmtc", step=0.1, max_iters=10_000, tol=1e-16),
    ]
    return _run_study(scenario, configs, trace_marks=(1_000, 10_000))


def _random_physical_line(rng):
    r = 10.0 ** rng.uniform(-3.3, -2.3)
    return LineParameters(r, r * rng.uniform(3.0, 15.0), rng.uniform(0.05, 0.6))


def test_criterion_1_noiseless_identity(criterion_log):
    t0 = time.perf_counter()
    profile = LoadRampProfile(n_records=25, **WIDE)
    configs = [
        EstimatorConfig("tls"),
        EstimatorConfig("mtee"),
        EstimatorConfig("mtc"),
        EstimatorConfig("cmtc"),
        EstimatorConfig("egle", egle_m_max=1),
    ]
    rng = np.random.default_rng(20260823)
    worst: dict[str, float] = {}
    for i in range(100):
        scenario = Scenario(f"line{i}", _random_physical_line(rng), profile, None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for out in run_scenario(scenario, configs, seed=i):
                assert out.error is None, f"{out.config.method} failed on line {i}: {out.error}"
                rel = max(out.report.r, out.report.x, out.report.b)
                worst[out.config.method] = max(worst.get(out.config.method, 0.0), rel)
    elapsed = time.perf_counter() - t0
    ok = worst["tls"] <= 1e-10 and all(
        worst[m] <= 1e-6 for m in ("mtee", "mtc", "cmtc", "egle")
    ) and elapsed < 60.0
    detail = (
        "worst rel err over 100 random lines: "
        + ", ".join(f"{m} {v:.1e}" for m, v in worst.items())
        + f"; {elapsed:.0f}s (< 60s)"
    )
    _check(criterion_log, "criterion 1 (noiseless identity)", ok, detail)


def test_criterion_2_gaussian_study(criterion_log, gaussian_study, gaussian_mtee_study):
    meds = {m: _med_pct(rows) for m, rows in gaussian_study["rows"].items()}
    meds["mtee"] = _med_pct(gaussian_mtee_study["rows"]["mtee"])
    in_band = {
        m: meds[m][0] <= 2.0 and meds[m][1] <= 1.5 and meds[m][2] <= 0.5
        for m in ("tls", "mtc", "cmtc", "mtee")
    }
    in_band["egle"] = (
        meds["egle"][0] <= 1.0 and meds["egle"][1] <= 0.5 and meds["egle"][2] <= 0.1
    )
    runtime_ok = gaussian_study["elapsed"] < 600.0
    ok = all(in_band.values()) and runtime_ok
    detail = (
        "median ARE% (r/x/b): "
        + ", ".join(f"{m} {v[0]:.2f}/{v[1]:.2f}/{v[2]:.3f}" for m, v in meds.items())
        + f"; non-mtee study {gaussian_study['elapsed']:.0f}s (< 600s)"
    )
    _check(criterion_log, "criterion 2 (Gaussian noise, sigma 0.005)", ok, detail)


def test_criterion_3_laplacian_study(criterion_log, laplacian_study):
    meds = {m: _med_pct(rows) for m, rows in laplacian_study["rows"].items()}
    robust = ("mtee", "mtc", "cmtc", "egle")
    ok = all(
        meds[m][0] <= 2.0 and meds[m][1] <= 1.5 and meds[m][2] <= 0.5 for m in robust
    )
    detail = "median ARE% (r/x/b): " + ", ".join(
        f"{m} {v[0]:.2f}/{v[1]:.2f}/{v[2]:.3f}" for m, v in meds.items()
    )
    _check(criterion_log, "criterion 3 (Laplacian noise, scale 0.005)", ok, detail)


def test_criterion_4_gmm_accuracy(criterion_log, gmm_study):
    meds = {m: _med_pct(rows) for m, rows in gmm_study["rows"].items()}
    m2 = sum(1 for r in gmm_study["rows"]["egle"] if r["m_star"] == 2)
    ok = (
        meds["mtee"][0] <= 2.0
        and meds["mtee"][1] <= 2.0
        and meds["egle"][0] <= 2.0
        and meds["egle"][1] <= 2.0
        and m2 >= 8
    )
    detail = (
        f"median ARE% r/x: mtee {meds['mtee'][0]:.2f}/{meds['mtee'][1]:.2f}, "
        f"egle {meds['egle'][0]:.2f}/{meds['egle'][1]:.2f}; m*=2 on {m2}/10 seeds; "
        f"b reported unconstrained: mtee {meds['mtee'][2]:.2f}%, egle {meds['egle'][2]:.2f}%"
    )
    _check(criterion_log, "criterion 4 (two-component mixture noise)", ok, detail)


def test_criterion_5_convergence_ordering(criterion_log, gmm_study, gmm_trace_study):
    egle_rows = gmm_study["rows"]["egle"]
    egle_ok = all(r["converged"] and r["iters"] <= 50 for r in egle_rows)
    mtee_iters = [r["iters"] for r in gmm_study["rows"]["mtee"]]
    mtee_ok = min(mtee_iters) >= 100 and max(mtee_iters) <= 5_000
    improves = {}
    for method in ("mtc", "cmtc"):
        rows = gmm_trace_study["rows"][method]
        at_1k = float(np.median([r["are_r_at"][1_000] for r in rows]))
        at_10k = float(np.median([r["are_r_at"][10_000] for r in rows]))
        improves[method] = (at_1k, at_10k, at_10k < at_1k)
    ok = egle_ok and mtee_ok and all(v[2] for v in improves.values())
    detail = (
        f"egle outer iters {min(r['iters'] for r in egle_rows)}-"
        f"{max(r['iters'] for r in egle_rows)} (<= 50, all converged); "
        f"mtee iters {min(mtee_iters)}-{max(mtee_iters)} (in [100, 5000]); "
        + "; ".join(
            f"{m} median ARE(r) {100 * a:.2f}% @1e3 -> {100 * b:.2f}% @1e4"
            for m, (a, b, _) in improves.items()
        )
    )
    _check(criterion_log, "criterion 5 (convergence ordering)", ok, detail)


def test_criterion_6_gradient_suite(criterion_log):
    rng = np.random.default_rng(6)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 21))
        p = int(rng.integers(1, 5))
        w_true = rng.normal(0, 1, p)
        x = rng.normal(size=(n, max(n, p)))[:, :p]
        y = x @ w_true + 0.02 * rng.normal(size=n)
        problem = EivProblem(x + 0.02 * rng.normal(size=(n, p)), y)
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
            worst = max(worst, float(np.linalg.norm(fd - g) / np.linalg.norm(g)))
    ok = worst <= 1e-5
    _check(
        criterion_log,
        "criterion 6 (analytic gradients vs central differences)",
        ok,
        f"worst relative gradient error {worst:.2e} over 100 instances (<= 1e-5)",
    )


def test_criterion_7_constraint_suite(
    criterion_log, gaussian_study, laplacian_study, gmm_study, gmm_trace_study
):
    worst = 0.0
    count = 0
    for study in (gaussian_study, laplacian_study, gmm_study, gmm_trace_study):
        for method in ("cmtc", "egle"):
            for row in study["rows"].get(method, []):
                worst = max(worst, row["cons"])
                count += 1
    ok = count > 0 and worst <= 1e-10
    _check(
        criterion_log,
        "criterion 7 (y1 + y3 = 0 on every constrained iterate)",
        ok,
        f"max |y1 + y3| = {worst:.2e} over {count} constrained runs (<= 1e-10)",
    )


def test_criterion_8_oracle_equivalences(criterion_log):
    rng = np.random.default_rng(8)
    # (a) TLS against the smallest eigenvector of the stacked normal matrix
    worst_tls = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 60))
        p = int(rng.integers(1, 5))
        w_true = rng.normal(0, 2, p)
        x = rng.normal(size=(n, p))
        y = x @ w_true + 0.03 * rng.normal(size=n)
        problem = EivProblem(x + 0.03 * rng.normal(size=(n, p)), y)
        w_tls = tls_estimate(problem).w
        m = np.column_stack([problem.x, problem.y])
        v = np.linalg.eigh(m.T @ m)[1][:, 0]
        w_oracle = -v[:p] / v[p]
        worst_tls = max(
            worst_tls, float(np.abs(w_tls - w_oracle).max() / max(1.0, np.abs(w_oracle).max()))
        )
    # (b) the mixture solver with one pinned zero-mean Gaussian component
    # solves the same stationarity system as TLS
    worst_egle = 0.0
    for i in range(20):
        n, p = 150, int(rng.integers(2, 5))
        w_true = rng.normal(0, 2, p)
        x = rng.normal(size=(n, p))
        y = x @ w_true + 0.05 * rng.normal(size=n)
        problem = EivProblem(x + 0.05 * rng.normal(size=(n, p)), y)
        w_tls = tls_estimate(problem).w
        pinned = GmmModel(np.array([1.0]), np.array([0.0]), np.array([0.05**2]))
        labels = np.zeros(n, dtype=int)
        w_egle = solve_params(problem, pinned, pinned, labels, w_tls * 1.05).w
        worst_egle = max(
            worst_egle, float(np.linalg.norm(w_egle - w_tls) / np.linalg.norm(w_tls))
        )
    # (c) blocked entropy objective against the naive double sum
    worst_obj = 0.0
    for n in (20, 64, 90, 150):
        p = 3
        w_true = rng.normal(0, 1, p)
        x = rng.normal(size=(n, p))
        y = x @ w_true + 0.05 * rng.normal(size=n)
        problem = EivProblem(x + 0.05 * rng.normal(size=(n, p)), y)
        w = w_true + 0.1 * rng.normal(size=p)
        sigma = 0.4
        e = total_error(problem, w)
        brute = 0.0
        for i in range(n):
            brute += float(np.exp(-((e[i] - e) ** 2) / (4.0 * sigma**2)).sum())
        brute /= 2.0 * sigma * np.sqrt(np.pi) * n**2
        worst_obj = max(worst_obj, abs(mtee_objective(problem, w, sigma) - brute))
    ok = worst_tls <= 1e-10 and worst_egle <= 1e-3 and worst_obj <= 1e-14
    detail = (
        f"tls vs eigenvector {worst_tls:.1e} (<= 1e-10); "
        f"pinned single-Gaussian solve vs tls {worst_egle:.1e} (<= 1e-3); "
        f"entropy objective vs double sum {worst_obj:.1e} (<= 1e-14)"
    )
    _check(criterion_log, "criterion 8 (oracle equivalences)", ok, detail)


def _mtee_problem(n_records, seed=0):
    scenario = Scenario(
        "timing", TRUTH, LoadRampProfile(n_records=n_records, **WIDE), GaussianNoise(0.0, 0.005)
    )
    records = apply_noise(generate_true_records(scenario), scenario.noise, seed)
    return build_regression(records)


def test_criterion_9_complexity_proxy(criterion_log):
    guess = params_to_admittance(initial_guess(TRUTH, 0))
    # (a) per-iteration scaling between 200 and 400 regression rows: the
    # best of 5 fixed 200-iteration runs per size after one untimed run of
    # each, the sizes alternating so that a busy spell hits both, each run
    # timed in this thread's CPU time so that time spent descheduled does
    # not count
    problems = {4 * n: _mtee_problem(n) for n in (50, 100)}
    config = EstimatorConfig("mtee", w0=guess.copy(), max_iters=200, tol=1e-300)
    per_iter = dict.fromkeys(problems, math.inf)
    for problem in problems.values():
        mtee_estimate(problem, config)
    for _ in range(5):
        for rows, problem in problems.items():
            t0 = time.thread_time()
            res = mtee_estimate(problem, config)
            per_iter[rows] = min(per_iter[rows], (time.thread_time() - t0) / res.iterations)
    ratio = per_iter[400] / per_iter[200]
    # (b) total-time gap against the O(n) correntropy ascent at 2000 rows
    problem = _mtee_problem(500)
    res_mtee = mtee_estimate(problem, EstimatorConfig("mtee", w0=guess.copy()))
    res_mtc = estimate(problem, EstimatorConfig("mtc", w0=guess.copy()))
    total_ratio = res_mtee.elapsed / res_mtc.elapsed
    ok = 3.0 <= ratio <= 5.0 and total_ratio >= 10.0
    detail = (
        f"per-iteration time ratio n=400/n=200: {ratio:.2f} (in [3, 5]); "
        f"mtee/mtc total time at n=2000: {total_ratio:.0f}x "
        f"({res_mtee.elapsed:.1f}s/{res_mtee.iterations} it vs "
        f"{res_mtc.elapsed:.3f}s/{res_mtc.iterations} it, >= 10x)"
    )
    _check(criterion_log, "criterion 9 (quadratic-cost complexity proxy)", ok, detail)
