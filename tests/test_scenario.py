"""Load-ramp profiles, ARE reporting and the seeded scenario runner."""

import warnings

import numpy as np
import pytest

from eiv_lpe.estimators import EstimatorConfig
from eiv_lpe.line_model import build_regression, params_to_admittance
from eiv_lpe.noise import GaussianNoise
from eiv_lpe.scenario import (
    ConditioningWarning,
    LineParameters,
    LoadRampProfile,
    Scenario,
    are,
    generate_true_records,
    initial_guess,
    run_scenario,
    stock_lines,
)

STOCK = LineParameters(r=0.00269, x=0.0302, b=0.3800)


def test_profile_validation():
    with pytest.raises(ValueError):
        LoadRampProfile(n_records=0)
    with pytest.raises(ValueError):
        LoadRampProfile(angle_spread=(0.1, 0.7))  # beyond 0.6 rad
    with pytest.raises(ValueError):
        LoadRampProfile(vk_mag=(1.0, 1.2))  # magnitude above 1.1
    with pytest.raises(ValueError):
        LoadRampProfile(vk_mag=(1.0, 1.0), angle_spread=(0.5, 0.5), sag_per_rad=0.25)
    # NaN and infinite inputs would otherwise only surface as non-finite records
    for bad in (
        {"vk_mag": (np.nan, 1.0)},
        {"angle_spread": (0.05, np.nan)},
        {"sag_per_rad": np.nan},
        {"ref_angle": (0.0, np.inf)},
        {"ref_angle": (np.nan, 0.0)},
    ):
        with pytest.raises(ValueError):
            LoadRampProfile(**bad)


def test_profile_n_records_must_be_a_positive_integer():
    # a bool, a float or a string is not a record count, as for seeds
    for bad in (True, False, 2.5, 3.0, "5", 0, -1):
        with pytest.raises(ValueError, match="n_records must be a positive integer"):
            LoadRampProfile(n_records=bad)
    assert len(LoadRampProfile(n_records=np.int64(3)).voltages()[0]) == 3


def test_scenario_validation():
    # a label names output files, and the seed seeds numpy's generator
    profile = LoadRampProfile(n_records=12)
    for label in ("", ".", "..", "a/b", "../x", "a\\b", "a\0b"):
        with pytest.raises(ValueError, match="label must be a plain file name"):
            Scenario(label, STOCK, profile, None)
    for label in (7, None):
        with pytest.raises(ValueError, match=f"label must be a string, got {label}"):
            Scenario(label, STOCK, profile, None)
    for seed in (1.5, "7", True, None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            Scenario("a", STOCK, profile, None, seed=seed)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        Scenario("a", STOCK, profile, None, seed=-1)
    assert Scenario("L_64-65.v2", STOCK, profile, None, seed=np.int64(3)).seed == 3


def test_profile_voltages_endpoints():
    prof = LoadRampProfile(
        n_records=11, vk_mag=(0.95, 1.05), angle_spread=(0.1, 0.3), sag_per_rad=0.05,
        ref_angle=(0.0, 0.2),
    )
    vk, vl = prof.voltages()
    assert vk.shape == vl.shape == (11,)
    assert abs(abs(vk[0]) - 0.95) < 1e-12
    assert abs(abs(vk[-1]) - 1.05) < 1e-12
    # k-to-l angle difference ramps from spread[0] to spread[1]
    assert abs((np.angle(vk[0]) - np.angle(vl[0])) - 0.1) < 1e-12
    assert abs((np.angle(vk[-1]) - np.angle(vl[-1])) - 0.3) < 1e-12
    # the absolute reference drifts without touching the difference
    assert abs(np.angle(vk[-1]) - 0.2) < 1e-12
    # receiving end sags with the transfer angle
    assert abs(abs(vl[-1]) - 1.05 * (1 - 0.05 * 0.3)) < 1e-12


def test_generate_true_records_deterministic_and_well_conditioned():
    sc = Scenario("a", STOCK, LoadRampProfile(n_records=50), None)
    r1 = generate_true_records(sc)
    r2 = generate_true_records(sc)
    assert np.array_equal(r1, r2)
    cond = np.linalg.cond(build_regression(r1).x)
    assert cond < 1e6


def test_generate_warns_on_degenerate_ramp():
    # zero transfer angle and zero sag make vl == vk, duplicating rows
    flat = LoadRampProfile(n_records=5, vk_mag=(1.0, 1.0), angle_spread=(0.0, 0.0), sag_per_rad=0.0)
    with pytest.warns(ConditioningWarning):
        generate_true_records(Scenario("flat", STOCK, flat, None))


def test_are_hand_values():
    rep = are(LineParameters(0.0022, 0.033, 0.40), LineParameters(0.002, 0.03, 0.5))
    assert abs(rep.r - 0.1) < 1e-12
    assert abs(rep.x - 0.1) < 1e-12
    assert abs(rep.b - 0.2) < 1e-12
    with pytest.raises(ValueError):
        are(LineParameters(0.002, 0.03, 0.5), LineParameters(0.0, 0.03, 0.5))


def test_initial_guess_spread_and_determinism():
    seen = []
    for seed in range(30):
        g = initial_guess(STOCK, seed)
        for name in ("r", "x", "b"):
            ratio = getattr(g, name) / getattr(STOCK, name)
            assert 0.8 <= ratio <= 1.2
            seen.append(ratio)
    assert initial_guess(STOCK, 3).r == initial_guess(STOCK, 3).r
    assert initial_guess(STOCK, 3).r != initial_guess(STOCK, 4).r
    # the window is actually used, not just its center
    assert max(seen) > 1.1 and min(seen) < 0.9


def test_run_scenario_reproducible_and_constrained_methods():
    sc = Scenario(
        "g", STOCK, LoadRampProfile(n_records=40, angle_spread=(0.05, 0.3)),
        GaussianNoise(0.0, 0.002),
    )
    configs = [EstimatorConfig("tls"), EstimatorConfig("cmtc"), EstimatorConfig("egle", egle_m_max=1)]
    out1 = run_scenario(sc, configs, seed=1)
    out2 = run_scenario(sc, configs, seed=1)
    for a, b in zip(out1, out2):
        assert a.error is None and b.error is None
        assert np.array_equal(a.result.w, b.result.w)
        assert a.report.r == b.report.r
    # constrained methods keep y1 + y3 = 0; the unconstrained one drifts
    for run in out1:
        gap = abs(run.result.w[0] + run.result.w[2])
        if run.config.method in ("cmtc", "egle"):
            assert gap < 1e-10
        else:
            assert gap > 0
    # iterative starts come from the seeded perturbed truth
    guess = params_to_admittance(initial_guess(STOCK, 1))
    assert np.allclose(out1[1].config.w0, guess, atol=1e-12)


def test_run_scenario_gives_every_config_without_a_w0_the_guess():
    sc = Scenario(
        "s", STOCK, LoadRampProfile(n_records=30, angle_spread=(0.05, 0.3)),
        GaussianNoise(0.0, 0.002),
    )
    own = params_to_admittance(STOCK)
    configs = [
        EstimatorConfig("tls"),
        EstimatorConfig("mtc", max_iters=5),
        EstimatorConfig("mtc", w0=own, max_iters=5),
    ]
    outs = run_scenario(sc, configs, seed=2)
    guess = params_to_admittance(initial_guess(STOCK, 2))
    assert all(out.error is None for out in outs)
    assert np.array_equal(outs[0].config.w0, guess)
    assert np.array_equal(outs[1].config.w0, guess)
    assert outs[2].config is configs[2]
    assert all(config.w0 is None for config in configs[:2])
    # tls takes no start and ignores the guess: its trace still starts at zeros
    assert np.array_equal(outs[0].result.trace[0][0], np.zeros(4))
    assert np.array_equal(outs[1].result.trace[0][0], guess)
    assert np.array_equal(outs[2].result.trace[0][0], own)


def test_run_scenario_captures_estimator_failures():
    sc = Scenario("f", STOCK, LoadRampProfile(n_records=30), GaussianNoise(0.0, 0.002))
    configs = [EstimatorConfig("mtee", step=1e18, kernel_sigma=5.0), EstimatorConfig("tls")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outs = run_scenario(sc, configs, seed=0)
    assert outs[0].error.startswith("DivergenceError: ") and outs[0].result is None
    # the failure does not poison the remaining entries
    assert outs[1].error is None and outs[1].report.x < 0.01


def test_noiseless_run_recovers_truth():
    sc = Scenario("clean", STOCK, LoadRampProfile(n_records=30, angle_spread=(0.05, 0.3)), None)
    out = run_scenario(sc, [EstimatorConfig("tls")])[0]
    assert out.report.r < 1e-10
    assert out.report.x < 1e-10
    assert out.report.b < 1e-10


def test_run_scenario_scores_a_line_with_a_zero_coefficient():
    # b = -Im(1 / (r + jx)) makes y2 = -(b + Im y_kl) exactly zero; the
    # scores compare (r, x, b), so a zero coefficient is no obstacle
    line = LineParameters(0.00269, 0.0302, -(1 / complex(0.00269, 0.0302)).imag)
    assert params_to_admittance(line)[1] == 0.0
    sc = Scenario("y2", line, LoadRampProfile(n_records=30, angle_spread=(0.05, 0.3)), None)
    out = run_scenario(sc, [EstimatorConfig("tls")])[0]
    assert out.error is None
    assert max(out.report.r, out.report.x, out.report.b) < 1e-8


def test_stock_lines():
    lines = stock_lines()
    assert len(lines) == 10
    assert "L_64-65" in lines
    assert all(p == STOCK for p in lines.values())
