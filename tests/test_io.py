"""Serialization round trips and config file validation."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from eiv_lpe.estimators import METHODS, EstimatorConfig
from eiv_lpe.io import (
    PMU_CSV_HEADER,
    ConfigError,
    estimator_from_dict,
    estimator_to_dict,
    load_bench_config,
    noise_from_dict,
    noise_to_dict,
    read_records_csv,
    scenario_from_dict,
    scenario_to_dict,
    write_records_csv,
)
from eiv_lpe.line_model import PMU_DTYPE, LineParameters
from eiv_lpe.noise import GaussianNoise, GmmModel, GmmNoise, LaplacianNoise
from eiv_lpe.scenario import LoadRampProfile, Scenario, stock_lines


def _random_records(n=25, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(scale=1e3, size=(n, 8)) * 10.0 ** rng.integers(-12, 3, size=(n, 8))
    records = np.recarray(n, dtype=PMU_DTYPE)
    records.t = np.arange(n)
    for j, name in enumerate(("vk", "vl", "ik", "il")):
        records[name].real = vals[:, 2 * j]
        records[name].imag = vals[:, 2 * j + 1]
    return records


def test_records_csv_round_trip_exact(tmp_path):
    records = _random_records()
    path = tmp_path / "recs.csv"
    write_records_csv(records, path)
    back = read_records_csv(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        # 17 significant digits make the float round trip bit exact
        assert a == b
    header = path.read_text().splitlines()[0]
    assert header.split(",") == PMU_CSV_HEADER


def test_read_records_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,vk_re\n0,1\n")
    with pytest.raises(ConfigError):
        read_records_csv(path)


def test_read_records_rejects_short_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(",".join(PMU_CSV_HEADER) + "\n0,1,2,3\n")
    with pytest.raises(ConfigError):
        read_records_csv(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_read_records_rejects_non_finite_cells(tmp_path, value):
    records = _random_records()
    records["ik"].imag[4] = value
    path = tmp_path / "non_finite.csv"
    write_records_csv(records, path)
    with pytest.raises(ConfigError, match="non-finite cell in .*, record 5"):
        read_records_csv(path)


def test_noise_dict_round_trips():
    models = [
        None,
        GaussianNoise(0.001, 0.005),
        LaplacianNoise(-0.002, 0.01),
        GmmNoise(GmmModel(np.array([0.3, 0.7]), np.array([0.0, 0.01]), np.array([4e-6, 4e-6]))),
    ]
    for model in models:
        back = noise_from_dict(noise_to_dict(model))
        if model is None:
            assert back is None
        elif isinstance(model, GmmNoise):
            assert np.array_equal(back.model.weights, model.model.weights)
            assert np.array_equal(back.model.means, model.model.means)
            assert np.array_equal(back.model.variances, model.model.variances)
        else:
            assert back == model
    # round trip survives JSON text
    d = json.loads(json.dumps(noise_to_dict(models[1])))
    assert noise_from_dict(d) == models[1]


def test_noise_from_dict_errors():
    with pytest.raises(ConfigError):
        noise_from_dict({"type": "cauchy"})
    with pytest.raises(ConfigError):
        noise_from_dict({"type": "gaussian", "mu": 0.0})  # missing sigma
    with pytest.raises(ConfigError):
        noise_from_dict({"type": "gaussian", "mu": 0.0, "sigma": -1.0})
    # a number must be a JSON number: float() would read "0.005" and false
    gmm = {"type": "gmm", "weights": [0.5, 0.5], "means": [0.0, 0.01], "variances": [1e-6, 1e-6]}
    for bad, message in (
        ({"type": "gaussian", "mu": False, "sigma": 0.005}, "mu must be a number, got False"),
        ({"type": "gaussian", "mu": 0.0, "sigma": "0.005"}, "sigma must be a number, got '0.005'"),
        ({"type": "laplacian", "mu": 0.0, "scale": True}, "scale must be a number, got True"),
        ({**gmm, "weights": [True, 0.0]}, "each weights value must be a number, got True"),
        ({**gmm, "means": [0.0, "0.01"]}, "each means value must be a number, got '0.01'"),
        ({**gmm, "variances": [1e-6, None]}, "each variances value must be a number, got None"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            noise_from_dict(bad)
    # ints and numpy reals are numbers
    loaded = noise_from_dict({"type": "gaussian", "mu": 0, "sigma": np.float64(0.5)})
    assert loaded == GaussianNoise(0.0, 0.5)


def test_scenario_dict_round_trip():
    sc = Scenario(
        "L_64-65",
        LineParameters(0.00269, 0.0302, 0.38),
        LoadRampProfile(n_records=120, vk_mag=(0.96, 1.04), angle_spread=(0.05, 0.3),
                        sag_per_rad=0.06, ref_angle=(0.0, 0.1)),
        LaplacianNoise(0.0, 0.005),
        seed=7,
    )
    back = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(sc))))
    assert back.label == sc.label
    assert back.line == sc.line
    assert back.profile == sc.profile
    assert back.noise == sc.noise
    assert back.seed == 7


def _hand_written_scenario_to_dict(s):
    """scenario_to_dict as it was written out field by field, kept as the oracle."""
    return {
        "label": s.label,
        "line": {"r": s.line.r, "x": s.line.x, "b": s.line.b},
        "profile": {
            "n_records": s.profile.n_records,
            "vk_mag": list(s.profile.vk_mag),
            "angle_spread": list(s.profile.angle_spread),
            "sag_per_rad": s.profile.sag_per_rad,
            "ref_angle": list(s.profile.ref_angle),
        },
        "noise": noise_to_dict(s.noise),
        "seed": s.seed,
    }


def test_scenario_to_dict_matches_the_hand_written_oracle():
    gmm = GmmNoise(GmmModel(np.array([0.7, 0.3]), np.array([0.0, 0.001]), np.array([1e-6, 4e-6])))
    scenarios = [
        Scenario(label, line, LoadRampProfile(), GaussianNoise(0.0, 0.005))
        for label, line in stock_lines().items()
    ] + [
        Scenario("neg_zero", LineParameters(0.01, 0.1, -0.0),
                 LoadRampProfile(n_records=7, ref_angle=(-0.0, 0.1)), gmm, seed=3),
        Scenario("clean", LineParameters(0.01, 0.1, 0.2), LoadRampProfile(n_records=9), None),
    ]
    for sc in scenarios:
        assert json.dumps(scenario_to_dict(sc)) == json.dumps(_hand_written_scenario_to_dict(sc))


def test_scenario_from_dict_errors():
    with pytest.raises(ConfigError):
        scenario_from_dict({"label": "a"})  # no line
    with pytest.raises(ConfigError):
        scenario_from_dict({"label": "a", "line": {"r": -1.0, "x": 0.1, "b": 0.2}})
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        scenario_from_dict({"label": "a", "line": {"r": 0.01, "x": 0.1, "b": 0.2}, "seed": -1})
    for seed in (1.9, "7", True, None):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            scenario_from_dict({"label": "a", "line": {"r": 0.01, "x": 0.1, "b": 0.2}, "seed": seed})
    # a label names output files, so it must not be a path or a special name
    for label in ("", ".", "..", "x/y", "../x", "a\\b", "a\0b"):
        with pytest.raises(ConfigError, match="label must be a plain file name"):
            scenario_from_dict({"label": label, "line": {"r": 0.01, "x": 0.1, "b": 0.2}})
    # nor anything but a string: 7 would name table_7.csv, null a scenario None
    for label in (7, None):
        with pytest.raises(ConfigError, match=f"label must be a string, got {label}"):
            scenario_from_dict({"label": label, "line": {"r": 0.01, "x": 0.1, "b": 0.2}})
    # line and profile numbers must be JSON numbers, not strings or booleans
    line = {"r": 0.01, "x": 0.1, "b": 0.2}
    for line_d, profile, message in (
        ({"r": "0.01", "x": 0.1, "b": 0.2}, {}, "r must be a number, got '0.01'"),
        ({"r": 0.01, "x": True, "b": 0.2}, {}, "x must be a number, got True"),
        (line, {"vk_mag": [True, 1.02]}, "each vk_mag value must be a number, got True"),
        (line, {"angle_spread": [0.1, "0.2"]},
         "each angle_spread value must be a number, got '0.2'"),
        (line, {"sag_per_rad": "0.05"}, "sag_per_rad must be a number, got '0.05'"),
        (line, {"sag_per_rad": False}, "sag_per_rad must be a number, got False"),
        (line, {"ref_angle": [0.0, None]}, "each ref_angle value must be a number, got None"),
        # each range is a (first, last) pair
        (line, {"vk_mag": [1.0]}, "vk_mag needs 2 values, got (1.0,)"),
        (line, {"ref_angle": [0.1]}, "ref_angle needs 2 values, got (0.1,)"),
        (line, {"angle_spread": [0.02, 0.12, 0.3]},
         "angle_spread needs 2 values, got (0.02, 0.12, 0.3)"),
    ):
        with pytest.raises(ConfigError, match=re.escape(f"bad scenario spec: {message}")):
            scenario_from_dict({"label": "a", "line": line_d, "profile": profile})


def test_estimator_from_dict():
    cfg = estimator_from_dict({"method": "mtc", "kernel_sigma": 0.1, "max_iters": 10})
    assert cfg.method == "mtc"
    assert cfg.kernel_sigma == 0.1
    assert cfg.max_iters == 10
    with pytest.raises(ConfigError):
        estimator_from_dict({"method": "tls", "w0": [1, 2, 3, 4]})  # not configurable
    with pytest.raises(ConfigError):
        estimator_from_dict({"method": "typo"})
    with pytest.raises(ConfigError):
        estimator_from_dict({"method": "mtc", "step": -1.0})
    # an egle cell with no iteration, and EM restart seeds numpy rejects
    for bad in ({"method": "egle", "max_iters": 0}, {"method": "mtc", "max_iters": -3},
                {"method": "mtc", "max_iters": 2.5}, {"method": "egle", "seed": -1},
                {"method": "egle", "seed": 1.5}):
        with pytest.raises(ConfigError, match="max_iters must be a positive|seed must be a non-negative"):
            estimator_from_dict(bad)
    # bool is an int subclass, and egle's knobs are checked like the others
    for bad, message in (
        ({"method": "mtc", "max_iters": True}, "max_iters must be a positive integer"),
        ({"method": "egle", "seed": True}, "seed must be a non-negative integer"),
        ({"method": "egle", "egle_m_max": 2.5}, "egle_m_max must be a positive integer"),
        ({"method": "egle", "egle_m_max": False}, "egle_m_max must be a positive integer"),
        ({"method": "egle", "tol": -1e-9}, "tol must be positive"),
        ({"method": "egle", "tol": float("nan")}, "tol must be positive"),
        ({"method": "egle", "egle_outer_tol": 1e-6}, r"unknown estimator keys \['egle_outer_tol'\]"),
        ({"method": "mtc", "kernel_sigma": float("nan")}, "kernel_sigma must be positive"),
        ({"method": "mtc", "step": float("nan")}, "step must be positive"),
        ({"method": "mtc", "tol": True}, "tol must be a number, got True"),
        ({"method": "egle", "tol": "1e-6"}, "tol must be a number, got '1e-6'"),
        ({"method": "mtc", "kernel_sigma": False}, "kernel_sigma must be a number, got False"),
        ({"method": "mtee", "step": "0.5"}, "step must be a number, got '0.5'"),
    ):
        with pytest.raises(ConfigError, match=message):
            estimator_from_dict(bad)
    # the same checks from the API, where they are ValueErrors
    for name in ("tol", "kernel_sigma", "step"):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got True$"):
            EstimatorConfig("mtc", **{name: True})
    assert EstimatorConfig("mtc", tol=1, step=np.float32(0.5)).tol == 1


def test_estimator_dict_round_trip_keeps_each_method_default():
    for method in METHODS:
        config = EstimatorConfig(method)
        assert estimator_from_dict(estimator_to_dict(config)) == config
    # tol defaults per method, and the echo writes the value the run used
    assert estimator_to_dict(EstimatorConfig("egle"))["tol"] == 1e-6
    assert estimator_to_dict(EstimatorConfig("mtc"))["tol"] == 1e-10


def _valid_config(tmp_path, **overrides):
    raw = {
        "schema": 1,
        "scenarios": [
            {
                "label": "s1",
                "line": {"r": 0.00269, "x": 0.0302, "b": 0.38},
                "profile": {"n_records": 20},
                "noise": {"type": "gaussian", "mu": 0.0, "sigma": 0.005},
            }
        ],
        "estimators": [{"method": "tls"}],
    }
    raw.update(overrides)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(raw))
    return path


def test_load_bench_config_valid(tmp_path):
    cfg = load_bench_config(_valid_config(tmp_path, seeds=[0, 1, 2], output_dir="out"))
    assert [s.label for s in cfg.scenarios] == ["s1"]
    assert cfg.estimators[0].method == "tls"
    assert cfg.seeds == [0, 1, 2]
    assert cfg.output_dir == Path("out")


def test_load_bench_config_defaults_seeds(tmp_path):
    cfg = load_bench_config(_valid_config(tmp_path))
    assert cfg.seeds == [0]
    assert cfg.output_dir == Path("bench_out")


def test_load_bench_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_bench_config(tmp_path / "missing.json")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ConfigError):
        load_bench_config(bad_json)
    with pytest.raises(ConfigError):
        load_bench_config(_valid_config(tmp_path, schema=99))
    with pytest.raises(ConfigError):
        load_bench_config(_valid_config(tmp_path, scenarios=[]))
    with pytest.raises(ConfigError):
        load_bench_config(_valid_config(tmp_path, estimators=[]))
    with pytest.raises(ConfigError):
        load_bench_config(_valid_config(tmp_path, seeds=[]))
    for bad in ([0, -2], ["a"], [1.5], 3, [True], [0, False]):
        with pytest.raises(ConfigError, match="seeds must be a non-empty list"):
            load_bench_config(_valid_config(tmp_path, seeds=bad))
    # a field of the wrong JSON type is a config error, not a TypeError
    for key, bad, message in (
        ("output_dir", 5, "output_dir must be a string, got 5"),
        ("output_dir", ["a"], r"output_dir must be a string, got \['a'\]"),
        ("scenarios", 5, "scenarios must be a list, got 5"),
        ("estimators", 5, "estimators must be a list, got 5"),
        ("scenarios", [5], "bad scenario spec: "),
        ("estimators", [5], "an estimator entry must be an object, got 5"),
        ("estimators", ["tls"], "an estimator entry must be an object, got 'tls'"),
    ):
        with pytest.raises(ConfigError, match=message):
            load_bench_config(_valid_config(tmp_path, **{key: bad}))
    for line in (None, [1, 2, 3]):
        scenario = json.loads(_valid_config(tmp_path).read_text())["scenarios"][0]
        with pytest.raises(ConfigError, match="bad scenario spec: line must be an object"):
            load_bench_config(_valid_config(tmp_path, scenarios=[{**scenario, "line": line}]))
    dup = json.loads(_valid_config(tmp_path).read_text())
    dup["scenarios"].append(dict(dup["scenarios"][0]))
    dup_path = tmp_path / "dup.json"
    dup_path.write_text(json.dumps(dup))
    with pytest.raises(ConfigError):
        load_bench_config(dup_path)


def test_load_bench_config_rejects_a_repeated_method_or_seed(tmp_path):
    # the report keys each cell by (scenario label, method, seed), so a
    # repeated method or seed would merge different cells into one
    mtc_twice = [{"method": "mtc", "max_iters": 3}, {"method": "mtc", "max_iters": 3000}]
    message = r"^estimator methods must be unique, got \['mtc', 'mtc'\]$"
    with pytest.raises(ConfigError, match=message):
        load_bench_config(_valid_config(tmp_path, estimators=mtc_twice))
    with pytest.raises(ConfigError, match=r"^seeds must be unique, got \[0, 1, 0\]$"):
        load_bench_config(_valid_config(tmp_path, seeds=[0, 1, 0]))
    distinct = [{"method": "mtc"}, {"method": "tls"}]
    cfg = load_bench_config(_valid_config(tmp_path, estimators=distinct))
    assert [e.method for e in cfg.estimators] == ["mtc", "tls"]
