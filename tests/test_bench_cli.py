"""Benchmark grid runner outputs and the command line front end."""

import concurrent.futures
import csv
import json
import os
import platform
import warnings
import xml.etree.ElementTree as ET
from dataclasses import fields, replace

import numpy as np
import pytest

from eiv_lpe import bench
from eiv_lpe.bench import BenchConfig, RunRow, median_iqr, rows_from_csv, run_bench
from eiv_lpe import cli
from eiv_lpe.cli import main
from eiv_lpe.estimators import EstimatorConfig, Trace
from eiv_lpe.io import load_bench_config, scenario_from_dict, write_records_csv
from eiv_lpe.line_model import LineParameters, admittance_to_params, params_to_admittance
from eiv_lpe.noise import GaussianNoise, apply_noise
from eiv_lpe.scenario import LoadRampProfile, Scenario, generate_true_records

STOCK = LineParameters(r=0.00269, x=0.0302, b=0.3800)
SVG_NS = "{http://www.w3.org/2000/svg}"


def _tiny_scenario(label="s1", seed=0):
    return Scenario(
        label, STOCK,
        LoadRampProfile(n_records=12, angle_spread=(0.05, 0.3)),
        GaussianNoise(0.0, 0.002), seed=seed,
    )


def _bench_config_json(tmp_path, **overrides):
    raw = {
        "schema": 1,
        "scenarios": [
            {
                "label": "s1",
                "line": {"r": 0.00269, "x": 0.0302, "b": 0.38},
                "profile": {"n_records": 12, "angle_spread": [0.05, 0.3]},
                "noise": {"type": "gaussian", "mu": 0.0, "sigma": 0.002},
            }
        ],
        "estimators": [{"method": "tls"}, {"method": "cmtc", "max_iters": 300}],
        "seeds": [0, 1],
    }
    raw.update(overrides)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(raw))
    return path


def test_run_bench_outputs(tmp_path):
    out = tmp_path / "bench"
    config = BenchConfig(
        scenarios=[_tiny_scenario()],
        estimators=[EstimatorConfig("tls"), EstimatorConfig("cmtc", max_iters=300)],
        seeds=[0, 1],
        output_dir=out,
        jobs=1,
        plots=True,
    )
    report = run_bench(config)
    assert len(report.rows) == 4
    assert report.failures == 0
    assert {(r.scenario, r.method) for r in report.rows} == {("s1", "tls"), ("s1", "cmtc")}
    for name in ("runs.csv", "summary.csv", "table_s1.csv", "bench_manifest.json"):
        assert (out / name).exists()
    assert (out / "plots" / "s1_tls.svg").exists()
    assert (out / "plots" / "s1_cmtc.svg").exists()
    manifest = json.loads((out / "bench_manifest.json").read_text())
    assert manifest["scenarios"] == ["s1"]
    assert manifest["failures"] == 0
    # per-run rows survive the CSV round trip
    back = rows_from_csv(out / "runs.csv")
    for a, b in zip(report.rows, back):
        assert (a.scenario, a.method, a.seed) == (b.scenario, b.method, b.seed)
        assert abs(a.are_r - b.are_r) < 1e-12 * max(1.0, abs(a.are_r))
        assert a.converged == b.converged
    # grouping covers every row exactly once
    cells = report.by_cell()
    assert sum(len(v) for v in cells.values()) == 4


def test_runs_csv_round_trips_every_field(tmp_path):
    ok = RunRow("s1", "egle", 3, 0.0026901234567, 0.0302, 0.38, 1.5e-3, 2e-4, np.nan,
                17, True, 0.125, "")
    failed = RunRow("s1", "mtee", 4, error="DivergenceError: mtee diverged, ||w|| = inf")
    path = tmp_path / "runs.csv"
    bench._write_runs_csv([ok, failed], path)
    with open(path, newline="") as fh:
        assert next(csv.reader(fh)) == [f.name for f in fields(RunRow)]
    back = rows_from_csv(path)
    assert len(back) == 2
    for row, read in zip([ok, failed], back):
        for f in fields(RunRow):
            a, b = getattr(row, f.name), getattr(read, f.name)
            assert type(a) is type(b), f.name
            assert a == b or (np.isnan(a) and np.isnan(b)), f.name


def test_bench_plots_are_valid_and_reproducible(tmp_path):
    def run(out):
        run_bench(
            BenchConfig(
                scenarios=[_tiny_scenario()],
                estimators=[EstimatorConfig("tls"), EstimatorConfig("cmtc", max_iters=300)],
                seeds=[0, 1],
                output_dir=out,
                plots=True,
            )
        )
        return {p.name: p.read_bytes() for p in sorted((out / "plots").glob("*.svg"))}

    first = run(tmp_path / "a")
    assert sorted(first) == ["s1_cmtc.svg", "s1_tls.svg"]
    n_points = {}
    for name, data in first.items():
        root = ET.fromstring(data)
        assert root.tag == f"{SVG_NS}svg", name
        lines = root.findall(f".//{SVG_NS}polyline")
        assert len(lines) == 1, name
        pts = np.array(
            [[float(v) for v in pt.split(",")] for pt in lines[0].get("points").split()]
        )
        assert pts.shape[0] >= 1 and pts.shape[1] == 2, name
        assert np.all(np.isfinite(pts)), name
        assert np.all(np.diff(pts[:, 0]) > 0), name
        n_points[name] = len(pts)
        texts = [t.text for t in root.iter(f"{SVG_NS}text")]
        assert "iteration" in texts and "ARE(r)" in texts
        assert f"s1 / {name[3:-4]}" in texts
    # the TLS trace starts at w0 = 0 (ARE undefined): one finite point,
    # which a circle marks because a one-point polyline draws nothing
    assert n_points["s1_tls.svg"] == 1 and n_points["s1_cmtc.svg"] > 1
    tls_root = ET.fromstring(first["s1_tls.svg"])
    (circle,) = tls_root.findall(f".//{SVG_NS}circle")
    (tls_line,) = tls_root.findall(f".//{SVG_NS}polyline")
    assert tls_line.get("points") == f"{circle.get('cx')},{circle.get('cy')}"
    assert ET.fromstring(first["s1_cmtc.svg"]).findall(f".//{SVG_NS}circle") == []
    assert run(tmp_path / "b") == first


def _loop_trace_are_curve(trace, scenario):
    """The ARE(r) curve from one validated LineParameters per iterate, as bench built it."""
    true_r = scenario.line.r
    out = np.full(len(trace), np.nan)
    for i, (w, _) in enumerate(trace):
        try:
            out[i] = abs((admittance_to_params(w).r - true_r) / true_r)
        except ValueError:
            pass
    return out


def test_trace_are_curve_matches_the_per_iterate_loop():
    rng = np.random.default_rng(21)
    w_true = params_to_admittance(STOCK)
    w = w_true * (1.0 + 0.3 * rng.standard_normal((400, 4)))
    w[:40] *= 10.0 ** rng.uniform(-14, 150, size=(40, 1))  # tiny, huge and overflowing
    w[300:] = rng.standard_normal((100, 4))  # about half with r < 0
    w[40] = 0.0  # zero series admittance
    w[41] = [1e-13, 0.3, -1e-13, 1e-13]  # den just below 1e-24
    w[42] = [1e-12, 0.3, -1e-12, 1e-12]  # den just above it
    w[43:46, 1] = [np.nan, np.inf, -np.inf]  # b not finite
    w[46:49, 3] = [np.nan, np.inf, -np.inf]  # x and b not finite
    w[49:51, 0] = [np.nan, np.inf]  # r not finite
    w[51] = [-0.5, 0.2, 0.5, -1.0]  # r < 0
    w[52] = [0.5, 0.2, -0.5, 0.0]  # x = 0, r > 0: kept
    w[53] = [0.5, 0.2, 0.5, 1.0]  # r = 0, x != 0: kept
    w[54] = [1e300, 1e308, -1e300, 1e308]  # y2 + y4 overflows
    w[55] = [1e200, 0.3, -1e200, 0.5]  # den overflows, so r = x = 0
    w[56] = [1e-300, 0.3, -1e-300, 1e-300]  # den underflows to 0
    trace = Trace(w, np.zeros(len(w)))
    scenario = _tiny_scenario()
    with np.errstate(all="ignore"):
        expected = _loop_trace_are_curve(trace, scenario)
    got = bench._trace_are_curve(trace, scenario)
    assert np.isnan(expected[[40, 41, *range(43, 52), 54, 55, 56]]).all()
    assert np.isfinite(expected[[42, 52, 53]]).all()
    assert np.isnan(expected).sum() > 50 and np.isfinite(expected).sum() > 250
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    assert got.tobytes() == expected.tobytes()


TITLES = ["s1 / tls", "a&b / <mtc>", "&amp; &lt;", "\"quoted\" / 'single'", "Zürich – 電力 > 1"]


@pytest.mark.parametrize("title", TITLES)
def test_xml_escape_matches_saxutils(title):
    from xml.sax.saxutils import escape  # the oracle; the package does not load it

    assert bench._xml_escape(title) == escape(title)


def test_svg_title_bytes_match_the_saxutils_escape(monkeypatch):
    from xml.sax.saxutils import escape

    title = "".join(TITLES)
    args = (np.array([1, 2, 10]), np.array([0.3, 0.2, 0.1]), title)
    svg = bench._svg_log_x_plot(*args)
    monkeypatch.setattr(bench, "_xml_escape", escape)
    assert svg.encode() == bench._svg_log_x_plot(*args).encode()
    assert ET.fromstring(svg).findall(f"{SVG_NS}text")[-1].text == title


def test_unexpected_cell_error_does_not_abort_bench(tmp_path, monkeypatch):
    # an exception other than EstimatorError / ValueError fails its cell only
    real_run_scenario = bench.run_scenario

    def run_scenario(scenario, configs, seed=None):
        if configs[0].method == "cmtc":
            raise RuntimeError("worker state lost")
        return real_run_scenario(scenario, configs, seed=seed)

    monkeypatch.setattr(bench, "run_scenario", run_scenario)
    out = tmp_path / "bench"
    report = run_bench(
        BenchConfig(
            scenarios=[_tiny_scenario()],
            estimators=[EstimatorConfig("tls"), EstimatorConfig("cmtc", max_iters=300)],
            seeds=[0],
            output_dir=out,
        )
    )
    assert report.failures == 1
    rows = rows_from_csv(out / "runs.csv")
    assert [(r.method, r.error) for r in rows] == [
        ("tls", ""), ("cmtc", "RuntimeError: worker state lost")
    ]
    assert np.isfinite(rows[0].are_r)
    assert json.loads((out / "bench_manifest.json").read_text())["failures"] == 1


class _WorkerKillingProfile(LoadRampProfile):
    """A profile whose voltages end the process that asks for them."""

    def voltages(self):
        os._exit(3)


def test_killed_worker_fails_its_cells_not_the_bench(tmp_path):
    # a worker that dies outright breaks the pool; the grid still completes
    out = tmp_path / "bench"
    doomed = Scenario(
        "doomed", STOCK, _WorkerKillingProfile(n_records=12, angle_spread=(0.05, 0.3)),
        GaussianNoise(0.0, 0.002),
    )
    report = run_bench(
        BenchConfig(
            scenarios=[_tiny_scenario(), doomed],
            estimators=[EstimatorConfig("tls")],
            seeds=[0, 1],
            output_dir=out,
            jobs=2,
            plots=False,
        )
    )
    rows = rows_from_csv(out / "runs.csv")
    assert [(r.scenario, r.seed) for r in rows] == [("s1", 0), ("s1", 1), ("doomed", 0), ("doomed", 1)]
    # the killed cells, and any cell the broken pool had not run, fail
    for row in rows:
        assert row.error == "" or row.error.startswith("BrokenProcessPool: ")
    assert all(r.error for r in rows if r.scenario == "doomed")
    assert report.failures == sum(1 for r in rows if r.error) >= 2
    assert json.loads((out / "bench_manifest.json").read_text())["failures"] == report.failures


class _InlinePool:
    """A process pool stand-in that records its max_workers and runs tasks inline."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("seeds, pools", [([0, 1], [2]), ([0], [])])
def test_bench_pool_has_at_most_one_worker_per_cell(tmp_path, monkeypatch, seeds, pools):
    # a fork pool starts every worker on the first submit; a grid of one
    # cell takes the serial path
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    config = BenchConfig(
        scenarios=[_tiny_scenario()], estimators=[EstimatorConfig("tls")], seeds=seeds,
        output_dir=tmp_path / "bench", jobs=64, plots=False,
    )
    report = run_bench(config)
    assert _InlinePool.sizes == pools
    assert [(r.seed, r.error) for r in report.rows] == [(seed, "") for seed in seeds]


def test_bench_manifest_echoes_config_and_environment(tmp_path):
    cfg = _bench_config_json(tmp_path)
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--out", str(out), "--no-plots"]) == 0
    text = (out / "bench_manifest.json").read_text()
    manifest = json.loads(text)
    assert json.loads(json.dumps(manifest)) == manifest
    assert manifest["schema"] == 1
    assert manifest["seeds"] == [0, 1]
    assert manifest["scenarios"] == ["s1"]
    assert manifest["estimators"] == ["tls", "cmtc"]
    assert manifest["failures"] == 0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }
    # the echo is a bench config that loads back to the same run
    scenario = manifest["config"]["scenarios"][0]
    assert scenario["line"] == {"r": 0.00269, "x": 0.0302, "b": 0.38}
    assert scenario["profile"]["n_records"] == 12
    assert scenario["noise"] == {"type": "gaussian", "mu": 0.0, "sigma": 0.002}
    assert manifest["config"]["estimators"][1]["max_iters"] == 300
    assert manifest["config"]["estimators"][1]["kernel_sigma"] == 0.05
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(manifest["config"]))
    loaded, original = load_bench_config(echo), load_bench_config(cfg)
    for key in ("scenarios", "estimators", "seeds"):
        assert getattr(loaded, key) == getattr(original, key)


def test_bench_manifest_names_an_unknown_blas(monkeypatch):
    def show_config(mode="stdout"):
        raise TypeError("show_config() got an unexpected keyword argument 'mode'")

    monkeypatch.setattr(np, "show_config", show_config)
    assert bench._blas_library() == "unknown"


def test_bench_manifest_echo_loads_back_after_a_run_with_w0(tmp_path):
    # initial guesses are an API knob: the echo keeps every config-file knob only
    est = EstimatorConfig("mtc", w0=params_to_admittance(STOCK), max_iters=5)
    out = tmp_path / "bench"
    run_bench(BenchConfig([_tiny_scenario()], [est], [0], output_dir=out, plots=False))
    manifest = json.loads((out / "bench_manifest.json").read_text())
    assert "w0" not in manifest["config"]["estimators"][0]
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(manifest["config"]))
    assert load_bench_config(echo).estimators == [replace(est, w0=None)]


def test_summary_recomputable_from_runs(tmp_path):
    out = tmp_path / "bench"
    config = BenchConfig(
        scenarios=[_tiny_scenario()],
        estimators=[EstimatorConfig("tls")],
        seeds=[0, 1, 2],
        output_dir=out,
        plots=False,
    )
    run_bench(config)
    rows = rows_from_csv(out / "runs.csv")
    with open(out / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == 1
    rec = summary[0]
    assert rec["scenario"] == "s1" and rec["method"] == "tls"
    assert int(rec["n_seeds"]) == 3 and int(rec["n_failed"]) == 0
    med, iqr = median_iqr([r.are_r for r in rows])
    assert abs(float(rec["are_r_median"]) - med) < 1e-6 * max(1.0, med)
    assert abs(float(rec["are_r_iqr"]) - iqr) < 1e-6 * max(1.0, iqr)


def test_table_layout(tmp_path):
    out = tmp_path / "bench"
    run_bench(
        BenchConfig(
            scenarios=[_tiny_scenario()],
            estimators=[EstimatorConfig("tls"), EstimatorConfig("cmtc", max_iters=300)],
            seeds=[0],
            output_dir=out,
            plots=False,
        )
    )
    with open(out / "table_s1.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["parameter", "true", "cmtc", "tls"]
    assert [row[0] for row in table[1:]] == ["r", "x", "b", "time_s"]
    assert table[1][1] == "0.00269"
    assert table[4][1] == ""  # no true value for the timing row
    # estimates sit in a sane range on this easy cell
    assert abs(float(table[1][2]) - 0.00269) / 0.00269 < 0.5


def test_median_iqr():
    med, iqr = median_iqr([1.0, 2.0, 3.0, 4.0])
    assert med == 2.5 and iqr == 1.5
    med, iqr = median_iqr([np.nan, 2.0, 4.0])
    assert med == 3.0 and iqr == 1.0
    med, iqr = median_iqr([])
    assert np.isnan(med) and np.isnan(iqr)


def test_cli_generate_with_config(tmp_path):
    cfg = _bench_config_json(tmp_path)
    out = tmp_path / "data"
    assert main(["generate", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    assert (out / "s1_clean.csv").exists()
    assert (out / "s1_noisy.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenarios"][0]["label"] == "s1"
    assert manifest["scenarios"][0]["seed"] == 5
    assert manifest["scenarios"][0]["files"]["noisy"] == "s1_noisy.csv"


def test_cli_generate_stock_lines(tmp_path):
    out = tmp_path / "stock"
    assert main(["generate", "--out", str(out), "--seed", "0"]) == 0
    files = sorted(p.name for p in out.glob("*_clean.csv"))
    assert len(files) == 10
    assert "L_64-65_clean.csv" in files


def test_cli_generate_without_seed_is_reproducible(tmp_path):
    # the stock lines default to noise seed 0 rather than OS entropy
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["generate", "--out", str(out)]) == 0
    noisy = sorted(p.name for p in outs[0].glob("*_noisy.csv"))
    assert len(noisy) == 10
    for name in noisy:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert all(entry["seed"] == 0 for entry in manifest["scenarios"])


def _mixed_generate_config(tmp_path):
    """Scenarios that share some windows and differ from others in one input each."""
    line = {"r": 0.00269, "x": 0.0302, "b": 0.38}
    profile = {"n_records": 15, "angle_spread": [0.05, 0.3]}
    gauss = {"type": "gaussian", "mu": 0.0, "sigma": 0.002}
    gmm = {"type": "gmm", "weights": [0.7, 0.3], "means": [0.0, 0.001],
           "variances": [1e-6, 4e-6]}

    def scenario(label, seed=0, **changes):
        return {"label": label, "line": line, "profile": profile, "noise": gauss,
                "seed": seed, **changes}

    scenarios = [
        scenario("a"),
        scenario("same"),  # a repeat of a
        scenario("seed1", seed=1),  # a's clean window, its own noise draw
        scenario("profile", profile={**profile, "angle_spread": [0.05, 0.35]}),
        scenario("line", line={**line, "x": 0.031}),
        scenario("noiseless", noise=None),
        scenario("gmm", noise=gmm),
        scenario("gmm_again", noise=gmm),  # matched by value
        scenario("laplace", noise={"type": "laplacian", "mu": 0.0, "scale": 0.002}),
    ]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(
        {"schema": 1, "scenarios": scenarios, "estimators": [{"method": "tls"}]}
    ))
    return path


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(cli, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize(
    "config, seed",
    [(False, None), (False, "4"), (True, None), (True, "2")],
    ids=["stock", "stock-seed", "mixed", "mixed-seed"],
)
def test_cli_generate_matches_per_scenario_regeneration(tmp_path, config, seed):
    # the oracle builds and writes every scenario's windows on its own
    out, oracle = tmp_path / "out", tmp_path / "oracle"
    oracle.mkdir()
    argv = ["generate", "--out", str(out)]
    if config:
        argv += ["--config", str(_mixed_generate_config(tmp_path))]
    if seed is not None:
        argv += ["--seed", seed]
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    names = ["manifest.json"]
    for entry in manifest["scenarios"]:
        sc = scenario_from_dict(entry)
        assert entry["seed"] == (int(seed) if seed is not None else sc.seed)
        clean = generate_true_records(sc)
        write_records_csv(clean, oracle / entry["files"]["clean"])
        names.append(entry["files"]["clean"])
        if sc.noise is not None:
            write_records_csv(apply_noise(clean, sc.noise, entry["seed"]), oracle / entry["files"]["noisy"])
            names.append(entry["files"]["noisy"])
        else:
            assert "noisy" not in entry["files"]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    for name in names[1:]:
        assert (out / name).read_bytes() == (oracle / name).read_bytes(), name


@pytest.mark.parametrize(
    "config, seed, windows, files",
    [
        (False, None, 1, 2),
        (False, "4", 1, 2),
        # a, same, seed1, gmm, gmm_again and laplace share one clean window;
        # a and same share a noisy one, and so do gmm and gmm_again
        (True, None, 3, 9),
        # with --seed, seed1's noisy window is a's too
        (True, "2", 3, 8),
    ],
    ids=["stock", "stock-seed", "mixed", "mixed-seed"],
)
def test_cli_generate_builds_and_writes_each_window_once(
    tmp_path, monkeypatch, config, seed, windows, files
):
    built = _count_calls(monkeypatch, "generate_true_records")
    written = _count_calls(monkeypatch, "write_records_csv")
    argv = ["generate", "--out", str(tmp_path / "out")]
    if config:
        argv += ["--config", str(_mixed_generate_config(tmp_path))]
    if seed is not None:
        argv += ["--seed", seed]
    assert main(argv) == 0
    assert len(built) == windows
    assert len(written) == files
    assert len({str(path) for _, path in written}) == files


def test_cli_generate_keeps_windows_that_differ_in_seed_or_profile_apart(tmp_path):
    out = tmp_path / "out"
    assert main(["generate", "--config", str(_mixed_generate_config(tmp_path)),
                 "--out", str(out)]) == 0

    def data(name):
        return (out / f"{name}.csv").read_bytes()

    assert data("same_clean") == data("a_clean") and data("same_noisy") == data("a_noisy")
    assert data("seed1_clean") == data("a_clean")
    assert data("seed1_noisy") != data("a_noisy")
    assert data("profile_clean") != data("a_clean")
    assert data("profile_noisy") != data("a_noisy")
    assert data("line_clean") != data("a_clean")
    assert data("gmm_noisy") == data("gmm_again_noisy") != data("laplace_noisy")


@pytest.mark.parametrize("command", ["generate", "bench"])
@pytest.mark.parametrize("label", ["", ".", "..", "x/y", "../x", "a\\b"])
def test_cli_rejects_a_label_that_is_not_a_file_name(tmp_path, capsys, command, label):
    cfg = json.loads(_bench_config_json(tmp_path).read_text())
    cfg["scenarios"][0]["label"] = label
    path = tmp_path / "bad_label.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run" / "out"
    rc = main([command, "--config", str(path), "--out", str(out)]
              + (["--no-plots"] if command == "bench" else []))
    assert rc == 2
    assert "label must be a plain file name" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["generate", "bench"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("profile", {"n_records": 12, "vk_mag": [float("nan"), 1.0]}),
        ("profile", {"n_records": 12, "angle_spread": [0.05, float("nan")]}),
        ("profile", {"n_records": 12, "sag_per_rad": float("nan")}),
        ("profile", {"n_records": 12, "ref_angle": [0.0, float("inf")]}),
        ("noise", {"type": "gaussian", "mu": 0.0, "sigma": float("nan")}),
        ("noise", {"type": "gaussian", "mu": float("nan"), "sigma": 0.002}),
        ("noise", {"type": "laplacian", "mu": 0.0, "scale": float("inf")}),
        ("noise", {"type": "gmm", "weights": [float("nan"), 0.5], "means": [0.0, 0.0],
                   "variances": [1e-6, 1e-6]}),
        ("noise", {"type": "gmm", "weights": [0.5, 0.5], "means": [0.0, float("nan")],
                   "variances": [1e-6, 1e-6]}),
        ("noise", {"type": "gmm", "weights": [0.5, 0.5], "means": [0.0, 0.0],
                   "variances": [1e-6, float("nan")]}),
    ],
    ids=["vk_mag", "angle_spread", "sag_per_rad", "ref_angle", "sigma", "gaussian-mu",
         "scale", "weights", "means", "variances"],
)
def test_cli_rejects_non_finite_profile_and_noise(tmp_path, capsys, command, key, value):
    # JSON's NaN and Infinity would otherwise give non-finite records
    cfg = json.loads(_bench_config_json(tmp_path).read_text())
    cfg["scenarios"][0][key] = value
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main([command, "--config", str(path), "--out", str(out)]
              + (["--no-plots"] if command == "bench" else []))
    assert rc == 2
    assert "bad scenario spec" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "bench"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("output_dir", 5, "output_dir must be a string, got 5"),
        ("output_dir", ["a"], "output_dir must be a string, got ['a']"),
        ("scenarios", 5, "scenarios must be a list, got 5"),
        ("estimators", 5, "estimators must be a list, got 5"),
        ("line", None, "bad scenario spec: line must be an object, got None"),
        ("line", [1, 2, 3], "bad scenario spec: line must be an object, got [1, 2, 3]"),
        ("label", 7, "bad scenario spec: label must be a string, got 7"),
        ("label", None, "bad scenario spec: label must be a string, got None"),
        ("estimators", [5], "an estimator entry must be an object, got 5"),
        ("estimators", ["tls"], "an estimator entry must be an object, got 'tls'"),
        ("line", {"r": "0.01", "x": 0.03, "b": 0.38},
         "bad scenario spec: r must be a number, got '0.01'"),
        ("profile", {"n_records": 12, "vk_mag": [1.0]},
         "bad scenario spec: vk_mag needs 2 values, got (1.0,)"),
        ("profile", {"n_records": 12, "ref_angle": [0.1]},
         "bad scenario spec: ref_angle needs 2 values, got (0.1,)"),
        ("profile", {"n_records": 12, "angle_spread": [0.02, 0.12, 0.3]},
         "bad scenario spec: angle_spread needs 2 values, got (0.02, 0.12, 0.3)"),
    ],
)
def test_cli_rejects_a_config_field_of_the_wrong_json_type(
    tmp_path, capsys, monkeypatch, command, key, value, message
):
    cfg = json.loads(_bench_config_json(tmp_path).read_text())
    if key in ("line", "label", "profile"):
        cfg["scenarios"][0][key] = value
    else:
        cfg[key] = value
    (tmp_path / "bench.json").write_text(json.dumps(cfg))
    # no --out: the outputs would go under the working directory
    monkeypatch.chdir(tmp_path)
    rc = main([command, "--config", "bench.json"] + (["--no-plots"] if command == "bench" else []))
    assert rc == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]


def test_cli_estimate(tmp_path):
    cfg = _bench_config_json(tmp_path)
    data_dir = tmp_path / "data"
    main(["generate", "--config", str(cfg), "--out", str(data_dir), "--seed", "0"])
    est_cfg = tmp_path / "est.json"
    est_cfg.write_text(json.dumps({"method": "cmtc", "max_iters": 300}))
    out = tmp_path / "estimates"
    rc = main(["estimate", str(data_dir / "s1_clean.csv"), "--config", str(est_cfg), "--out", str(out)])
    assert rc == 0
    result_path = out / "s1_clean_cmtc_result.csv"
    trace_path = out / "s1_clean_cmtc_trace.csv"
    assert result_path.exists() and trace_path.exists()
    with open(result_path, newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    # clean data and a TLS warm start land on the truth
    assert abs(float(row["r_hat"]) - 0.00269) / 0.00269 < 1e-6
    assert abs(float(row["b_hat"]) - 0.38) / 0.38 < 1e-6
    with open(trace_path, newline="") as fh:
        trace_rows = list(csv.DictReader(fh))
    assert int(trace_rows[0]["iteration"]) == 0
    assert len(trace_rows) == int(row["iterations"]) + 1


def test_cli_estimate_rejects_bad_config(tmp_path):
    cfg = _bench_config_json(tmp_path)
    data_dir = tmp_path / "data"
    main(["generate", "--config", str(cfg), "--out", str(data_dir)])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sigma": 1.0}))  # no method key
    rc = main(["estimate", str(data_dir / "s1_clean.csv"), "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"method": "egle", "max_iters": 0}, "max_iters must be a positive integer, got 0"),
        ({"method": "egle", "seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"method": "egle", "seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
        ({"method": "mtc", "max_iters": True}, "max_iters must be a positive integer, got True"),
        ({"method": "egle", "seed": True}, "seed must be a non-negative integer, got True"),
        ({"method": "egle", "egle_m_max": 2.5}, "egle_m_max must be a positive integer, got 2.5"),
        ({"method": "egle", "egle_m_max": 0}, "egle_m_max must be a positive integer, got 0"),
        ({"method": "egle", "tol": -1}, "tol must be positive, got -1"),
        # egle stops on tol; its two former tolerances are no longer keys
        ({"method": "egle", "egle_outer_tol": 1e-6}, "unknown estimator keys ['egle_outer_tol']"),
        # JSON's NaN fails `<= 0` but must not pass as a knob
        ({"method": "mtc", "kernel_sigma": float("nan")}, "kernel_sigma must be positive, got nan"),
        ({"method": "mtc", "step": float("nan")}, "step must be positive, got nan"),
        # a number given as a JSON boolean or string is not one
        ({"method": "mtc", "tol": True}, "tol must be a number, got True"),
    ],
)
def test_cli_estimate_rejects_out_of_range_knobs(tmp_path, capsys, spec, message):
    data, _ = _clean_csv_and_tls_config(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "estimates"
    rc = main(["estimate", str(data), "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "bench"])
def test_cli_rejects_negative_seed_flag(tmp_path, capsys, command):
    cfg = _bench_config_json(tmp_path)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out), "--seed", "-1"]
              + (["--no-plots"] if command == "bench" else []))
    assert rc == 2
    assert "--seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "bench"])
def test_cli_rejects_negative_config_seed(tmp_path, capsys, command):
    cfg = json.loads(_bench_config_json(tmp_path).read_text())
    cfg["scenarios"][0]["seed"] = -1
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(cfg))
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")]
              + (["--no-plots"] if command == "bench" else []))
    assert rc == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "bench"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", 1.9, "seed must be an integer, got 1.9"),
        ("seed", "7", "seed must be an integer, got '7'"),
        ("seed", True, "seed must be an integer, got True"),
        ("seeds", [True], "seeds must be a non-empty list of non-negative integers, got [True]"),
    ],
)
def test_cli_rejects_non_integer_config_seed(tmp_path, capsys, command, key, value, message):
    cfg = json.loads(_bench_config_json(tmp_path).read_text())
    if key == "seeds":
        cfg["seeds"] = value
    else:
        cfg["scenarios"][0]["seed"] = value
    path = tmp_path / "bad_seed.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main([command, "--config", str(path), "--out", str(out)]
              + (["--no-plots"] if command == "bench" else []))
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "bench"])
@pytest.mark.parametrize("n_records", [True, 2.5, "5"])
def test_cli_rejects_non_integer_n_records(tmp_path, capsys, command, n_records):
    cfg = json.loads(_bench_config_json(tmp_path).read_text())
    cfg["scenarios"][0]["profile"]["n_records"] = n_records
    path = tmp_path / "bad_n_records.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main([command, "--config", str(path), "--out", str(out)]
              + (["--no-plots"] if command == "bench" else []))
    assert rc == 2
    assert f"n_records must be a positive integer, got {n_records!r}" in capsys.readouterr().err
    assert not out.exists()


def _clean_csv_and_tls_config(tmp_path):
    data_dir = tmp_path / "data"
    main(["generate", "--config", str(_bench_config_json(tmp_path)), "--out", str(data_dir)])
    est_cfg = tmp_path / "tls.json"
    est_cfg.write_text(json.dumps({"method": "tls"}))
    return data_dir / "s1_clean.csv", est_cfg


def _elapsed_free(path):
    """A file's bytes, with a CSV's elapsed columns blanked and a table's time_s row dropped."""
    lines = path.read_bytes().splitlines(keepends=True)
    if path.suffix != ".csv":
        return lines
    blank = [i for i, name in enumerate(lines[0].rstrip(b"\r\n").split(b",")) if b"elapsed" in name]
    kept = []
    for line in lines:
        body = line.rstrip(b"\r\n")
        cells = body.split(b",")
        for i in blank:
            cells[i] = b""
        if cells[0] != b"time_s":
            kept.append(b",".join(cells) + line[len(body):])
    return kept


@pytest.mark.parametrize("command", ["bench", "generate", "estimate"])
def test_cli_outputs_replace_what_a_used_directory_holds(tmp_path, command):
    # every output name of a fresh run holds, in turn, a longer stale file,
    # a symlink to a file outside and a read-only stale file; a rerun there
    # writes the fresh run's bytes, leaves no stale tail and replaces each
    # link instead of writing through it
    data, est_cfg = _clean_csv_and_tls_config(tmp_path)
    argv = {
        "bench": ["bench", "--config", str(_bench_config_json(tmp_path))],
        "generate": ["generate", "--config", str(_mixed_generate_config(tmp_path))],
        "estimate": ["estimate", str(data), "--config", str(est_cfg)],
    }[command]
    fresh, used, outside = tmp_path / "fresh", tmp_path / "used", tmp_path / "outside"
    assert main(argv + ["--out", str(fresh)]) == 0
    names = sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
    assert len(names) >= 2
    outside.mkdir()
    for i, name in enumerate(names):
        target = used / name
        target.parent.mkdir(parents=True, exist_ok=True)
        if i % 3 == 1:
            link = outside / f"{i}.txt"
            link.write_bytes(b"outside\n")
            target.symlink_to(link)
        else:
            target.write_bytes((fresh / name).read_bytes() + b"stale tail\n" * 100)
            if i % 3 == 2:
                target.chmod(0o444)
    assert main(argv + ["--out", str(used)]) == 0
    assert sorted(p.relative_to(used) for p in used.rglob("*") if p.is_file()) == names
    for name in names:
        assert not (used / name).is_symlink()
        assert _elapsed_free(used / name) == _elapsed_free(fresh / name), name
    assert all(link.read_bytes() == b"outside\n" for link in outside.iterdir())
    if command == "bench":
        # plots/ itself is, in turn, a link to a directory outside and a stale file
        outside_dir = tmp_path / "outside_dir"
        outside_dir.mkdir()
        stale = {
            "link": lambda plots: plots.symlink_to(outside_dir, target_is_directory=True),
            "file": lambda plots: plots.write_bytes(b"stale\n"),
        }
        for kind, make in stale.items():
            again = tmp_path / kind
            again.mkdir()
            make(again / "plots")
            assert main(argv + ["--out", str(again)]) == 0, kind
            assert (again / "plots").is_dir() and not (again / "plots").is_symlink()
            assert sorted(p.relative_to(again) for p in again.rglob("*") if p.is_file()) == names
            for name in names:
                assert _elapsed_free(again / name) == _elapsed_free(fresh / name), (kind, name)
        assert list(outside_dir.iterdir()) == []


def test_cli_estimate_malformed_json_is_config_error(tmp_path):
    data, _ = _clean_csv_and_tls_config(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text('{"method": "tls",')
    rc = main(["estimate", str(data), "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2


def test_cli_estimate_missing_config_is_config_error(tmp_path):
    data, _ = _clean_csv_and_tls_config(tmp_path)
    rc = main(["estimate", str(data), "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2


def test_cli_estimate_missing_data_is_config_error(tmp_path):
    _, est_cfg = _clean_csv_and_tls_config(tmp_path)
    rc = main(["estimate", str(tmp_path / "nope.csv"), "--config", str(est_cfg), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize(
    "bad_row",
    ["3,1.0,0.5", "3,1.0,0.5,0.9,x,0.1,0.2,0.3,0.4", pytest.param(None, id="header-only")],
)
def test_cli_estimate_bad_csv_row_is_config_error(tmp_path, bad_row):
    # a short row and an unparseable cell after otherwise valid records, and
    # a file that keeps its header but has no record at all
    data, est_cfg = _clean_csv_and_tls_config(tmp_path)
    if bad_row is None:
        header = data.read_text().splitlines()[0]
        data.write_text(header + "\r\n")
    else:
        with open(data, "a", newline="") as fh:
            fh.write(bad_row + "\r\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["estimate", str(data), "--config", str(est_cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("method", ["tls", "mtc", "egle"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_cli_estimate_non_finite_cell_is_config_error(tmp_path, capsys, method, cell):
    data, _ = _clean_csv_and_tls_config(tmp_path)
    with open(data, "a", newline="") as fh:
        fh.write(f"99,1.0,0.5,0.9,{cell},0.1,0.2,0.3,0.4\r\n")
    est_cfg = tmp_path / "est.json"
    est_cfg.write_text(json.dumps({"method": method}))
    out = tmp_path / "estimates"
    rc = main(["estimate", str(data), "--config", str(est_cfg), "--out", str(out)])
    assert rc == 2
    assert "non-finite cell in" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bench_and_report(tmp_path):
    cfg = _bench_config_json(tmp_path)
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--out", str(out), "--jobs", "2", "--no-plots"]) == 0
    rows = rows_from_csv(out / "runs.csv")
    assert len(rows) == 4  # 1 scenario x 2 estimators x 2 seeds
    assert all(not r.error for r in rows)
    # rebuilding the report from runs.csv reproduces the summary up to the
    # 12-digit precision of the stored per-run values
    with open(out / "summary.csv", newline="") as fh:
        before = list(csv.DictReader(fh))
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "summary.csv", newline="") as fh:
        after = list(csv.DictReader(fh))
    assert len(before) == len(after)
    for a, b in zip(before, after):
        assert a.keys() == b.keys()
        for key in a:
            try:
                va, vb = float(a[key]), float(b[key])
            except ValueError:
                assert a[key] == b[key]
                continue
            assert abs(va - vb) <= 1e-6 * max(1.0, abs(va))


def test_cli_bench_missing_config_is_config_error(tmp_path):
    rc = main(["bench", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize(
    "override, message",
    [
        (
            {"estimators": [{"method": "mtc", "max_iters": 3}, {"method": "mtc", "max_iters": 3000}]},
            "estimator methods must be unique, got ['mtc', 'mtc']",
        ),
        ({"seeds": [0, 0]}, "seeds must be unique, got [0, 0]"),
    ],
    ids=["method", "seed"],
)
def test_cli_bench_rejects_a_repeated_method_or_seed(tmp_path, capsys, override, message):
    cfg = _bench_config_json(tmp_path, **override)
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_bench_rejects_non_positive_jobs(tmp_path, capsys, jobs):
    cfg = _bench_config_json(tmp_path)
    out = tmp_path / "bench"
    rc = main(["bench", "--config", str(cfg), "--out", str(out), "--jobs", jobs, "--no-plots"])
    assert rc == 2
    assert f"--jobs must be a positive integer, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bench", "estimate"])
def test_cli_unusable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, command):
    # --out under a regular file cannot be created; that fails the command
    # before bench runs a cell or estimate runs its estimator
    data, est_cfg = _clean_csv_and_tls_config(tmp_path)
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    cells, estimates = [], []
    monkeypatch.setattr(bench, "run_scenario", lambda *a, **k: cells.append(a))
    monkeypatch.setattr(cli, "estimate", lambda *a, **k: estimates.append(a))
    if command == "bench":
        argv = ["bench", "--config", str(_bench_config_json(tmp_path)), "--no-plots"]
    else:
        argv = ["estimate", str(data), "--config", str(est_cfg)]
    assert main(argv + ["--out", str(out)]) == 3
    assert "Not a directory" in capsys.readouterr().err
    assert cells == estimates == []


def test_cli_report_without_runs_is_config_error(tmp_path):
    cfg = _bench_config_json(tmp_path)
    rc = main(["report", "--config", str(cfg), "--out", str(tmp_path / "empty")])
    assert rc == 2


def _bench_runs_csv(tmp_path):
    """A tls-only bench run: its config and runs.csv as a header and rows of cells."""
    cfg = _bench_config_json(tmp_path, estimators=[{"method": "tls"}])
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--out", str(out), "--no-plots"]) == 0
    with open(out / "runs.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return cfg, out, header, rows


def _rewrite_runs_csv(out, header, rows):
    with open(out / "runs.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def test_cli_report_ignores_extra_runs_csv_columns(tmp_path):
    # report rewrites only the summary and the tables: runs.csv keeps the
    # user's column and bench_manifest.json its bytes
    cfg, out, header, rows = _bench_runs_csv(tmp_path)
    before = (out / "summary.csv").read_bytes()
    _rewrite_runs_csv(out, header + ["note"], [row + ["x"] for row in rows])
    inputs = {name: (out / name).read_bytes() for name in ("runs.csv", "bench_manifest.json")}
    (out / "summary.csv").unlink()
    (out / "table_s1.csv").unlink()
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "summary.csv").read_bytes() == before
    assert (out / "table_s1.csv").exists()
    assert {name: (out / name).read_bytes() for name in inputs} == inputs


def test_cli_report_on_runs_csv_without_a_column_is_config_error(tmp_path, capsys):
    cfg, out, header, rows = _bench_runs_csv(tmp_path)
    keep = [i for i, name in enumerate(header) if name != "error"]
    _rewrite_runs_csv(out, [header[i] for i in keep], [[row[i] for i in keep] for row in rows])
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{out / 'runs.csv'} lacks the runs.csv column(s) ['error']" in capsys.readouterr().err


def test_cli_report_on_an_unreadable_runs_csv_cell_is_config_error(tmp_path, capsys):
    cfg, out, header, rows = _bench_runs_csv(tmp_path)
    rows[1][header.index("seed")] = "one"
    _rewrite_runs_csv(out, header, rows)
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{out / 'runs.csv'} line 3: cannot read seed 'one'" in capsys.readouterr().err


def test_cli_bench_total_failure_exit_code(tmp_path):
    cfg = _bench_config_json(
        tmp_path, estimators=[{"method": "mtee", "step": 1e18, "kernel_sigma": 5.0}], seeds=[0]
    )
    out = tmp_path / "bench"
    rc = main(["bench", "--config", str(cfg), "--out", str(out), "--no-plots"])
    assert rc == 3
    rows = rows_from_csv(out / "runs.csv")
    assert len(rows) == 1
    assert rows[0].error.startswith("DivergenceError: mtee diverged at iteration ")
