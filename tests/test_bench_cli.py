"""Benchmark grid runner outputs and the command line front end."""

import csv
import json
import os
import platform
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from eiv_lpe import bench
from eiv_lpe.bench import BenchConfig, median_iqr, rows_from_csv, run_bench
from eiv_lpe.cli import main
from eiv_lpe.estimators import EstimatorConfig
from eiv_lpe.io import load_bench_config
from eiv_lpe.line_model import LineParameters
from eiv_lpe.noise import GaussianNoise
from eiv_lpe.scenario import LoadRampProfile, Scenario

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
    assert manifest["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__
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
        assert loaded[key] == original[key]


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


def _clean_csv_and_tls_config(tmp_path):
    data_dir = tmp_path / "data"
    main(["generate", "--config", str(_bench_config_json(tmp_path)), "--out", str(data_dir)])
    est_cfg = tmp_path / "tls.json"
    est_cfg.write_text(json.dumps({"method": "tls"}))
    return data_dir / "s1_clean.csv", est_cfg


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


def test_cli_bench_and_report(tmp_path, monkeypatch):
    cfg = _bench_config_json(tmp_path)
    out = tmp_path / "bench"
    monkeypatch.setenv("EIV_LPE_JOBS", "2")
    assert main(["bench", "--config", str(cfg), "--out", str(out), "--no-plots"]) == 0
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


def test_cli_report_without_runs_is_config_error(tmp_path):
    cfg = _bench_config_json(tmp_path)
    rc = main(["report", "--config", str(cfg), "--out", str(tmp_path / "empty")])
    assert rc == 2


def test_cli_bench_total_failure_exit_code(tmp_path):
    cfg = _bench_config_json(
        tmp_path, estimators=[{"method": "mtee", "step": 1e18, "kernel_sigma": 5.0}], seeds=[0]
    )
    out = tmp_path / "bench"
    rc = main(["bench", "--config", str(cfg), "--out", str(out), "--no-plots"])
    assert rc == 3
    rows = rows_from_csv(out / "runs.csv")
    assert len(rows) == 1 and rows[0].error
