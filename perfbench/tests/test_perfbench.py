"""Tests of the benchmark itself: every workload runs at its smallest size,
reports the metrics BENCHMARK.json names, and every correctness check fails
on a deliberately wrong output.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, run, tracing, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section):
    return [m["name"] for m in SPEC[section]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_at_smallest_size(tmp_path, workload, trace):
    result = run.run(workload, seed=1, seconds=0.0, trace=bool(trace), size="small", out=tmp_path)
    assert result["attempted"] > 0 and result["failed"] == 0
    # the release bands hold for the study sizes, not for the smallest ones
    failing = [c["name"] for c in result["checks"] if not c["ok"]]
    assert all(name.startswith("bands") for name in failing), result["checks"]
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == _names(section)
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert np.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        for name in OWN_LAYER_METRICS[workload]:
            assert result["metrics"][name]["value"] > 0, name


# Per-layer metrics that each workload's traced run must see move.
OWN_LAYER_METRICS = {
    "gauss-long": (
        "noise.em_fit_s", "noise.em_fit_calls", "noise.em_iterations",
        "estimators.egle.newton_calls", "estimators.mtc.iterations",
        "line_model.build_regression_calls", "bench.write_report_ms", "trace.overhead_s",
    ),
    "laplace-all": (
        "noise.em_fit_calls", "noise.em_iterations", "estimators.mtee.solve_s",
        "estimators.mtee.iterations", "estimators.egle.outer_iters",
        "bench.write_report_ms", "trace.overhead_s",
    ),
    "csv-tls": (
        "io.write_records_csv_ms", "io.read_records_csv_ms", "io.load_bench_config_ms",
        "io.csv_bytes", "cli.generate_s", "cli.estimate_ms", "noise.apply_noise_ms",
        "line_model.rows_built", "trace.overhead_s",
    ),
}


def test_trace_fails_on_a_missing_target():
    from eiv_lpe.estimators import egle

    tracer = tracing.Tracer()
    original = egle.em_fit
    target = (egle, "em_fit", lambda *a, **k: "noise.em_fit", None)
    with pytest.raises(AttributeError):
        with tracer.installed([target, (egle, "no_such_function", target[2], None)]):
            pass
    assert egle.em_fit is original


def test_trace_coverage_fails_when_a_layer_is_not_seen(tmp_path, monkeypatch):
    """A wrapped function the program stops calling fails the traced run."""
    targets = tracing.targets
    monkeypatch.setattr(
        tracing, "targets", lambda: [t for t in targets() if t[1] != "em_fit"]
    )
    result = run.run("gauss-long", seed=1, seconds=0.0, trace=True, size="small", out=tmp_path)
    coverage = next(c for c in result["checks"] if c["name"] == "trace_coverage")
    assert not coverage["ok"] and "noise.em_fit" in coverage["detail"]
    assert not result["correct"]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.SPECS)


def _small_round(name, tmp_path):
    inputs = workloads.build(name, seed=1, size="small", workdir=tmp_path / name)
    return inputs, workloads.run_round(inputs, jobs=1)


def _verdicts(inputs, outputs):
    found, _ = workloads.evaluate(inputs, outputs)
    return {c.name: c.ok for c in found}


def test_bench_checks_fail_on_wrong_estimates(tmp_path):
    inputs, done = _small_round("laplace-all", tmp_path)
    rows, traces = done.outputs
    assert _verdicts(inputs, (rows, traces))["tls_oracle"]
    assert _verdicts(inputs, (rows, traces))["constraint"]

    def perturbed(method, change):
        copy = {k: list(v) for k, v in traces.items()}
        key = next(k for k in copy if k[1] == method)
        w, obj = copy[key][-1]
        copy[key][-1] = (change(w.copy()), obj)
        return rows, copy

    def scale(w):
        w *= 1.0 + 1e-8
        return w

    def unbalance(w):
        w[0] += 1e-8
        return w

    assert not _verdicts(inputs, perturbed("tls", scale))["tls_oracle"]
    assert not _verdicts(inputs, perturbed("cmtc", unbalance))["constraint"]
    assert not _verdicts(inputs, perturbed("egle", unbalance))["constraint"]


def test_band_check_passes_inside_and_fails_outside():
    inside = {"egle": [(0.9, 0.4, 0.09)] * 3, "mtc": [(1.9, 1.4, 0.4)] * 3}
    assert checks.check_bands(inside, checks.GAUSS_BANDS, "bands").ok
    for i in range(3):
        row = [0.9, 0.4, 0.09]
        row[i] *= 1.5
        outside = dict(inside, egle=[tuple(row)] * 3)
        assert not checks.check_bands(outside, checks.GAUSS_BANDS, "bands").ok
    assert not checks.check_bands({}, checks.GAUSS_BANDS, "bands").ok


def _rewrite_csv_cell(path, row, column, change):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = change(cells[column])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_csv_checks_fail_on_wrong_files(tmp_path):
    inputs, done = _small_round("csv-tls", tmp_path)
    files = done.outputs
    assert all(_verdicts(inputs, files).values())
    estimates = inputs.workdir / "estimates"
    label = inputs.labels[0]

    noisy = inputs.workdir / "data" / f"{label}_noisy.csv"
    saved = noisy.read_text()
    # one unit in the last place of one value
    _rewrite_csv_cell(noisy, 3, 2, lambda v: repr(float(np.nextafter(float(v), np.inf))))
    assert not _verdicts(inputs, files)["csv_bits"]
    noisy.write_text(saved)

    result = estimates / f"{label}_noisy_tls_result.csv"
    _rewrite_csv_cell(result, 1, 4, lambda v: repr(float(v) * (1.0 + 1e-8)))
    assert not _verdicts(inputs, files)["tls_oracle"]

    clean = estimates / f"{label}_clean_tls_result.csv"
    _rewrite_csv_cell(clean, 1, 5, lambda v: repr(float(v) * (1.0 + 1e-7)))
    assert not _verdicts(inputs, files)["clean_recovery"]


def test_csv_checks_fail_when_files_are_missing(tmp_path):
    inputs, done = _small_round("csv-tls", tmp_path)
    shutil.rmtree(inputs.workdir / "estimates")
    (inputs.workdir / "data" / f"{inputs.labels[0]}_noisy.csv").unlink()
    verdicts = _verdicts(inputs, done.outputs)
    assert not any(verdicts.values())


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "csv-tls", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
