"""Benchmark orchestration: run grids, aggregate tables, convergence plots.

A bench run evaluates every (scenario, estimator, seed) cell, optionally on
a process pool, and writes:

  runs.csv        one row per cell (estimates, ARE, iterations, timing)
  summary.csv     per scenario/estimator medians and IQRs across seeds
  table_<label>.csv   a true-vs-estimated parameter table per scenario
  plots/<label>_<method>.svg   median ARE(r) against iteration, log x

Aggregates are pure functions of the per-run rows, so `report` can rebuild
them from runs.csv alone.  Plots are plain SVG written without a plotting
library, byte-identical for a given seed; plot failures never fail a bench
run.
"""

from __future__ import annotations

import csv
import json
import platform
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape as xml_escape

import numpy as np

from .estimators import EstimatorConfig, Trace
from .io import SCHEMA_VERSION, estimator_to_dict, scenario_to_dict
from .line_model import admittance_to_params, params_to_admittance
from .scenario import Scenario, run_scenario

__all__ = [
    "BenchConfig",
    "BenchReport",
    "RunRow",
    "run_bench",
    "write_report",
    "rows_from_csv",
    "median_iqr",
]

RUNS_HEADER = [
    "scenario", "method", "seed", "r_hat", "x_hat", "b_hat",
    "are_r", "are_x", "are_b", "iterations", "converged", "elapsed", "error",
]


@dataclass
class BenchConfig:
    scenarios: list[Scenario]
    estimators: list[EstimatorConfig]
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: Path = Path("bench_out")
    jobs: int = 1
    plots: bool = True


@dataclass
class RunRow:
    """Flat record of one (scenario, estimator, seed) cell."""

    scenario: str
    method: str
    seed: int
    r_hat: float = np.nan
    x_hat: float = np.nan
    b_hat: float = np.nan
    are_r: float = np.nan
    are_x: float = np.nan
    are_b: float = np.nan
    iterations: int = 0
    converged: bool = False
    elapsed: float = 0.0
    error: str = ""


@dataclass
class BenchReport:
    rows: list[RunRow]
    failures: int

    def by_cell(self) -> dict[tuple[str, str], list[RunRow]]:
        cells: dict[tuple[str, str], list[RunRow]] = {}
        for row in self.rows:
            cells.setdefault((row.scenario, row.method), []).append(row)
        return cells


def _run_cell(args) -> tuple[RunRow, Trace | None]:
    scenario, config, seed = args
    row = RunRow(scenario.label, config.method, seed)
    try:
        outcome = run_scenario(scenario, [config], seed=seed)[0]
    except Exception as exc:  # one bad cell must not abort the grid
        row.error = f"{type(exc).__name__}: {exc}"
        return row, None
    if outcome.error is not None:
        row.error = outcome.error
        return row, None
    res, rep, params = outcome.result, outcome.report, outcome.params
    row.r_hat, row.x_hat, row.b_hat = params.r, params.x, params.b
    row.are_r, row.are_x, row.are_b = rep.r, rep.x, rep.b
    row.iterations = res.iterations
    row.converged = res.converged
    row.elapsed = res.elapsed
    return row, res.trace


def _pool_result(cell, future: Future) -> tuple[RunRow, Trace | None]:
    """The cell's outcome, or a failed row if the pool could not deliver one.

    A worker killed outright breaks the pool: its cell and every cell not
    yet run then fail with BrokenProcessPool instead of aborting the grid.
    """
    try:
        return future.result()
    except Exception as exc:
        scenario, est, seed = cell
        return RunRow(scenario.label, est.method, seed, error=f"{type(exc).__name__}: {exc}"), None


def run_bench(config: BenchConfig) -> BenchReport:
    """Evaluate the full grid; deterministic ordering regardless of jobs."""
    cells = [
        (scenario, est, seed)
        for scenario in config.scenarios
        for est in config.estimators
        for seed in config.seeds
    ]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(_run_cell, cell) for cell in cells]
            results = [_pool_result(cell, fut) for cell, fut in zip(cells, futures)]
    else:
        results = [_run_cell(c) for c in cells]
    rows = [r for r, _ in results]
    traces = {
        (row.scenario, row.method, row.seed): tr
        for (row, tr) in results
        if tr is not None
    }
    report = BenchReport(rows, failures=sum(1 for r in rows if r.error))
    write_report(report, config, traces)
    return report


def median_iqr(values: list[float]) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if v.size == 0:
        return np.nan, np.nan
    q1, q3 = np.percentile(v, [25, 75])
    return float(np.median(v)), float(q3 - q1)


def _write_runs_csv(rows: list[RunRow], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNS_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.scenario, r.method, r.seed,
                    f"{r.r_hat:.12g}", f"{r.x_hat:.12g}", f"{r.b_hat:.12g}",
                    f"{r.are_r:.12g}", f"{r.are_x:.12g}", f"{r.are_b:.12g}",
                    r.iterations, int(r.converged), f"{r.elapsed:.6g}", r.error,
                ]
            )


def rows_from_csv(path: str | Path) -> list[RunRow]:
    """Load per-run rows back, for report regeneration."""
    rows: list[RunRow] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(
                RunRow(
                    rec["scenario"], rec["method"], int(rec["seed"]),
                    float(rec["r_hat"]), float(rec["x_hat"]), float(rec["b_hat"]),
                    float(rec["are_r"]), float(rec["are_x"]), float(rec["are_b"]),
                    int(rec["iterations"]), bool(int(rec["converged"])),
                    float(rec["elapsed"]), rec["error"],
                )
            )
    return rows


def _write_summary(report: BenchReport, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scenario", "method", "n_seeds", "n_failed",
             "are_r_median", "are_r_iqr", "are_x_median", "are_x_iqr",
             "are_b_median", "are_b_iqr", "elapsed_median"]
        )
        for (scen, method), rows in sorted(report.by_cell().items()):
            ok = [r for r in rows if not r.error]
            mr, ir = median_iqr([r.are_r for r in ok])
            mx, ix = median_iqr([r.are_x for r in ok])
            mb, ib = median_iqr([r.are_b for r in ok])
            mt, _ = median_iqr([r.elapsed for r in ok])
            writer.writerow(
                [scen, method, len(rows), len(rows) - len(ok),
                 f"{mr:.6g}", f"{ir:.6g}", f"{mx:.6g}", f"{ix:.6g}",
                 f"{mb:.6g}", f"{ib:.6g}", f"{mt:.6g}"]
            )


def _write_tables(report: BenchReport, scenarios: list[Scenario], out: Path) -> None:
    """Per-scenario true-vs-estimated table (medians across seeds)."""
    by_label = {s.label: s for s in scenarios}
    cells = report.by_cell()
    for label, scenario in by_label.items():
        methods = sorted({m for (s, m) in cells if s == label})
        if not methods:
            continue
        with open(out / f"table_{label}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["parameter", "true"] + methods)
            med = {
                m: [
                    float(np.median([r.r_hat for r in cells[(label, m)] if not r.error] or [np.nan])),
                    float(np.median([r.x_hat for r in cells[(label, m)] if not r.error] or [np.nan])),
                    float(np.median([r.b_hat for r in cells[(label, m)] if not r.error] or [np.nan])),
                    float(np.median([r.elapsed for r in cells[(label, m)] if not r.error] or [np.nan])),
                ]
                for m in methods
            }
            line = scenario.line
            truths = [("r", f"{line.r:.6g}"), ("x", f"{line.x:.6g}"),
                      ("b", f"{line.b:.6g}"), ("time_s", "")]
            for i, (name, true_s) in enumerate(truths):
                writer.writerow([name, true_s] + [f"{med[m][i]:.6g}" for m in methods])


def _trace_are_curve(trace: Trace, scenario: Scenario) -> np.ndarray:
    true_r = scenario.line.r
    out = np.full(len(trace), np.nan)
    for i, (w, _) in enumerate(trace):
        try:
            out[i] = abs((admittance_to_params(w).r - true_r) / true_r)
        except ValueError:
            pass
    return out


_SVG_W, _SVG_H = 500, 320
_SVG_LEFT, _SVG_RIGHT, _SVG_TOP, _SVG_BOTTOM = 70, 480, 35, 270


def _svg_log_x_plot(iterations: np.ndarray, values: np.ndarray, title: str) -> str:
    """A single line of `values` against log10(`iterations`) as plain SVG.

    Coordinates are rounded to 0.01 px and points that round onto the same x
    keep the last value, so x strictly increases and the bytes depend only
    on the data.  A zero-width data range (one point, a flat line) is drawn
    at the left or bottom edge instead of dividing by zero, and a curve of
    one point also gets a circle marker.
    """
    lx = np.log10(iterations)
    x_lo, x_hi = float(lx.min()), float(lx.max())
    y_lo, y_hi = float(values.min()), float(values.max())
    x_scale = (_SVG_RIGHT - _SVG_LEFT) / ((x_hi - x_lo) or 1.0)
    y_scale = (_SVG_BOTTOM - _SVG_TOP) / ((y_hi - y_lo) or 1.0)

    def px(v: float) -> str:
        return f"{_SVG_LEFT + (v - x_lo) * x_scale:.2f}"

    points: dict[str, str] = {}
    for xv, yv in zip(lx, values):
        points[px(xv)] = f"{_SVG_BOTTOM - (yv - y_lo) * y_scale:.2f}"
    marker = ""
    if len(points) == 1:  # a one-point polyline draws nothing
        ((cx, cy),) = points.items()
        marker = f'<circle cx="{cx}" cy="{cy}" r="3" fill="#1f77b4"/>\n'
    ticks = "".join(
        f'<line x1="{px(d)}" y1="{_SVG_BOTTOM}" x2="{px(d)}" y2="{_SVG_BOTTOM + 5}"/>'
        f'<text x="{px(d)}" y="{_SVG_BOTTOM + 18}" text-anchor="middle">{10 ** d:g}</text>'
        for d in range(int(np.ceil(x_lo)), int(np.floor(x_hi)) + 1)
    )
    mid_x, mid_y = (_SVG_LEFT + _SVG_RIGHT) // 2, (_SVG_TOP + _SVG_BOTTOM) // 2
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif" font-size="12">\n'
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>\n'
        f'<g stroke="black" fill="none"><rect x="{_SVG_LEFT}" y="{_SVG_TOP}" '
        f'width="{_SVG_RIGHT - _SVG_LEFT}" height="{_SVG_BOTTOM - _SVG_TOP}"/></g>\n'
        f'<g stroke="black">{ticks}</g>\n'
        f'<text x="{_SVG_LEFT - 5}" y="{_SVG_TOP + 4}" text-anchor="end">{y_hi:.3g}</text>\n'
        f'<text x="{_SVG_LEFT - 5}" y="{_SVG_BOTTOM + 4}" text-anchor="end">{y_lo:.3g}</text>\n'
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="'
        + " ".join(f"{x},{y}" for x, y in points.items())
        + '"/>\n'
        + marker
        + f'<text x="{mid_x}" y="{_SVG_H - 10}" text-anchor="middle">iteration</text>\n'
        f'<text x="20" y="{mid_y}" text-anchor="middle" '
        f'transform="rotate(-90 20 {mid_y})">ARE(r)</text>\n'
        f'<text x="{mid_x}" y="22" text-anchor="middle" font-size="14">'
        f"{xml_escape(title)}</text>\n"
        "</svg>\n"
    )


def _write_plots(
    traces: dict[tuple[str, str, int], Trace],
    scenarios: list[Scenario],
    out: Path,
) -> None:
    by_label = {s.label: s for s in scenarios}
    groups: dict[tuple[str, str], list[np.ndarray]] = {}
    for (scen, method, _seed), trace in traces.items():
        if scen in by_label and trace:
            groups.setdefault((scen, method), []).append(
                _trace_are_curve(trace, by_label[scen])
            )
    plot_dir = out / "plots"
    plot_dir.mkdir(exist_ok=True)
    for (scen, method), curves in groups.items():
        try:
            length = max(len(c) for c in curves)
            padded = np.full((len(curves), length), np.nan)
            for i, c in enumerate(curves):
                padded[i, : len(c)] = c
                padded[i, len(c):] = c[-1]
            # iterates outside the parameter domain (e.g. a zero start)
            # yield NaN ARE; drop columns where every seed is NaN
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                median = np.nanmedian(padded, axis=0)
            valid = np.isfinite(median)
            if not valid.any():
                raise ValueError("no finite ARE(r) value in any trace")
            svg = _svg_log_x_plot(
                np.arange(1, length + 1)[valid], median[valid], f"{scen} / {method}"
            )
            (plot_dir / f"{scen}_{method}.svg").write_text(svg, encoding="utf-8")
        except Exception as exc:  # plotting is best effort
            warnings.warn(f"plot {scen}/{method} skipped: {exc}")


def write_report(
    report: BenchReport,
    config: BenchConfig,
    traces: dict[tuple[str, str, int], Trace] | None = None,
) -> None:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_runs_csv(report.rows, out / "runs.csv")
    _write_summary(report, out / "summary.csv")
    _write_tables(report, config.scenarios, out)
    manifest = {
        "schema": 1,
        "seeds": config.seeds,
        "scenarios": [s.label for s in config.scenarios],
        "estimators": [e.method for e in config.estimators],
        "failures": report.failures,
        # the run's inputs in the bench config file format, and its environment
        "config": {
            "schema": SCHEMA_VERSION,
            "scenarios": [scenario_to_dict(s) for s in config.scenarios],
            "estimators": [estimator_to_dict(e) for e in config.estimators],
            "seeds": config.seeds,
        },
        "environment": {"python": platform.python_version(), "numpy": np.__version__},
    }
    with open(out / "bench_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    if config.plots and traces is not None:
        _write_plots(traces, config.scenarios, out)
