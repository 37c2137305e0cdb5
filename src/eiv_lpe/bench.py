"""Benchmark orchestration: run grids, aggregate tables, convergence plots.

A bench run evaluates every (scenario, estimator, seed) cell, optionally on
a process pool, and writes:

  runs.csv        one row per cell (estimates, ARE, iterations, timing)
  summary.csv     per scenario/estimator medians and IQRs across seeds
  table_<label>.csv   a true-vs-estimated parameter table per scenario
  plots/<label>_<method>.svg   median ARE(r) against iteration, log x

Aggregates (the summary and the tables) are pure functions of the per-run
rows, so `report` rebuilds them from runs.csv alone and writes nothing else.
Every output is created as a new file (see io.open_new).  Plots are plain
SVG written without a plotting library, byte-identical for a given seed;
plot failures never fail a bench run.
"""

from __future__ import annotations

import csv
import json
import platform
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .estimators import Trace
from .io import BenchConfig, ConfigError, bench_config_to_dict, open_new
from .scenario import Scenario, run_scenario

__all__ = [
    "BenchConfig",
    "BenchReport",
    "RunRow",
    "run_bench",
    "write_report",
    "write_aggregates",
    "rows_from_csv",
    "median_iqr",
]


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


# runs.csv has one column per RunRow field.  Each field type maps to the
# function that writes its cell and the one that reads the cell back.
RUNS_HEADER = [f.name for f in fields(RunRow)]
_RUNS_CODECS = {
    "str": (str, str),
    "int": (str, int),
    "float": ("{:.12g}".format, float),
    "bool": (lambda v: str(int(v)), lambda cell: bool(int(cell))),
}


@dataclass
class BenchReport:
    rows: list[RunRow]

    @property
    def failures(self) -> int:
        """The number of cells whose row holds an error."""
        return sum(1 for row in self.rows if row.error)

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


def _pool_result(cell, future) -> tuple[RunRow, Trace | None]:
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
    """Evaluate the full grid; deterministic ordering regardless of jobs.

    The pool has at most one worker per cell: a fork pool starts all of its
    workers on the first submit, used or not.
    """
    cells = [
        (scenario, est, seed)
        for scenario in config.scenarios
        for est in config.estimators
        for seed in config.seeds
    ]
    # an unusable output directory fails here, before any cell runs
    Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    workers = min(config.jobs, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    report = BenchReport(rows)
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
    columns = [(f.name, _RUNS_CODECS[f.type][0]) for f in fields(RunRow)]
    with open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNS_HEADER)
        writer.writerows([write(getattr(r, name)) for name, write in columns] for r in rows)


def rows_from_csv(path: str | Path) -> list[RunRow]:
    """Load per-run rows back, for report regeneration; extra columns are ignored.

    Raises ConfigError on a missing column or a cell its field cannot read.
    """
    columns = [(f.name, _RUNS_CODECS[f.type][1]) for f in fields(RunRow)]
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        missing = [name for name in RUNS_HEADER if name not in (reader.fieldnames or ())]
        if missing:
            raise ConfigError(f"{path} lacks the runs.csv column(s) {missing}")
        rows = []
        for rec in reader:
            values = {}
            for name, read in columns:
                try:
                    values[name] = read(rec[name])
                except ValueError:
                    where = f"{path} line {reader.line_num}"
                    raise ConfigError(f"{where}: cannot read {name} {rec[name]!r}") from None
            rows.append(RunRow(**values))
        return rows


_ARE_COLUMNS = ("are_r", "are_x", "are_b")


def _write_summary(report: BenchReport, path: Path) -> None:
    with open_new(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scenario", "method", "n_seeds", "n_failed"]
            + [f"{col}_{stat}" for col in _ARE_COLUMNS for stat in ("median", "iqr")]
            + ["elapsed_median"]
        )
        for (scen, method), rows in sorted(report.by_cell().items()):
            ok = [r for r in rows if not r.error]
            stats = [v for col in _ARE_COLUMNS for v in median_iqr([getattr(r, col) for r in ok])]
            stats.append(median_iqr([r.elapsed for r in ok])[0])
            writer.writerow(
                [scen, method, len(rows), len(rows) - len(ok)] + [f"{v:.6g}" for v in stats]
            )


def _write_tables(report: BenchReport, scenarios: list[Scenario], out: Path) -> None:
    """Per-scenario true-vs-estimated table (medians across seeds)."""
    by_label = {s.label: s for s in scenarios}
    cells = report.by_cell()
    for label, scenario in by_label.items():
        methods = sorted({m for (s, m) in cells if s == label})
        if not methods:
            continue
        ok = {m: [r for r in cells[(label, m)] if not r.error] for m in methods}
        with open_new(out / f"table_{label}.csv", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["parameter", "true"] + methods)
            for name, col in zip(("r", "x", "b", "time_s"), ("r_hat", "x_hat", "b_hat", "elapsed")):
                true_s = "" if col == "elapsed" else f"{getattr(scenario.line, name):.6g}"
                medians = [np.median([getattr(r, col) for r in ok[m]] or [np.nan]) for m in methods]
                writer.writerow([name, true_s] + [f"{v:.6g}" for v in medians])


def _trace_are_curve(trace: Trace, scenario: Scenario) -> np.ndarray:
    """ARE(r) of each iterate; NaN where admittance_to_params rejects it."""
    y1, y2, y3, y4 = trace.w.T
    true_r = scenario.line.r
    with np.errstate(all="ignore"):
        # squares by libm's pow, as admittance_to_params's scalar ** 2 does;
        # an array's ** 2 multiplies, which can differ in the last bit
        den = np.float_power(y1 - y3, 2) + np.float_power(2.0 * y4, 2)
        r = 2.0 * (y1 - y3) / den
        x = -4.0 * y4 / den
        valid = np.isfinite([r, x, y2 + y4]).all(axis=0) & (den >= 1e-24)
        valid &= (r >= 0) & ((r != 0) | (x != 0))
        return np.where(valid, np.abs((r - true_r) / true_r), np.nan)


def _xml_escape(text: str) -> str:
    """`text` with &, < and > escaped, as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
        f"{_xml_escape(title)}</text>\n"
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
    if plot_dir.is_symlink() or not plot_dir.is_dir():
        plot_dir.unlink(missing_ok=True)  # replaced, as an output file is
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
            with open_new(plot_dir / f"{scen}_{method}.svg", encoding="utf-8") as fh:
                fh.write(svg)
        except Exception as exc:  # plotting is best effort
            warnings.warn(f"plot {scen}/{method} skipped: {exc}")


def _blas_library() -> str:
    """Name and version of the BLAS numpy was built with, or "unknown"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def write_aggregates(report: BenchReport, config: BenchConfig) -> None:
    """Write summary.csv and the table_<label>.csv files, the outputs rebuilt from the rows."""
    out = Path(config.output_dir)
    _write_summary(report, out / "summary.csv")
    _write_tables(report, config.scenarios, out)


def write_report(
    report: BenchReport,
    config: BenchConfig,
    traces: dict[tuple[str, str, int], Trace] | None = None,
) -> None:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_runs_csv(report.rows, out / "runs.csv")
    write_aggregates(report, config)
    manifest = {
        "schema": 1,
        "seeds": config.seeds,
        "scenarios": [s.label for s in config.scenarios],
        "estimators": [e.method for e in config.estimators],
        "failures": report.failures,
        # the run's inputs in the bench config file format, and its environment
        "config": bench_config_to_dict(config),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas_library(),
        },
    }
    with open_new(out / "bench_manifest.json") as fh:
        json.dump(manifest, fh, indent=2)
    if config.plots and traces is not None:
        _write_plots(traces, config.scenarios, out)
