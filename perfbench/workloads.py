"""The benchmark's workloads: their inputs, the timed body and its checks.

Each workload is built once per run (the set-up), then its body runs in whole
rounds; every round does the same operations on the same inputs.  The noise
draws of every workload are fixed (the first seeds of the release studies,
taken as they come), because the accuracy metric is a median over a handful
of cells and moves by about as much as itself between noise draws, and
egle's time on one cell ranges from under 1 s to 45 s between draws.  ``--seed`` sets the order of the work
where the order leaves every result and the work done unchanged: the order
of the noise seeds in a one-worker grid, and of the ten lines in
``csv-tls``.  In a pool the order of the cells sets the makespan, so the
pool grid keeps its order.

Nothing here imports eiv_lpe at module level, so a set-up probe can time the
package import from a fresh interpreter.
"""

from __future__ import annotations

import csv
import io as stdio
import json
import random
import shutil
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from . import checks

TRUTH = (0.00269, 0.0302, 0.38)  # the stock line's r, x, b in p.u.
NOISE_LEVEL = 0.005

# Voltage ramps of tests/test_acceptance.py: a narrow ramp for the long
# Gaussian window, a wide one that keeps short windows well excited.
NARROW = {"vk_mag": (1.00, 1.02), "angle_spread": (0.04, 0.24), "sag_per_rad": 0.05}
WIDE = {
    "vk_mag": (0.95, 1.08), "angle_spread": (0.3, 0.6), "sag_per_rad": 0.08,
    "ref_angle": (0.0, 0.6),
}
EGLE_FIRST = ("egle", "mtee", "tls", "mtc", "cmtc")  # all five, longest cells first
CONSTRAINED = ("cmtc", "egle")


@dataclass(frozen=True)
class BenchSpec:
    """A study grid run through eiv_lpe.bench.run_bench."""

    noise: str  # "gaussian" or "laplacian", with NOISE_LEVEL as sigma or scale
    profile: dict
    n_records: int
    noise_seeds: tuple[int, ...]
    methods: tuple[str, ...]
    bands: dict
    band_check: str
    pool: bool  # True: a pool of nproc workers; False: one process


@dataclass(frozen=True)
class CsvSpec:
    """Ten stock lines written by `generate` and estimated file by file."""

    n_records: int


SPECS: dict[str, dict[str, Any]] = {
    "gauss-long": {
        "full": BenchSpec("gaussian", NARROW, 2000, (0, 1), ("tls", "mtc", "cmtc", "egle"),
                          checks.GAUSS_BANDS, "bands_criterion_2", pool=False),
        "small": BenchSpec("gaussian", NARROW, 100, (0,), ("tls", "mtc", "cmtc", "egle"),
                           checks.GAUSS_BANDS, "bands_criterion_2", pool=False),
    },
    "laplace-all": {
        # criterion-3 seeds 0-4, the first five of its ten.  The pool takes
        # cells estimator by estimator, so egle goes first: its seed-3 cell
        # alone takes ~45 s, and started last it would end the round alone.
        "full": BenchSpec("laplacian", WIDE, 250, (0, 1, 2, 3, 4), EGLE_FIRST,
                          checks.LAPLACE_BANDS, "bands_criterion_3", pool=True),
        "small": BenchSpec("laplacian", WIDE, 40, (0,), EGLE_FIRST,
                           checks.LAPLACE_BANDS, "bands_criterion_3", pool=True),
    },
    "csv-tls": {
        "full": CsvSpec(n_records=8000),
        "small": CsvSpec(n_records=20),
    },
}


@dataclass
class Inputs:
    spec: BenchSpec | CsvSpec
    workdir: Path
    scenarios: list = field(default_factory=list)  # eiv_lpe Scenario objects
    bench_config: Any = None  # eiv_lpe.bench.BenchConfig
    labels: list[str] = field(default_factory=list)  # csv-tls, in run order


@dataclass
class Round:
    wall_s: float
    attempted: int
    failed: int
    outputs: Any


def build(name: str, seed: int, size: str, workdir: Path) -> Inputs:
    """The set-up: import eiv_lpe and build the workload's inputs."""
    from eiv_lpe.line_model import LineParameters
    from eiv_lpe.noise import GaussianNoise, LaplacianNoise
    from eiv_lpe.scenario import LoadRampProfile, Scenario, stock_lines

    spec = SPECS[name][size]
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(spec, workdir)
    truth = LineParameters(*TRUTH)
    if isinstance(spec, BenchSpec):
        from eiv_lpe.bench import BenchConfig
        from eiv_lpe.estimators import EstimatorConfig

        noise = (GaussianNoise if spec.noise == "gaussian" else LaplacianNoise)(0.0, NOISE_LEVEL)
        scenario = Scenario(
            name, truth, LoadRampProfile(n_records=spec.n_records, **spec.profile), noise
        )
        inputs.scenarios = [scenario]
        inputs.bench_config = BenchConfig(
            scenarios=[scenario],
            estimators=[EstimatorConfig(m) for m in spec.methods],
            seeds=list(spec.noise_seeds) if spec.pool
            else random.Random(seed).sample(spec.noise_seeds, len(spec.noise_seeds)),
            output_dir=workdir / "bench_out",
        )
        return inputs

    noise_seed = {label: i for i, label in enumerate(stock_lines())}
    inputs.labels = random.Random(seed).sample(list(noise_seed), len(noise_seed))
    noise_spec = {"type": "gaussian", "mu": 0.0, "sigma": NOISE_LEVEL}
    config = {
        "schema": 1,
        "scenarios": [
            {
                "label": label,
                "line": dict(zip("rxb", TRUTH)),
                "profile": {"n_records": spec.n_records},
                "noise": noise_spec,
                "seed": noise_seed[label],
            }
            for label in inputs.labels
        ],
        "estimators": [{"method": "tls"}],
    }
    (workdir / "generate.json").write_text(json.dumps(config, indent=1))
    (workdir / "tls.json").write_text(json.dumps({"method": "tls"}))
    inputs.scenarios = [
        Scenario(label, truth, LoadRampProfile(n_records=spec.n_records),
                 GaussianNoise(0.0, NOISE_LEVEL), seed=noise_seed[label])
        for label in inputs.labels
    ]
    return inputs


def run_round(inputs: Inputs, jobs: int, tracer=None) -> Round:
    """One timed round of the workload's body."""
    if isinstance(inputs.spec, BenchSpec):
        return _bench_round(inputs, jobs, tracer)
    return _csv_round(inputs, tracer)


def _bench_round(inputs: Inputs, jobs: int, tracer) -> Round:
    from eiv_lpe import bench

    config = replace(inputs.bench_config, jobs=jobs)
    traces: dict = {}
    write_report = bench.write_report

    # run_bench hands the iterate traces only to write_report; the checks
    # need each cell's final coefficient vector, which only the trace holds.
    def keep_traces(report, cfg, cell_traces=None):
        traces.update(cell_traces or {})
        return write_report(report, cfg, cell_traces)

    bench.write_report = keep_traces
    try:
        start = time.perf_counter()
        with tracer.span("bench.run_bench") if tracer else nullcontext():
            report = bench.run_bench(config)
        wall = time.perf_counter() - start
    finally:
        bench.write_report = write_report
    return Round(wall, len(report.rows), report.failures, (report.rows, traces))


def _csv_round(inputs: Inputs, tracer) -> Round:
    from eiv_lpe import cli

    data, out = inputs.workdir / "data", inputs.workdir / "estimates"
    files = [data / f"{label}_{kind}.csv" for label in inputs.labels for kind in ("clean", "noisy")]
    for stale in (data, out):  # so the checks see only this round's files
        shutil.rmtree(stale, ignore_errors=True)
    codes = []
    start = time.perf_counter()
    with redirect_stdout(stdio.StringIO()):
        with tracer.span("cli.generate") if tracer else nullcontext():
            codes.append(cli.main(
                ["generate", "--config", str(inputs.workdir / "generate.json"), "--out", str(data)]
            ))
        for path in files:
            with tracer.span("cli.estimate") if tracer else nullcontext():
                codes.append(cli.main(
                    ["estimate", str(path), "--config", str(inputs.workdir / "tls.json"),
                     "--out", str(out)]
                ))
    wall = time.perf_counter() - start
    return Round(wall, len(codes), sum(1 for c in codes if c != 0), files)


def _record_array(records) -> Any:
    """(n, 9) float array of PmuRecords in the CSV column order."""
    import numpy as np

    return np.array(
        [(r.t, r.vk.real, r.vk.imag, r.vl.real, r.vl.imag,
          r.ik.real, r.ik.imag, r.il.real, r.il.imag) for r in records],
        dtype=float,
    )


def _regression(values) -> tuple:
    """Regression rows of an (n, 9) record array, built by the benchmark."""
    vk = values[:, 1] + 1j * values[:, 2]
    vl = values[:, 3] + 1j * values[:, 4]
    ik = values[:, 5] + 1j * values[:, 6]
    il = values[:, 7] + 1j * values[:, 8]
    return checks.regression_rows(vk, vl, ik, il)


def _read_csv(path: Path):
    import numpy as np

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)


# Spans every traced round records, besides those of the estimators run.
BENCH_SPANS = ("bench.run_bench", "scenario.run_scenario", "bench.write_report")
CSV_SPANS = (
    "cli.generate", "cli.estimate", "io.load_bench_config", "io.write_records_csv",
    "io.read_records_csv",
)
SHARED_SPANS = (
    "scenario.generate_true_records", "line_model.simulate_records",
    "line_model.build_regression", "noise.apply_noise",
)
EGLE_SPANS = ("noise.em_fit", "estimators.egle.newton")


def expected_spans(inputs: Inputs) -> set[str]:
    """Span names a traced round of the workload must record.

    A wrapped function that is renamed, moved or no longer called through
    the wrapped module attribute shows here, not as a layer that reads 0.
    """
    if isinstance(inputs.spec, CsvSpec):
        return {*SHARED_SPANS, *CSV_SPANS, "estimators.tls"}
    methods = inputs.spec.methods
    return {
        *SHARED_SPANS, *BENCH_SPANS, *(f"estimators.{m}" for m in methods),
        *(EGLE_SPANS if "egle" in methods else ()),
    }


def evaluate(inputs: Inputs, outputs: Any) -> tuple[list[checks.Check], list[float]]:
    """Correctness checks of one round's outputs, and ARE(r) % of its noisy cells."""
    if isinstance(inputs.spec, BenchSpec):
        return _bench_checks(inputs, *outputs)
    return _csv_checks(inputs, outputs)


def _bench_checks(inputs: Inputs, rows, traces) -> tuple[list[checks.Check], list[float]]:
    from eiv_lpe.noise import apply_noise
    from eiv_lpe.scenario import generate_true_records

    spec = inputs.spec
    scenario = inputs.scenarios[0]
    clean = generate_true_records(scenario)
    oracle = {
        seed: checks.tls_oracle(*_regression(_record_array(apply_noise(clean, scenario.noise, seed))))
        for seed in spec.noise_seeds
    }
    tls_pairs, constrained, are_r = [], [], []
    are_by_method: dict[str, list] = {}
    for row in rows:
        if row.error:
            continue
        w = traces[(row.scenario, row.method, row.seed)][-1][0]
        cell = f"{row.method} seed {row.seed}"
        if row.method == "tls":
            tls_pairs.append((cell, w, oracle[row.seed]))
        if row.method in CONSTRAINED:
            constrained.append((cell, w))
        err = checks.are_pct(checks.line_params(w), TRUTH)
        are_by_method.setdefault(row.method, []).append(err)
        are_r.append(err[0])
    found = [
        checks.check_tls(tls_pairs),
        checks.check_constraint(constrained),
        checks.check_bands(are_by_method, spec.bands, spec.band_check),
    ]
    return found, are_r


def _csv_checks(inputs: Inputs, files: list[Path]) -> tuple[list[checks.Check], list[float]]:
    from eiv_lpe.noise import apply_noise
    from eiv_lpe.scenario import generate_true_records

    by_label = {s.label: s for s in inputs.scenarios}
    out = inputs.workdir / "estimates"
    bits, tls_pairs, clean_fits, are_r = [], [], [], []
    for path in files:
        label, kind = path.stem.rsplit("_", 1)
        scenario = by_label[label]
        records = generate_true_records(scenario)
        if kind == "noisy":
            records = apply_noise(records, scenario.noise, scenario.seed)
        expected = _record_array(records)
        values = _read_csv(path) if path.exists() else expected[:0]
        bits.append((path.name, checks.same_bits(values, expected)))
        result = out / f"{path.stem}_tls_result.csv"
        if not result.exists() or not len(values):
            continue
        with open(result, newline="") as fh:
            rec = next(csv.DictReader(fh))
        w = [float(rec[f"w{i}"]) for i in range(1, 5)]
        tls_pairs.append((path.name, w, checks.tls_oracle(*_regression(values))))
        if kind == "clean":
            clean_fits.append((path.name, checks.line_params(w)))
        else:
            are_r.append(checks.are_pct(checks.line_params(w), TRUTH)[0])
    found = [
        checks.check_csv_bits(bits),
        checks.check_tls(tls_pairs),
        checks.check_clean_recovery(clean_fits, TRUTH),
    ]
    return found, are_r
