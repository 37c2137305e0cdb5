"""Command line front end: generate datasets, estimate, bench, report.

Exit codes: 0 on success, 2 on configuration errors, 3 when every cell of a
bench run fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .estimators import EstimatorError, estimate
from .io import (
    ConfigError,
    estimator_from_dict,
    load_bench_config,
    noise_from_dict,
    open_new,
    read_json,
    read_records_csv,
    scenario_to_dict,
    write_records_csv,
)
from .line_model import admittance_to_params, build_regression
from .noise import apply_noise
from .scenario import LoadRampProfile, Scenario, generate_true_records, stock_lines

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAILED = 3


def _check_seed(args) -> None:
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")


def _scenarios_from_args(args) -> list[Scenario]:
    if args.config:
        return load_bench_config(args.config).scenarios
    noise = noise_from_dict({"type": "gaussian", "mu": 0.0, "sigma": 0.005})
    return [
        Scenario(label, line, LoadRampProfile(), noise)
        for label, line in stock_lines().items()
    ]


def _write_once(files: dict[str, Path], key: str, path: Path, build) -> None:
    """Write build()'s window to path, or copy the file first written under key."""
    if key in files:
        with open(files[key], newline="") as src, open_new(path, newline="") as dst:
            dst.write(src.read())
    else:
        write_records_csv(build(), path)
        files[key] = path


def cmd_generate(args) -> int:
    """Write clean and noisy PMU CSVs plus a manifest for each scenario.

    Each distinct window is built and formatted once.  A clean window is a
    pure function of the line and the profile, a noisy one of those, the
    noise model and the seed; a scenario that repeats an earlier one's gets
    a copy of its file.
    """
    _check_seed(args)
    scenarios = _scenarios_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"schema": 1, "scenarios": []}
    # keys are the manifest's JSON text, which tells 0.0 from -0.0 and
    # matches mixture models by value
    windows: dict[str, np.recarray] = {}
    files: dict[str, Path] = {}
    for sc in scenarios:
        seed = args.seed if args.seed is not None else sc.seed
        entry = scenario_to_dict(sc)
        entry["seed"] = seed
        clean_key = json.dumps([entry["line"], entry["profile"]])
        if clean_key not in windows:
            windows[clean_key] = generate_true_records(sc)
        clean = windows[clean_key]
        clean_path = out / f"{sc.label}_clean.csv"
        _write_once(files, clean_key, clean_path, lambda: clean)
        entry["files"] = {"clean": clean_path.name}
        if sc.noise is not None:
            noisy_path = out / f"{sc.label}_noisy.csv"
            noisy_key = json.dumps([entry["line"], entry["profile"], entry["noise"], seed])
            _write_once(files, noisy_key, noisy_path, lambda: apply_noise(clean, sc.noise, seed))
            entry["files"]["noisy"] = noisy_path.name
        manifest["scenarios"].append(entry)
    with open_new(out / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {len(scenarios)} scenario(s) to {out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    """Run one estimator on a PMU CSV and write result + trace CSVs.

    A config file sets no w0, so the iterative methods start from the TLS
    solution of the same file (see estimators.tls.warm_start).  The output
    directory is made once the inputs are read and checked, before the
    estimator runs.
    """
    records = read_records_csv(args.data)
    config = estimator_from_dict(read_json(args.config))
    problem = build_regression(records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = estimate(problem, config)
    params = admittance_to_params(result.w)
    stem = Path(args.data).stem
    with open_new(out / f"{stem}_{config.method}_result.csv") as fh:
        fh.write("method,r_hat,x_hat,b_hat,w1,w2,w3,w4,iterations,converged,elapsed\n")
        w = result.w
        fh.write(
            f"{config.method},{params.r:.12g},{params.x:.12g},{params.b:.12g},"
            f"{w[0]:.12g},{w[1]:.12g},{w[2]:.12g},{w[3]:.12g},"
            f"{result.iterations},{int(result.converged)},{result.elapsed:.6g}\n"
        )
    with open_new(out / f"{stem}_{config.method}_trace.csv") as fh:
        fh.write("iteration,w1,w2,w3,w4,objective\n")
        for i, (w, obj) in enumerate(result.trace):
            fh.write(f"{i},{w[0]:.12g},{w[1]:.12g},{w[2]:.12g},{w[3]:.12g},{obj:.12g}\n")
    print(
        f"{config.method}: r={params.r:.6g} x={params.x:.6g} b={params.b:.6g} "
        f"({result.iterations} iterations, {'converged' if result.converged else 'cap hit'})"
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    """Run the configured scenario x estimator x seed grid."""
    from .bench import run_bench  # only bench and report load the harness
    _check_seed(args)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be a positive integer, got {args.jobs}")
    flags = {"jobs": args.jobs, "plots": not args.no_plots}
    config = load_bench_config(args.config)
    if args.out:
        flags["output_dir"] = Path(args.out)
    if args.seed is not None:
        flags["seeds"] = [args.seed]
    config = replace(config, **flags)
    report = run_bench(config)
    total = len(report.rows)
    print(f"{total - report.failures}/{total} cells succeeded; report in {config.output_dir}")
    if report.failures == total:
        return EXIT_FAILED
    return EXIT_OK


def cmd_report(args) -> int:
    """Rebuild summary and tables from an existing runs.csv, which it leaves as it is."""
    from .bench import BenchReport, rows_from_csv, write_aggregates
    config = load_bench_config(args.config)
    if args.out:
        config = replace(config, output_dir=Path(args.out))
    runs = config.output_dir / "runs.csv"
    if not runs.exists():
        raise ConfigError(f"no runs.csv under {config.output_dir}; run bench first")
    write_aggregates(BenchReport(rows_from_csv(runs)), config)
    print(f"report rebuilt in {config.output_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eiv-lpe",
        description="EIV line parameter estimation benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write clean/noisy PMU CSV datasets")
    gen.add_argument("--config", help="bench config JSON (defaults to stock scenarios)")
    gen.add_argument("--out", default="datasets", help="output directory")
    gen.add_argument("--seed", type=int, default=None, help="noise seed override")
    gen.set_defaults(func=cmd_generate)

    est = sub.add_parser("estimate", help="run one estimator on a PMU CSV")
    est.add_argument("data", help="PMU CSV path")
    est.add_argument("--config", required=True, help="estimator config JSON")
    est.add_argument("--out", default="estimates", help="output directory")
    est.set_defaults(func=cmd_estimate)

    ben = sub.add_parser("bench", help="run the full benchmark grid")
    ben.add_argument("--config", required=True, help="bench config JSON")
    ben.add_argument("--out", default=None, help="output directory override")
    ben.add_argument("--seed", type=int, default=None, help="single-seed override")
    ben.add_argument("--jobs", type=int, default=1, help="worker processes")
    ben.add_argument("--no-plots", action="store_true", help="skip SVG plots")
    ben.set_defaults(func=cmd_bench)

    rep = sub.add_parser("report", help="rebuild tables from a previous bench run")
    rep.add_argument("--config", required=True, help="bench config JSON")
    rep.add_argument("--out", default=None, help="bench output directory")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EstimatorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
