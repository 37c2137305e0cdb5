"""Run one workload of the eiv-lpe benchmark and print its metrics.

    python3 perfbench/run.py --workload gauss-long --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics (setup_s, wall_s,
peak_rss_mb, are_r_pct); with ``--trace 1`` it runs traced rounds on one
worker and reports the per-layer metrics and the tracing overhead.  Each line before the last names a check, a metric with
its unit, the cell counts or the environment; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  Outputs,
spans and a result file go to ``perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
WORKLOADS = ("gauss-long", "laplace-all", "csv-tls")
# one BLAS thread per process, so a pool of nproc workers uses nproc cores
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 120


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json gives it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git": git_revision(),
    }


def time_setup(workload: str, seed: int, size: str, workdir: Path) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, str(seed), size,
             str(workdir / "setup_probe")],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run(
    workload: str, seed: int, seconds: float, trace: bool, size: str = "full", out: Path = OUT
) -> dict:
    """Set up, run whole rounds for about `seconds`, check the last round."""
    from perfbench import checks, tracing, workloads

    workdir = out / workload
    setup = [] if trace else time_setup(workload, seed, size, workdir)
    inputs = workloads.build(workload, seed, size, workdir)
    jobs = nproc() if getattr(inputs.spec, "pool", False) else 1
    rounds, layer_rows, spans_seen = [], [], set()
    start = time.perf_counter()
    while True:
        if trace:
            tracer = tracing.Tracer()
            with tracer.installed(tracing.targets()):
                rounds.append(workloads.run_round(inputs, 1, tracer))
            layer_rows.append(tracing.layer_metrics(tracer))
            spans_seen |= tracing.span_names(tracer)
        else:
            rounds.append(workloads.run_round(inputs, jobs))
        if time.perf_counter() - start + rounds[-1].wall_s > seconds:
            break
    # before the checks, whose own arrays would otherwise set the high-water mark
    peak_mb = peak_rss_mb()
    found, are_r = workloads.evaluate(inputs, rounds[-1].outputs)
    if trace:
        found.append(checks.check_spans(spans_seen, workloads.expected_spans(inputs)))
        tracer.write(workdir / f"spans-seed{seed}.jsonl")
        metrics = {k: statistics.median(row[k] for row in layer_rows) for k in layer_rows[0]}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "peak_rss_mb": peak_mb,
            "are_r_pct": statistics.median(are_r) if are_r else float("nan"),
        }
    units = metric_units()
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "jobs": 1 if trace else jobs,
        "environment": environment(),
        "setup_samples_s": setup,
        "round_wall_s": [r.wall_s for r in rounds],
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in found],
        "correct": all(c.ok for c in found),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy is first imported
    if not (SRC / "eiv_lpe" / "__init__.py").is_file():
        print(f"error: no eiv_lpe package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    import eiv_lpe

    if SRC not in Path(eiv_lpe.__file__).resolve().parents:
        print(f"error: eiv_lpe was imported from {eiv_lpe.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result_path = OUT / args.workload / f"result-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    print("env: " + json.dumps(result["environment"]))
    print(f"workload {args.workload}: seed {args.seed}, {len(result['round_wall_s'])} rounds, "
          f"jobs {result['jobs']}, trace {args.trace}")
    for c in result["checks"]:
        print(f"check {c['name']}: {'PASS' if c['ok'] else 'FAIL'} - {c['detail']}")
    for name, m in result["metrics"].items():
        print(f"metric {name}: {m['value']:.6g} {m['unit']}")
    print(f"cells: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
