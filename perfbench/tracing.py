"""Spans around the program's layers, recorded from outside the program.

A Tracer replaces public functions of eiv_lpe with wrappers at the module
attribute where their callers look them up, for the length of one traced
round, and restores them afterwards.  Each call becomes a span (name, start,
end, parent) kept in memory; counters are taken from the call's arguments
and result at the same boundary.  Span names are ``<layer>.<function>``,
where the layer is the package module that owns the function.  The time a
wrapper spends on its own bookkeeping is summed as the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

LAYERS = ("noise", "estimators", "scenario", "line_model", "io", "cli", "bench")
METHODS = ("tls", "mtee", "mtc", "cmtc", "egle")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self.overhead_s = 0.0  # time spent in the wrappers, outside the wrapped calls

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, fn: Callable, name: Callable[..., str], count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            with self.span(name(*args, **kwargs)):
                called = time.perf_counter()
                result = fn(*args, **kwargs)
                returned = time.perf_counter()
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            self.overhead_s += (called - entered) + (time.perf_counter() - returned)
            return result

        return traced

    @contextmanager
    def installed(self, targets: list[tuple[Any, str, Callable, Callable | None]]) -> Iterator[None]:
        """Wrap each (module, attribute, span namer, counter) while the block runs.

        A target the program no longer has raises AttributeError, so that a
        renamed or moved function fails the run instead of reading 0.
        """
        saved = []
        try:
            for module, attr, name, count in targets:
                if not callable(getattr(module, attr, None)):
                    raise AttributeError(f"trace target {module.__name__}.{attr} is not a function")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start_s": s.start - t0, "end_s": s.end - t0,
                }) + "\n")


def _fixed(label: str) -> Callable[..., str]:
    return lambda *args, **kwargs: label


def _estimator_span(problem, config, *args, **kwargs) -> str:
    return f"estimators.{config.method}"


def _count_estimate(counts, result, problem, config, *args, **kwargs) -> None:
    counts[f"estimators.{config.method}.iterations"] += result.iterations
    if result.egle_meta is not None:
        counts["estimators.egle.outer_iters"] += sum(result.egle_meta.outer_iters_by_m.values())


def _count_em_fit(counts, fit, *args, **kwargs) -> None:
    counts["noise.em_fit_calls"] += 1
    counts["noise.em_iterations"] += fit.n_iter
    counts["noise.em_capped_fits"] += 0 if fit.converged else 1


def _count_regression(counts, problem, *args, **kwargs) -> None:
    counts["line_model.build_regression_calls"] += 1
    counts["line_model.rows_built"] += problem.x.shape[0]


def _counter(key: str) -> Callable:
    def count(counts, *args, **kwargs) -> None:
        counts[key] += 1
    return count


def _count_csv_bytes(counts, result, records, path, *args, **kwargs) -> None:
    counts["io.csv_bytes"] += os.path.getsize(path)


def targets() -> list[tuple[Any, str, Callable, Callable | None]]:
    """Where each traced function is looked up by its callers in eiv_lpe.

    run_scenario imports apply_noise from eiv_lpe.noise when it runs, so that
    one is wrapped on the noise module; the others on their callers' modules.
    """
    from eiv_lpe import bench, cli, noise, scenario
    from eiv_lpe.estimators import egle

    gen = ("scenario.generate_true_records", _counter("scenario.generate_true_records_calls"))
    reg = ("line_model.build_regression", _count_regression)
    est = (_estimator_span, _count_estimate)
    return [
        (bench, "run_scenario", _fixed("scenario.run_scenario"), None),
        (bench, "write_report", _fixed("bench.write_report"), None),
        (scenario, "generate_true_records", _fixed(gen[0]), gen[1]),
        (cli, "generate_true_records", _fixed(gen[0]), gen[1]),
        (scenario, "simulate_records", _fixed("line_model.simulate_records"), None),
        (scenario, "build_regression", _fixed(reg[0]), reg[1]),
        (cli, "build_regression", _fixed(reg[0]), reg[1]),
        (noise, "apply_noise", _fixed("noise.apply_noise"), None),
        (cli, "apply_noise", _fixed("noise.apply_noise"), None),
        (scenario, "estimate", *est),
        (cli, "estimate", *est),
        (egle, "em_fit", _fixed("noise.em_fit"), _count_em_fit),
        (egle, "solve_params", _fixed("estimators.egle.newton"), _counter("estimators.egle.newton_calls")),
        (cli, "write_records_csv", _fixed("io.write_records_csv"), _count_csv_bytes),
        (cli, "read_records_csv", _fixed("io.read_records_csv"), None),
        (cli, "load_bench_config", _fixed("io.load_bench_config"), None),
    ]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round, all in the units of their names.

    Self time of a span is its duration minus that of its direct children;
    a layer's total counts only its spans whose parent is in another layer.
    """
    spans = tracer.spans
    dur = [s.end - s.start for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_time[s.parent] += dur[i]
    by_name: dict[str, list[float]] = {}
    layer_total = dict.fromkeys(LAYERS, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(dur[i])
        layer = s.name.split(".")[0]
        if layer not in layer_self:
            continue
        layer_self[layer] += dur[i] - child_time[i]
        if s.parent < 0 or spans[s.parent].name.split(".")[0] != layer:
            layer_total[layer] += dur[i]

    def total(name: str) -> float:
        return sum(by_name.get(name, ()), 0.0)

    c = tracer.counts
    m: dict[str, float] = {
        "noise.em_fit_s": total("noise.em_fit"),
        "noise.em_fit_calls": c["noise.em_fit_calls"],
        "noise.em_iterations": c["noise.em_iterations"],
        "noise.em_capped_fits": c["noise.em_capped_fits"],
        "noise.apply_noise_ms": 1e3 * total("noise.apply_noise"),
    }
    for method in METHODS:
        solve = total(f"estimators.{method}")
        iters = c[f"estimators.{method}.iterations"]
        # egle's loop count is the outer iterations of every candidate m
        loops = c["estimators.egle.outer_iters"] if method == "egle" else iters
        m[f"estimators.{method}.solve_s"] = solve
        m[f"estimators.{method}.iterations"] = iters
        m[f"estimators.{method}.us_per_iter"] = 1e6 * solve / loops if loops else 0.0
    m.update({
        "estimators.egle.outer_iters": c["estimators.egle.outer_iters"],
        "estimators.egle.newton_s": total("estimators.egle.newton"),
        "estimators.egle.newton_calls": c["estimators.egle.newton_calls"],
        "scenario.generate_true_records_ms": 1e3 * total("scenario.generate_true_records"),
        "scenario.generate_true_records_calls": c["scenario.generate_true_records_calls"],
        "line_model.simulate_records_ms": 1e3 * total("line_model.simulate_records"),
        "line_model.build_regression_ms": 1e3 * total("line_model.build_regression"),
        "line_model.build_regression_calls": c["line_model.build_regression_calls"],
        "line_model.rows_built": c["line_model.rows_built"],
        "io.write_records_csv_ms": 1e3 * total("io.write_records_csv"),
        "io.read_records_csv_ms": 1e3 * total("io.read_records_csv"),
        "io.load_bench_config_ms": 1e3 * total("io.load_bench_config"),
        "io.csv_bytes": c["io.csv_bytes"],
        "cli.generate_s": total("cli.generate"),
        "cli.estimate_ms": 1e3 * statistics.median(by_name.get("cli.estimate", [0.0])),
        "bench.write_report_ms": 1e3 * total("bench.write_report"),
        "bench.dispatch_overhead_ms": 1e3 * (
            total("bench.run_bench") - total("scenario.run_scenario") - total("bench.write_report")
        ),
    })
    for layer in LAYERS:
        m[f"{layer}.total_s"] = layer_total[layer]
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.spans"] = len(spans)
    m["trace.overhead_s"] = tracer.overhead_s
    return m


def span_names(tracer: Tracer) -> set[str]:
    return {s.name for s in tracer.spans}
