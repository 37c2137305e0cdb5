"""Correctness checks that the benchmark applies to the program's outputs.

Every check is a pure function of plain numbers, so the tests can feed it a
deliberately wrong input and see it fail.  The reference values are computed
here, apart from the program: the TLS solution from the normal matrix, the
regression rows from the record layout, the errors from the true line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

TLS_REL_TOL = 1e-10
CONSTRAINT_TOL = 1e-10
CLEAN_REL_TOL = 1e-9

# Release criteria 2 and 3 of tests/test_acceptance.py: median ARE in percent
# of (r, x, b) over the seeds of one study.
GAUSS_BANDS = {
    "mtee": (2.0, 1.5, 0.5),
    "mtc": (2.0, 1.5, 0.5),
    "cmtc": (2.0, 1.5, 0.5),
    "egle": (1.0, 0.5, 0.1),
}
LAPLACE_BANDS = {m: (2.0, 1.5, 0.5) for m in ("mtee", "mtc", "cmtc", "egle")}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def regression_rows(
    vk: np.ndarray, vl: np.ndarray, ik: np.ndarray, il: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The 4-rows-per-record pi-model regression, built from complex arrays.

    Row order per record: Re ik, Im ik, Re il, Im il, each regressed on the
    voltage components so that one vector (y1, y2, y3, y4) serves all rows.
    """
    n = vk.size
    x = np.empty((4 * n, 4))
    y = np.empty(4 * n)
    x[0::4] = np.column_stack([vk.real, vk.imag, vl.real, vl.imag])
    x[1::4] = np.column_stack([vk.imag, -vk.real, vl.imag, -vl.real])
    x[2::4] = np.column_stack([vl.real, vl.imag, vk.real, vk.imag])
    x[3::4] = np.column_stack([vl.imag, -vl.real, vk.imag, -vk.real])
    y[0::4], y[1::4], y[2::4], y[3::4] = ik.real, ik.imag, il.real, il.imag
    return x, y


def tls_oracle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """TLS from the eigenvector of the smallest eigenvalue of [X y]^T [X y]."""
    m = np.column_stack([x, y])
    v = np.linalg.eigh(m.T @ m)[1][:, 0]
    return -v[:-1] / v[-1]


def line_params(w: Sequence[float]) -> tuple[float, float, float]:
    """(r, x, b) of a coefficient vector, using (y1 - y3) / 2 as conductance."""
    y1, y2, y3, y4 = (float(v) for v in w)
    den = (y1 - y3) ** 2 + (2.0 * y4) ** 2
    return 2.0 * (y1 - y3) / den, -4.0 * y4 / den, -(y2 + y4)


def are_pct(estimate: Sequence[float], truth: Sequence[float]) -> tuple[float, ...]:
    """Absolute relative errors in percent, component by component."""
    return tuple(100.0 * abs((e - t) / t) for e, t in zip(estimate, truth))


def _worst(items: Iterable[tuple[str, float]]) -> tuple[float, str, int]:
    """Largest value (NaN counts as infinite), its label and the item count."""
    worst, worst_label, count = 0.0, "none", 0
    for label, value in items:
        value = value if np.isfinite(value) else np.inf
        if value > worst:
            worst, worst_label = value, label
        count += 1
    return worst, worst_label, count


def check_tls(pairs: Iterable[tuple[str, np.ndarray, np.ndarray]]) -> Check:
    """Each (label, program w, oracle w) agrees within TLS_REL_TOL of max |oracle|."""
    worst, worst_label, count = _worst(
        (label, float(np.abs(np.subtract(w, ref)).max() / np.abs(ref).max()))
        for label, w, ref in pairs
    )
    ok = count > 0 and worst <= TLS_REL_TOL
    return Check(
        "tls_oracle", ok,
        f"worst relative difference to the eigenvector TLS {worst:.1e} "
        f"({worst_label}) over {count} estimates (<= {TLS_REL_TOL:.0e})",
    )


def check_constraint(estimates: Iterable[tuple[str, np.ndarray]]) -> Check:
    """Every constrained estimate satisfies |y1 + y3| <= CONSTRAINT_TOL."""
    worst, worst_label, count = _worst(
        (label, abs(float(w[0]) + float(w[2]))) for label, w in estimates
    )
    ok = count > 0 and worst <= CONSTRAINT_TOL
    return Check(
        "constraint", ok,
        f"max |y1 + y3| {worst:.1e} ({worst_label}) over {count} "
        f"cmtc/egle estimates (<= {CONSTRAINT_TOL:.0e})",
    )


def check_bands(
    are_by_method: Mapping[str, Sequence[tuple[float, float, float]]],
    bands: Mapping[str, tuple[float, float, float]],
    name: str,
) -> Check:
    """Median ARE% of r, x and b per method lies inside its band."""
    ok = True
    parts = []
    for method, band in bands.items():
        rows = are_by_method.get(method)
        if not rows:
            continue
        med = np.median(np.asarray(rows, dtype=float), axis=0)
        inside = bool(np.all(med <= np.asarray(band)))
        ok = ok and inside
        parts.append(
            f"{method} {med[0]:.2f}/{med[1]:.2f}/{med[2]:.3f}"
            f"{'' if inside else ' OUT'} (<= {band[0]}/{band[1]}/{band[2]})"
        )
    ok = ok and bool(parts)
    return Check(name, ok, "median ARE% r/x/b: " + ("; ".join(parts) or "no robust cell"))


def check_clean_recovery(
    estimates: Iterable[tuple[str, Sequence[float]]], truth: Sequence[float]
) -> Check:
    """TLS on noiseless data recovers (r, x, b) within CLEAN_REL_TOL."""
    worst, worst_label, count = _worst(
        (label, max(abs((p - t) / t) for p, t in zip(params, truth)))
        for label, params in estimates
    )
    ok = count > 0 and worst <= CLEAN_REL_TOL
    return Check(
        "clean_recovery", ok,
        f"worst relative error of r/x/b on clean files {worst:.1e} "
        f"({worst_label}) over {count} files (<= {CLEAN_REL_TOL:.0e})",
    )


def same_bits(read: np.ndarray, expected: np.ndarray) -> bool:
    """Whether two float arrays have the same shape and the same bits."""
    return read.shape == expected.shape and np.array_equal(
        read.view(np.uint64), expected.view(np.uint64)
    )


def check_csv_bits(files: Iterable[tuple[str, bool]]) -> Check:
    """Each CSV read back equals the regenerated records bit for bit.

    Each item is (label, whether the values read from the file have the
    bits of the records regenerated in memory; see same_bits).
    """
    bad: list[str] = []
    count = 0
    for label, same in files:
        count += 1
        if not same:
            bad.append(label)
    ok = count > 0 and not bad
    detail = f"{count - len(bad)}/{count} files identical to the in-memory records"
    if bad:
        detail += f"; differ: {', '.join(bad)}"
    return Check("csv_bits", ok, detail)


def check_spans(seen: set[str], expected: set[str]) -> Check:
    """A traced round recorded a span for every function it must call."""
    missing = sorted(expected - seen)
    return Check(
        "trace_coverage", not missing,
        f"{len(expected) - len(missing)}/{len(expected)} expected spans recorded"
        + (f"; missing: {', '.join(missing)}" if missing else ""),
    )
