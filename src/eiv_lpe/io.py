"""Serialization: PMU record CSVs, noise models, manifests, bench configs.

CSV values are written with repr-level precision (17 significant digits) so
a write/read round trip is exact.  Config files are JSON with a versioned
`schema` field; unknown schema versions are rejected.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .estimators import EstimatorConfig
from .line_model import PMU_DTYPE, LineParameters
from .noise import GaussianNoise, GmmModel, GmmNoise, LaplacianNoise, NoiseModel
from .scenario import LoadRampProfile, Scenario

__all__ = [
    "ConfigError",
    "PMU_CSV_HEADER",
    "write_records_csv",
    "read_records_csv",
    "read_json",
    "noise_to_dict",
    "noise_from_dict",
    "scenario_to_dict",
    "scenario_from_dict",
    "estimator_to_dict",
    "estimator_from_dict",
    "load_bench_config",
]

SCHEMA_VERSION = 1

PMU_CSV_HEADER = ["t", "vk_re", "vk_im", "vl_re", "vl_im", "ik_re", "ik_im", "il_re", "il_im"]


class ConfigError(ValueError):
    """Invalid configuration or data file."""


# The CSV columns viewed onto PMU_DTYPE: each complex field is its real part
# followed by its imaginary part, so the two dtypes share one memory layout.
_CSV_DTYPE = np.dtype(
    [(PMU_CSV_HEADER[0], np.int64)] + [(name, np.float64) for name in PMU_CSV_HEADER[1:]]
)


def write_records_csv(records: np.recarray, path: str | Path) -> None:
    """Write a record window in the standard 9-column PMU CSV layout."""
    # savetxt formats row by row; rows of a plain ndarray are read in C,
    # where np.record rows would go through Python-level field access
    rows = records.view(np.ndarray).view(_CSV_DTYPE)
    np.savetxt(
        path, rows, fmt=["%d"] + ["%.17g"] * 8, delimiter=",",
        newline="\r\n", header=",".join(PMU_CSV_HEADER), comments="",
    )


def read_records_csv(path: str | Path) -> np.recarray:
    """Read a PMU CSV written by write_records_csv.

    Raises
    ------
    ConfigError
        If the file cannot be read, or on a missing or malformed header, no
        records, short rows or unparseable cells.
    """
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            if header != PMU_CSV_HEADER:
                raise ConfigError(f"bad PMU CSV header in {path}: {header}")
            first = fh.readline()
            while first.isspace():  # loadtxt skips blank lines as well
                first = fh.readline()
            if not first:
                raise ConfigError(f"no records in {path}")
            try:
                values = np.loadtxt(
                    chain([first], fh), dtype=_CSV_DTYPE, delimiter=",", ndmin=1
                )
            except ValueError as exc:
                raise ConfigError(f"bad PMU CSV row in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read PMU CSV {path}: {exc}") from exc
    return values.view(PMU_DTYPE).view(np.recarray)


def read_json(path: str | Path) -> Any:
    """Parse a JSON file, raising ConfigError when it is missing or malformed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def noise_to_dict(model: NoiseModel | None) -> dict | None:
    if model is None:
        return None
    if isinstance(model, GaussianNoise):
        return {"type": "gaussian", "mu": model.mu, "sigma": model.sigma}
    if isinstance(model, LaplacianNoise):
        return {"type": "laplacian", "mu": model.mu, "scale": model.scale}
    if isinstance(model, GmmNoise):
        gm = model.model
        return {
            "type": "gmm",
            "weights": list(gm.weights),
            "means": list(gm.means),
            "variances": list(gm.variances),
        }
    raise ConfigError(f"unknown noise model {model!r}")


def noise_from_dict(d: dict | None) -> NoiseModel | None:
    if d is None:
        return None
    try:
        kind = d["type"]
        if kind == "gaussian":
            return GaussianNoise(float(d["mu"]), float(d["sigma"]))
        if kind == "laplacian":
            return LaplacianNoise(float(d["mu"]), float(d["scale"]))
        if kind == "gmm":
            return GmmNoise(
                GmmModel(
                    np.asarray(d["weights"], dtype=float),
                    np.asarray(d["means"], dtype=float),
                    np.asarray(d["variances"], dtype=float),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad noise model spec {d!r}: {exc}") from exc
    raise ConfigError(f"unknown noise type {kind!r}")


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "label": s.label,
        "line": {"r": s.line.r, "x": s.line.x, "b": s.line.b},
        "profile": {
            "n_records": s.profile.n_records,
            "vk_mag": list(s.profile.vk_mag),
            "angle_spread": list(s.profile.angle_spread),
            "sag_per_rad": s.profile.sag_per_rad,
            "ref_angle": list(s.profile.ref_angle),
        },
        "noise": noise_to_dict(s.noise),
        "seed": s.seed,
    }


def scenario_from_dict(d: dict) -> Scenario:
    try:
        line = LineParameters(**{k: float(v) for k, v in d["line"].items()})
        prof_d = dict(d.get("profile", {}))
        for key in ("vk_mag", "angle_spread", "ref_angle"):
            if key in prof_d:
                prof_d[key] = tuple(prof_d[key])
        profile = LoadRampProfile(**prof_d)
        return Scenario(
            label=str(d["label"]),
            line=line,
            profile=profile,
            noise=noise_from_dict(d.get("noise")),
            seed=int(d.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario spec: {exc}") from exc


_ESTIMATOR_KEYS = {
    "method", "step", "kernel_sigma", "max_iters", "tol", "seed",
    "egle_m_max", "egle_inner_tol", "egle_outer_tol",
}


def estimator_to_dict(e: EstimatorConfig) -> dict:
    """Every knob of an estimator config; w0 only when one is set."""
    d = {key: getattr(e, key) for key in sorted(_ESTIMATOR_KEYS)}
    if e.w0 is not None:
        d["w0"] = e.w0.tolist()
    return d


def estimator_from_dict(d: dict) -> EstimatorConfig:
    unknown = set(d) - _ESTIMATOR_KEYS
    if unknown:
        raise ConfigError(f"unknown estimator keys {sorted(unknown)}")
    try:
        return EstimatorConfig(**d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad estimator spec {d!r}: {exc}") from exc


def load_bench_config(path: str | Path) -> dict[str, Any]:
    """Parse and validate a bench config file into plain objects.

    Returns a dict with keys: scenarios (list[Scenario]), estimators
    (list[EstimatorConfig]), seeds (list[int]), output_dir (str | None).
    """
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if raw.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported config schema {raw.get('schema')!r}, expected {SCHEMA_VERSION}"
        )
    scenarios = [scenario_from_dict(s) for s in raw.get("scenarios", [])]
    if not scenarios:
        raise ConfigError("config must define at least one scenario")
    labels = [s.label for s in scenarios]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"scenario labels must be unique, got {labels}")
    estimators = [estimator_from_dict(e) for e in raw.get("estimators", [])]
    if not estimators:
        raise ConfigError("config must define at least one estimator")
    seeds = [int(s) for s in raw.get("seeds", [0])]
    if not seeds:
        raise ConfigError("seeds must be non-empty when given")
    return {
        "scenarios": scenarios,
        "estimators": estimators,
        "seeds": seeds,
        "output_dir": raw.get("output_dir"),
    }
