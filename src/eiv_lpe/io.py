"""Serialization: PMU record CSVs, noise models, manifests, bench configs.

PMU CSVs hold `t` as `%d` and the other eight columns as `%.17g` (not `repr`:
0.1 is written 0.10000000000000001), with CRLF line ends, so a write/read
round trip is bit-exact.  Config files are JSON with a versioned `schema`
field; unknown schema versions are rejected.  This module is the one owner
of the bench config format: it reads a file into a `BenchConfig` and writes
a `BenchConfig` back in the same layout for the bench manifest's echo.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from .estimators import EstimatorConfig
from .estimators.config import is_int, is_number
from .line_model import PMU_DTYPE, LineParameters
from .noise import GaussianNoise, GmmModel, GmmNoise, LaplacianNoise, NoiseModel
from .scenario import LoadRampProfile, Scenario

__all__ = [
    "BenchConfig",
    "ConfigError",
    "PMU_CSV_HEADER",
    "open_new",
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
    "bench_config_to_dict",
]

SCHEMA_VERSION = 1

PMU_CSV_HEADER = ["t", "vk_re", "vk_im", "vl_re", "vl_im", "ik_re", "ik_im", "il_re", "il_im"]


class ConfigError(ValueError):
    """Invalid configuration or data file."""


_JSON_KINDS = {list: "a list", dict: "an object", str: "a string", float: "a number"}


def _checked(value, kind: type, what: str):
    """`value` if it is a `kind` (float: any number but a bool); else a ConfigError."""
    if not (is_number(value) if kind is float else isinstance(value, kind)):
        raise ConfigError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


# The CSV columns viewed onto PMU_DTYPE: each complex field is its real part
# followed by its imaginary part, so the two dtypes share one memory layout.
_CSV_DTYPE = np.dtype(
    [(PMU_CSV_HEADER[0], np.int64)] + [(name, np.float64) for name in PMU_CSV_HEADER[1:]]
)
_CSV_BLOCK_ROWS = 1024  # rows per writelines call: few tolist calls, lists well under 1 MB


def open_new(path: str | Path, **kwargs) -> TextIO:
    """Open `path` for writing as a new file, passing `kwargs` to `open`.

    Whatever `path` names is unlinked first: a symlink there is replaced, not
    followed, and no file is truncated in place, which on ext4 can wait tens
    of ms for the old data's writeback.
    """
    Path(path).unlink(missing_ok=True)
    return open(path, "w", **kwargs)


def write_records_csv(records: np.recarray, path: str | Path) -> None:
    """Write a record window in the standard 9-column PMU CSV layout."""
    rows = records.view(np.ndarray).view(_CSV_DTYPE)
    # %-formatting the Python scalars of tolist() gives each cell np.savetxt's text
    format_row = ("%d" + ",%.17g" * 8 + "\r\n").__mod__
    with open_new(path, newline="") as fh:
        fh.write(",".join(PMU_CSV_HEADER) + "\r\n")
        for lo in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[lo : lo + _CSV_BLOCK_ROWS]
            fh.writelines(map(format_row, zip(*[block[name].tolist() for name in PMU_CSV_HEADER])))


def read_records_csv(path: str | Path) -> np.recarray:
    """Read a PMU CSV written by write_records_csv.

    Raises
    ------
    ConfigError
        If the file cannot be read, or on a missing or malformed header, no
        records, short rows, unparseable cells or non-finite (nan, inf) cells.
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
    records = values.view(PMU_DTYPE).view(np.recarray)
    finite = np.logical_and.reduce([np.isfinite(records[name]) for name in PMU_DTYPE.names[1:]])
    if not finite.all():
        raise ConfigError(f"non-finite cell in {path}, record {int(finite.argmin()) + 1}")
    return records


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
            return GaussianNoise(*(float(_checked(d[k], float, k)) for k in ("mu", "sigma")))
        if kind == "laplacian":
            return LaplacianNoise(*(float(_checked(d[k], float, k)) for k in ("mu", "scale")))
        if kind == "gmm":
            return GmmNoise(
                GmmModel(
                    *(np.asarray([_checked(v, float, f"each {k} value") for v in d[k]], dtype=float)
                      for k in ("weights", "means", "variances"))
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad noise model spec {d!r}: {exc}") from exc
    raise ConfigError(f"unknown noise type {kind!r}")


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "label": s.label,
        "line": asdict(s.line),
        "profile": asdict(s.profile),
        "noise": noise_to_dict(s.noise),
        "seed": s.seed,
    }


def scenario_from_dict(d: dict) -> Scenario:
    try:
        line_d = _checked(d["line"], dict, "line")
        line = LineParameters(**{k: float(_checked(v, float, k)) for k, v in line_d.items()})
        prof_d = dict(d.get("profile", {}))
        for key in ("vk_mag", "angle_spread", "ref_angle"):
            if key in prof_d:
                prof_d[key] = tuple(_checked(v, float, f"each {key} value") for v in prof_d[key])
        _checked(prof_d.get("sag_per_rad", 0.0), float, "sag_per_rad")
        return Scenario(
            label=d["label"],
            line=line,
            profile=LoadRampProfile(**prof_d),
            noise=noise_from_dict(d.get("noise")),
            seed=d.get("seed", 0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario spec: {exc}") from exc


# every EstimatorConfig field but w0, which only the API sets, is a config key
_ESTIMATOR_KEYS = {f.name for f in fields(EstimatorConfig)} - {"w0"}


def estimator_to_dict(e: EstimatorConfig) -> dict:
    """Every config-file knob of an estimator config (w0 is not one)."""
    return {key: getattr(e, key) for key in sorted(_ESTIMATOR_KEYS)}


def estimator_from_dict(d: dict) -> EstimatorConfig:
    unknown = set(_checked(d, dict, "an estimator entry")) - _ESTIMATOR_KEYS
    if unknown:
        raise ConfigError(f"unknown estimator keys {sorted(unknown)}")
    try:
        return EstimatorConfig(**d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad estimator spec {d!r}: {exc}") from exc


@dataclass
class BenchConfig:
    """One bench run: the grid of scenarios x estimators x seeds, and its outputs."""

    scenarios: list[Scenario]
    estimators: list[EstimatorConfig]
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: Path = Path("bench_out")
    jobs: int = 1
    plots: bool = True


def load_bench_config(path: str | Path) -> BenchConfig:
    """Parse and validate a bench config file.

    `output_dir` defaults to bench_out; `jobs` and `plots` are not config
    keys and keep their defaults.
    """
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if raw.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported config schema {raw.get('schema')!r}, expected {SCHEMA_VERSION}"
        )
    scenarios = [
        scenario_from_dict(s) for s in _checked(raw.get("scenarios", []), list, "scenarios")
    ]
    if not scenarios:
        raise ConfigError("config must define at least one scenario")
    labels = [s.label for s in scenarios]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"scenario labels must be unique, got {labels}")
    estimators = [
        estimator_from_dict(e) for e in _checked(raw.get("estimators", []), list, "estimators")
    ]
    if not estimators:
        raise ConfigError("config must define at least one estimator")
    methods = [e.method for e in estimators]
    if len(set(methods)) != len(methods):
        raise ConfigError(f"estimator methods must be unique, got {methods}")
    seeds = raw.get("seeds", [0])
    if not (isinstance(seeds, list) and seeds and all(is_int(s) and s >= 0 for s in seeds)):
        raise ConfigError(f"seeds must be a non-empty list of non-negative integers, got {seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must be unique, got {seeds}")
    config = BenchConfig(scenarios, estimators, seeds)
    output_dir = raw.get("output_dir")
    if output_dir is not None and _checked(output_dir, str, "output_dir"):  # "" keeps the default
        config.output_dir = Path(output_dir)
    return config


def bench_config_to_dict(config: BenchConfig) -> dict:
    """The run's grid in the bench config file format, as load_bench_config reads it."""
    return {
        "schema": SCHEMA_VERSION,
        "scenarios": [scenario_to_dict(s) for s in config.scenarios],
        "estimators": [estimator_to_dict(e) for e in config.estimators],
        "seeds": config.seeds,
    }
