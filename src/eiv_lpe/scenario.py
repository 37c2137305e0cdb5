"""Synthetic PMU studies: load ramps, accuracy reports, scenario runner.

A scenario pairs a true line with a voltage trajectory (a monotone load
ramp) and a noise model.  The runner generates exact records, injects
seeded noise, builds the stacked regression and runs a list of estimator
configurations, reporting absolute relative errors against the truth.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .estimators import EstimateResult, EstimatorConfig, EstimatorError, estimate
from .estimators.config import is_int
from .line_model import (
    LineParameters,
    _complex,
    admittance_to_params,
    build_regression,
    params_to_admittance,
    simulate_records,
)
from .noise import NoiseModel

__all__ = [
    "LoadRampProfile",
    "Scenario",
    "AreReport",
    "ScenarioRun",
    "ConditioningWarning",
    "generate_true_records",
    "are",
    "initial_guess",
    "run_scenario",
    "stock_lines",
]

COND_WARN_LIMIT = 1e8


class ConditioningWarning(UserWarning):
    """Raised when a generated regression is nearly rank deficient."""


@dataclass(frozen=True)
class LoadRampProfile:
    """Linear ramp of the terminal voltages over a record window.

    The bus-k magnitude and the k-to-l angle difference are interpolated
    linearly from first to last record.  The bus-l magnitude follows the
    transfer ramp: it equals the bus-k magnitude minus a sag proportional
    to the angle difference (sag_per_rad, default 5% of magnitude per
    radian).  By default bus k is the angle reference; ref_angle adds an
    absolute reference drift shared by both ends (the k-l difference is
    unaffected), which widens the excitation of short windows.
    """

    n_records: int = 500
    vk_mag: tuple[float, float] = (1.00, 1.02)
    angle_spread: tuple[float, float] = (0.02, 0.12)
    sag_per_rad: float = 0.05
    ref_angle: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not (is_int(self.n_records) and self.n_records >= 1):
            raise ValueError(f"n_records must be a positive integer, got {self.n_records!r}")
        for name in ("vk_mag", "angle_spread", "ref_angle"):
            if len(getattr(self, name)) != 2:
                raise ValueError(f"{name} needs 2 values, got {getattr(self, name)!r}")
        # each range check is written so that NaN fails it
        for d in self.angle_spread:
            # 0.6 rad is about 34 degrees, well below the steady-state
            # transfer limit but wide enough for short-window studies
            if not abs(d) <= 0.6:
                raise ValueError(f"angle difference must stay within 0.6 rad, got {d}")
        if not np.isfinite(self.ref_angle).all():
            raise ValueError(f"ref_angle must be finite, got {self.ref_angle}")
        mags = np.concatenate(self._magnitudes())
        if not (mags.min() >= 0.9 and mags.max() <= 1.1):
            raise ValueError(
                f"terminal magnitudes must stay in [0.9, 1.1], got range "
                f"[{mags.min():.4g}, {mags.max():.4g}]"
            )

    def _fractions(self) -> np.ndarray:
        n = self.n_records
        return np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)

    def _ramp(self, pair: tuple[float, float]) -> np.ndarray:
        return pair[0] + (pair[1] - pair[0]) * self._fractions()

    def _magnitudes(self) -> tuple[np.ndarray, np.ndarray]:
        mag_k = self._ramp(self.vk_mag)
        return mag_k, mag_k * (1.0 - self.sag_per_rad * self._ramp(self.angle_spread))

    def voltages(self) -> tuple[np.ndarray, np.ndarray]:
        """Voltage phasor trajectories (vk, vl) as complex arrays."""
        mag_k, mag_l = self._magnitudes()
        ref = self._ramp(self.ref_angle)
        vk = _complex(mag_k * np.cos(ref), mag_k * np.sin(ref))
        angle_l = ref - self._ramp(self.angle_spread)
        return vk, _complex(mag_l * np.cos(angle_l), mag_l * np.sin(angle_l))


@dataclass(frozen=True)
class Scenario:
    """A labeled study: line truth, voltage profile, noise model, base seed."""

    label: str
    line: LineParameters
    profile: LoadRampProfile
    noise: NoiseModel | None
    seed: int = 0

    def __post_init__(self) -> None:
        if not is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        # the label names output files, so it must not be a path
        if self.label in ("", ".", "..") or any(c in self.label for c in "/\\\0"):
            raise ValueError(f"label must be a plain file name, got {self.label!r}")


@dataclass
class AreReport:
    """Absolute relative errors of the recovered line parameters r, x and b."""

    r: float
    x: float
    b: float


@dataclass
class ScenarioRun:
    """Per-estimator outcome inside one scenario run."""

    config: EstimatorConfig
    result: EstimateResult | None
    report: AreReport | None
    params: LineParameters | None
    error: str | None = None


def generate_true_records(scenario: Scenario) -> np.recarray:
    """Exact record window for the scenario's line along its voltage ramp.

    Emits ConditioningWarning when the induced regression matrix has a
    condition number above 1e8 (degenerate ramp).
    """
    vk, vl = scenario.profile.voltages()
    records = simulate_records(vk, vl, scenario.line)
    cond = np.linalg.cond(build_regression(records).x)
    if cond > COND_WARN_LIMIT:
        warnings.warn(
            f"regression condition number {cond:.3e} exceeds {COND_WARN_LIMIT:.0e}",
            ConditioningWarning,
        )
    return records


def are(estimated: LineParameters, true: LineParameters) -> AreReport:
    """Per-component absolute relative errors |est - true| / |true|.

    Raises
    ------
    ValueError
        If any referenced true component is zero.
    """
    vals = {}
    for name in ("r", "x", "b"):
        t = getattr(true, name)
        if t == 0:
            raise ValueError(f"true {name} is zero; relative error undefined")
        vals[name] = abs((getattr(estimated, name) - t) / t)
    return AreReport(**vals)


def initial_guess(line: LineParameters, seed: int) -> LineParameters:
    """Database-style starting parameters: truth times 1 +/- uniform(0.2)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    f = 1.0 + rng.uniform(-0.2, 0.2, size=3)
    return LineParameters(line.r * f[0], line.x * f[1], line.b * f[2])


def run_scenario(
    scenario: Scenario,
    configs: list[EstimatorConfig],
    seed: int | None = None,
) -> list[ScenarioRun]:
    """Run every estimator config against one noisy realization.

    The effective seed (argument overrides scenario.seed) drives both the
    noise draw and the perturbed starting guess, so a (scenario, configs,
    seed) triple is fully reproducible.  Every method gets the same
    problem, which carries the y1 + y3 = 0 constraint that cmtc and egle
    enforce, and every config without a w0 gets the perturbed guess (tls
    takes no start and ignores it).
    Estimator failures are captured per entry as "<ExceptionType>: <message>";
    the run continues.
    """
    from .noise import apply_noise

    eff_seed = scenario.seed if seed is None else seed
    clean = generate_true_records(scenario)
    records = clean if scenario.noise is None else apply_noise(clean, scenario.noise, eff_seed)
    problem = build_regression(records)
    guess = params_to_admittance(initial_guess(scenario.line, eff_seed))

    outcomes: list[ScenarioRun] = []
    for config in configs:
        cfg = config if config.w0 is not None else replace(config, w0=guess.copy())
        try:
            result = estimate(problem, cfg)
            params = admittance_to_params(result.w)
            report = are(params, scenario.line)
            outcomes.append(ScenarioRun(cfg, result, report, params))
        except (EstimatorError, ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            outcomes.append(ScenarioRun(cfg, None, None, None, error=error))
    return outcomes


# Ten high-voltage line labels used by the stock benchmark.  All share one
# set of true parameters so cross-line comparisons isolate estimator
# behavior rather than line geometry.
_STOCK_LABELS = (
    "L_64-65",
    "L_47-49",
    "L_49-50",
    "L_51-52",
    "L_54-56",
    "L_59-60",
    "L_62-66",
    "L_68-69",
    "L_75-77",
    "L_80-96",
)

_STOCK_TRUTH = LineParameters(r=0.00269, x=0.0302, b=0.3800)


def stock_lines() -> dict[str, LineParameters]:
    """Labeled stock lines for the benchmark CLI."""
    return {label: _STOCK_TRUTH for label in _STOCK_LABELS}
