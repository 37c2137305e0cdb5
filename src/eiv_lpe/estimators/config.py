"""Shared estimator configuration, results and error types."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..noise import GmmModel

__all__ = [
    "EstimatorConfig",
    "EstimateResult",
    "EgleCandidate",
    "EgleMeta",
    "Trace",
    "EstimatorError",
    "DivergenceError",
    "METHODS",
    "CONSTRAINED_METHODS",
]

METHODS = ("tls", "mtee", "mtc", "cmtc", "egle")
# the methods that take the problem with its y1 + y3 = 0 constraint attached
CONSTRAINED_METHODS = ("cmtc", "egle")

# Per-method default kernel widths, iteration caps and stopping tolerances
# (egle's is across outer iterations).  Step sizes default to None, meaning a
# stability-based step is derived from the problem; the fixed literature
# values (mtee mu=0.5, mtc/cmtc eta=0.1) remain available through the `step`
# field.
_DEFAULT_SIGMA = {"mtee": 0.02, "mtc": 0.05, "cmtc": 0.05}
_DEFAULT_MAX_ITERS = {"mtee": 5_000, "mtc": 50_000, "cmtc": 50_000, "egle": 100}
_DEFAULT_TOL = {"egle": 1e-6}

DIVERGENCE_NORM = 1e6


def is_int(value) -> bool:
    """True for Python and NumPy integers; bool, float and str are not counts."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value) -> bool:
    """True for Python and NumPy integers and floats; bool and str are not numbers."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def checked_w0(config: EstimatorConfig, p: int) -> np.ndarray | None:
    """A copy of config.w0 for a p-column problem, or None when it is unset.

    Raises
    ------
    ValueError
        If w0 does not have shape (p,).
    """
    if config.w0 is None:
        return None
    w0 = np.asarray(config.w0, dtype=float).copy()
    if w0.shape != (p,):
        raise ValueError(f"w0 must have shape ({p},)")
    return w0


class EstimatorError(RuntimeError):
    """Raised when an estimator cannot produce a solution."""


class DivergenceError(EstimatorError):
    """Raised when an iterate norm exceeds the divergence guard."""


@dataclass
class EstimatorConfig:
    """Knobs for one estimator run.

    Attributes
    ----------
    method : one of METHODS.
    w0 : optional starting vector for the iterative methods.
    step : gradient step size; None derives a stable step from the data.
    kernel_sigma : Gaussian kernel width for the entropy/correntropy methods.
    max_iters : iteration cap (outer-loop cap for egle).
    tol : stop when the max-norm parameter update falls below this (1e-6
        for egle, 1e-10 otherwise).
    seed : drives the EM restarts inside egle; other methods ignore it.
    egle_m_max : largest mixture size tried by egle model selection.  The
        default of 2 keeps selection at the channel level; the net residual
        convolves the channel mixtures across columns and shows more modes
        than any single channel carries.
    """

    method: str
    w0: np.ndarray | None = None
    step: float | None = None
    kernel_sigma: float | None = None
    max_iters: int | None = None
    tol: float | None = None
    seed: int = 0
    egle_m_max: int = 2

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.kernel_sigma is None:
            self.kernel_sigma = _DEFAULT_SIGMA.get(self.method)
        if self.max_iters is None:
            self.max_iters = _DEFAULT_MAX_ITERS.get(self.method, 1)
        if self.tol is None:
            self.tol = _DEFAULT_TOL.get(self.method, 1e-10)
        if self.w0 is not None:
            self.w0 = np.asarray(self.w0, dtype=float)
        for name in ("kernel_sigma", "step", "tol"):
            value = getattr(self, name)
            if value is not None and not is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if value is not None and not value > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {value}")
        for name in ("max_iters", "egle_m_max"):
            value = getattr(self, name)
            if not is_int(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class Trace(Sequence):
    """The iterates of one estimator run, as a sequence of (w, objective) pairs.

    The pairs are stored as one (k, p) array of iterates, `w`, and one (k,)
    array of objective values, `objective` (built from lists of either on
    construction).  `trace[i]` is the pair (w[i], float(objective[i])),
    with w[i] a row view; a slice is a Trace.
    """

    w: np.ndarray
    objective: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        objective = np.asarray(self.objective, dtype=float)
        if w.ndim != 2 or objective.shape != (w.shape[0],):
            raise ValueError(
                f"trace needs (k, p) iterates and k objectives, got {w.shape} and {objective.shape}"
            )
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "objective", objective)

    def __len__(self) -> int:
        return self.objective.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self.w[index], self.objective[index])
        return self.w[index], float(self.objective[index])

    def __iter__(self):
        return zip(self.w, self.objective.tolist())


@dataclass(frozen=True, eq=False)
class EgleCandidate:
    """egle's run for one mixture order m: w, trace, outer_iters and converged
    as on an `EstimateResult`; a failed run has bic = inf, its error in
    `failure`, and None for a mixture it never fitted."""

    m: int
    w: np.ndarray
    trace: Trace
    outer_iters: int
    converged: bool
    bic: float
    y_gmm: GmmModel | None
    x_gmm: GmmModel | None
    failure: str | None


@dataclass
class EgleMeta:
    """egle's selected mixture order and its candidates, ordered by m from 1."""

    m_star: int
    candidates: tuple[EgleCandidate, ...]

    @property
    def outer_iters_by_m(self) -> dict[int, int]:
        """Outer iterations per m, kept because perfbench/tracing.py reads it and
        the benchmark harness changes only on its own; drop once it reads `candidates`."""
        return {c.m: c.outer_iters for c in self.candidates}


@dataclass
class EstimateResult:
    """Outcome of a single estimator run.

    `trace` holds one (w, objective) pair per iterate including the starting
    point, so len(trace) == iterations + 1; for egle an iterate is one outer
    iteration of the selected m and its objective the standardized SSE.  It
    is a `Trace`: the iterates as one (k, p) array and the objectives as one
    (k,) array, indexed and iterated like a list of pairs.
    """

    method: str
    w: np.ndarray
    iterations: int
    converged: bool
    trace: Trace
    elapsed: float = 0.0
    egle_meta: EgleMeta | None = None
