"""Shared estimator configuration, results and error types."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..noise import GmmModel

__all__ = [
    "EstimatorConfig",
    "EstimateResult",
    "EgleMeta",
    "Trace",
    "EstimatorError",
    "DivergenceError",
    "METHODS",
]

METHODS = ("tls", "mtee", "mtc", "cmtc", "egle")

# Per-method default kernel widths and iteration caps.  Step sizes default to
# None, meaning a stability-based step is derived from the problem; the fixed
# literature values (mtee mu=0.5, mtc/cmtc eta=0.1) remain available through
# the `step` field.
_DEFAULT_SIGMA = {"mtee": 0.02, "mtc": 0.05, "cmtc": 0.05}
_DEFAULT_MAX_ITERS = {"mtee": 5_000, "mtc": 50_000, "cmtc": 50_000, "egle": 100}

DIVERGENCE_NORM = 1e6


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
    tol : stop when the max-norm parameter update falls below this.
    seed : drives the EM restarts inside egle; other methods ignore it.
    egle_m_max : largest mixture size tried by egle model selection.  The
        default of 2 keeps selection at the channel level; the net residual
        convolves the channel mixtures across columns and shows more modes
        than any single channel carries.
    egle_inner_tol : Newton solve tolerance inside one egle outer step.
    egle_outer_tol : parameter tolerance across egle outer iterations.
    """

    method: str
    w0: np.ndarray | None = None
    step: float | None = None
    kernel_sigma: float | None = None
    max_iters: int | None = None
    tol: float = 1e-10
    seed: int = 0
    egle_m_max: int = 2
    egle_inner_tol: float = 1e-10
    egle_outer_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.kernel_sigma is None:
            self.kernel_sigma = _DEFAULT_SIGMA.get(self.method)
        if self.max_iters is None:
            self.max_iters = _DEFAULT_MAX_ITERS.get(self.method, 1)
        if self.w0 is not None:
            self.w0 = np.asarray(self.w0, dtype=float)
        if self.kernel_sigma is not None and self.kernel_sigma <= 0:
            raise ValueError(f"kernel_sigma must be positive, got {self.kernel_sigma}")
        if self.step is not None and self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.egle_m_max < 1:
            raise ValueError(f"egle_m_max must be at least 1, got {self.egle_m_max}")


@dataclass
class EgleMeta:
    """Model-selection record attached to egle results."""

    m_star: int
    bic_by_m: dict[int, float]
    y_gmm: GmmModel
    x_gmm: GmmModel
    outer_iters_by_m: dict[int, int]
    converged_by_m: dict[int, bool]


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


def _empty_trace() -> Trace:
    return Trace(np.empty((0, 0)), np.empty(0))


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
    trace: Trace = field(default_factory=_empty_trace)
    elapsed: float = 0.0
    egle_meta: EgleMeta | None = None
