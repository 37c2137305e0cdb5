"""Pi-model transmission line physics and the stacked phasor regression.

A line between buses k and l is described by series impedance r + jx and
total shunt susceptance 2b (b at each end).  Steady-state relations between
the bus voltage and branch current phasors are linear in the four real
admittance unknowns, so a window of synchrophasor records can be rearranged
into a real-valued regression problem whose coefficient vector maps back to
(r, x, b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "LineParameters",
    "PMU_DTYPE",
    "EivProblem",
    "branch_currents",
    "params_to_admittance",
    "admittance_to_params",
    "build_regression",
    "CONSTRAINT_C",
    "CONSTRAINT_F",
]

# Equality constraint on the admittance vector: y1 + y3 = 0 for a symmetric
# pi-model line.  Shape (p, c) with c = 1.
CONSTRAINT_C = np.array([[1.0], [0.0], [1.0], [0.0]])
CONSTRAINT_F = np.array([0.0])

# One synchronized snapshot of the four terminal phasors.  A window of
# records is an np.recarray of this dtype: records.vk is the vk column, and
# iterating yields per-record objects with .t, .vk, ... fields.
PMU_DTYPE = np.dtype(
    [("t", np.int64), ("vk", np.complex128), ("vl", np.complex128),
     ("ik", np.complex128), ("il", np.complex128)]
)


@dataclass(frozen=True)
class LineParameters:
    """Series resistance r, series reactance x and shunt susceptance b (p.u.)."""

    r: float
    x: float
    b: float

    def __post_init__(self) -> None:
        for name in ("r", "x", "b"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"line parameter {name} must be finite, got {v!r}")
        if self.r < 0:
            raise ValueError(f"series resistance must be non-negative, got {self.r}")
        if self.r == 0 and self.x == 0:
            raise ValueError("series impedance must be nonzero")


@dataclass
class EivProblem:
    """Real regression y ~ X w with noise in both sides.

    Attributes
    ----------
    x : (n, p) float array of noisy regressors.
    y : (n,) float array of noisy responses.
    constraint : optional (C, f) pair encoding the equality C^T w = f.
    eps0 : ratio of response to regressor noise intensity (1 = equal).
    """

    x: np.ndarray
    y: np.ndarray
    constraint: tuple[np.ndarray, np.ndarray] | None = None
    eps0: float = 1.0

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2:
            raise ValueError("x must be a 2-d array")
        n, p = self.x.shape
        if self.y.shape != (n,):
            raise ValueError(f"y must have shape ({n},), got {self.y.shape}")
        if n < p:
            raise ValueError(f"need at least p={p} rows, got {n}")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("regression data must be finite")
        if not 0 < self.eps0 < np.inf:  # NaN fails too
            raise ValueError(f"eps0 must be positive and finite, got {self.eps0}")
        if self.constraint is not None:
            c, f = self.constraint
            c = np.asarray(c, dtype=float)
            f = np.asarray(f, dtype=float)
            if c.ndim != 2 or c.shape[0] != p or f.shape != (c.shape[1],):
                raise ValueError("constraint shapes must be (p, c) and (c,)")
            self.constraint = (c, f)


def series_admittance(params: LineParameters) -> complex:
    """Complex series admittance y_kl = 1 / (r + jx)."""
    return 1.0 / complex(params.r, params.x)


def _times(a: complex, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of a * v, rounded as Python's complex product.

    NumPy's complex multiply rounds differently in the last bit on some
    inputs; spelling the product out keeps records equal to the scalar
    formula bit for bit.
    """
    return a.real * v.real - a.imag * v.imag, a.real * v.imag + a.imag * v.real


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex array from its parts; re + 1j*im would turn -0.0 imaginary parts into +0.0."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def branch_currents(
    vk: complex | np.ndarray, vl: complex | np.ndarray, params: LineParameters
) -> tuple[complex | np.ndarray, complex | np.ndarray]:
    """Terminal current phasors (ik, il) of the pi-model line.

    ik = (y_kl + jb) vk - y_kl vl and symmetrically for il, with half the
    total shunt susceptance lumped at each terminal.  vk and vl may be
    scalars or equal-shape arrays; the result has their shape.
    """
    y = series_admittance(params)
    y_shunt = y + complex(0.0, params.b)
    vk = np.asarray(vk, dtype=complex)
    vl = np.asarray(vl, dtype=complex)
    (ak, bk), (al, bl) = _times(y_shunt, vk), _times(y, vl)
    ik = _complex(ak - al, bk - bl)
    (ak, bk), (al, bl) = _times(y_shunt, vl), _times(y, vk)
    il = _complex(ak - al, bk - bl)
    return ik[()], il[()]


def params_to_admittance(params: LineParameters) -> np.ndarray:
    """Map (r, x, b) to the regression coefficient vector (y1, y2, y3, y4).

    y1 = Re(y_kl), y2 = -(b + Im(y_kl)), y3 = -Re(y_kl), y4 = Im(y_kl)
    where y_kl = 1 / (r + jx).  A physical line satisfies y1 + y3 = 0.
    """
    y = series_admittance(params)
    g, by = y.real, y.imag
    return np.array([g, -(params.b + by), -g, by])


def admittance_to_params(w: ArrayLike) -> LineParameters:
    """Recover (r, x, b) from an estimated coefficient vector.

    The inverse uses the symmetric combination (y1 - y3) / 2 for the series
    conductance so unconstrained estimates (y1 + y3 != 0) remain well defined.

    Raises
    ------
    ValueError
        If w does not have shape (4,), or the implied series admittance is
        numerically zero.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (4,):
        raise ValueError(f"admittance vector must have shape (4,), got {w.shape}")
    y1, y2, y3, y4 = w
    den = (y1 - y3) ** 2 + (2.0 * y4) ** 2
    if den < 1e-24:
        raise ValueError("estimated series admittance is numerically zero")
    r = 2.0 * (y1 - y3) / den
    x = -4.0 * y4 / den
    b = -(y2 + y4)
    return LineParameters(r, x, b)


def simulate_records(
    vk: np.ndarray, vl: np.ndarray, params: LineParameters
) -> np.recarray:
    """Build an exact record window from voltage phasor trajectories."""
    if vk.shape != vl.shape:
        raise ValueError("voltage trajectories must have equal length")
    ik, il = branch_currents(vk, vl, params)
    return np.rec.fromarrays([np.arange(len(vk)), vk, vl, ik, il], dtype=PMU_DTYPE)


def build_regression(records: np.recarray) -> EivProblem:
    """Stack a PMU record window into the 4-rows-per-record real regression.

    Per record, in order: Re(ik), Im(ik), Re(il), Im(il) regressed on the
    voltage components arranged so that one coefficient vector serves all
    four rows.  Row layout for record (vk, vl):

        [Re vk,  Im vk,  Re vl,  Im vl]   ->  Re ik
        [Im vk, -Re vk,  Im vl, -Re vl]   ->  Im ik
        [Re vl,  Im vl,  Re vk,  Im vk]   ->  Re il
        [Im vl, -Re vl,  Im vk, -Re vk]   ->  Im il

    The problem carries the pi-line constraint y1 + y3 = 0 as
    (CONSTRAINT_C, CONSTRAINT_F); tls, mtee and mtc ignore it, and cmtc
    and egle enforce it.
    """
    if len(records) == 0:
        raise ValueError("need at least one record")
    a, b = records.vk.real, records.vk.imag
    c, d = records.vl.real, records.vl.imag
    stencils = [[a, b, c, d], [b, -a, d, -c], [c, d, a, b], [d, -c, b, -a]]
    x = np.array(stencils).transpose(2, 0, 1).reshape(-1, 4)
    ik, il = records.ik, records.il
    y = np.stack([ik.real, ik.imag, il.real, il.imag], axis=1).ravel()
    return EivProblem(x, y, constraint=(CONSTRAINT_C.copy(), CONSTRAINT_F.copy()))
