"""Information-theoretic EIV estimators: total error entropy and correntropy.

Both families score the normalized total error e = (y - Xw) / sqrt(||w||^2 +
eps0^-2), which accounts for noise in the regressors as well as the response.
MTEE ascends a Parzen estimate of the error's quadratic information
potential; MTC ascends the mean correntropy of the error; CMTC adds a linear
equality constraint through a per-step multiplier update.

All three run one fixed-step first-order ascent loop, each on one exact
kernel pass that yields the objective and its gradient together (the
objective and gradient functions are views of that pass).  MTEE's O(n^2)
pass takes each row block's pair differences from one rank-2 BLAS product,
exact bit for bit, evaluates exp once per pair and takes the rest from one
BLAS moment product per block; the moments are exact in real arithmetic,
not bit for bit equal to elementwise pair sums.  MTC's O(n) pass is two BLAS
products on a buffer set up once, exact in real arithmetic, not bit for bit.
When no step size is given, a stability-based step is derived from the local
curvature at the starting point; the divergence guard aborts runs whose
iterates blow up.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from ..line_model import EivProblem
from .config import (
    DIVERGENCE_NORM,
    DivergenceError,
    EstimateResult,
    EstimatorConfig,
    Trace,
)
from .tls import warm_start

__all__ = [
    "total_error",
    "mtee_objective",
    "mtee_gradient",
    "mtc_objective",
    "mtc_gradient",
]

# Pairwise kernel passes run over balanced row blocks of about this many
# entries so the working set stays cache resident at any n; cost is O(n^2)
# time, O(n + entries) space.
KERNEL_BLOCK_ENTRIES = 1 << 16


def total_error(problem: EivProblem, w: np.ndarray) -> np.ndarray:
    """Residual normalized by the total noise gain sqrt(||w||^2 + eps0^-2)."""
    w = np.asarray(w, dtype=float)
    scale = np.sqrt(w @ w + problem.eps0**-2)
    return (problem.y - problem.x @ w) / scale


def _block_rows(n: int) -> int:
    """Rows per block when n rows split into ceil(n^2 / KERNEL_BLOCK_ENTRIES) near-equal blocks."""
    return -(-n // -(-n * n // KERNEL_BLOCK_ENTRIES))


def _mtee_kernel(
    problem: EivProblem, sigma: float
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """The pass w -> (information potential, exact gradient) on one problem.

    The pairwise kernel has width sigma * sqrt(2) (sum of two width-sigma
    Parzen windows), normalized as a density.  Gradient:

        g = 1/(2 sigma^2 n^2) sum_ij K_ij [ d_ij^2 w / S + d_ij (x_i - x_j) / sqrt(S) ]

    with d_ij = e_i - e_j and S = ||w||^2 + eps0^-2.  As K is symmetric,
    the moments K1 = K 1 and Ke = K e (one BLAS product per row block)
    give rs = rowsum(K*d) = e*K1 - Ke, sum K d^2 = 2 e^T rs and the cross
    term 2 X^T rs.  The moments take a centred copy of e (d is shift
    invariant) so that e*K1 - Ke does not cancel, and the diagonal
    K_ii = 1, which adds nothing to rs, is left out of them so that their
    rounding follows the other pairs.  K itself takes d from the
    uncentred e: one rounding per difference instead of three, which
    matters in the tails, where exp turns a relative error in d into one
    of 2 |ln K| times that in K.  Each block's differences come from the
    rank-2 BLAS product [e_i, 1] @ [-1; e_j] = e_j - e_i: both products
    are exact, so the one rounded sum equals the subtraction bit for bit
    (sign aside, which d^2 drops), whatever the order or FMA use.

    The buffers, the views of each row block and the constants depend
    only on the problem and sigma, so an ascent sets them up once and
    each call runs only the arithmetic.  Neither the set-up nor the
    block's alignment changes a bit of the result.
    """
    x, y = problem.x, problem.y
    n = x.shape[0]
    inv_eps2 = problem.eps0**-2
    # rows -1, raw, 1, e, K1, Ke: [raw, 1] @ [-1; raw] is a block of pair
    # differences and [1; e] @ K^T its moments
    buf = np.empty((6, n))
    buf[0] = -1.0
    buf[2] = 1.0
    raw, e, k1, ke = buf[1], buf[3], buf[4], buf[5]
    right, basis = buf[0:2], buf[2:4]
    rows = _block_rows(n)
    # the block starts on a 64-byte boundary: its elementwise passes ran
    # 15-20% faster so at 200-400 rows (AVX-512 Xeon), every run alike
    spare = np.empty(rows * n + 7)
    start = -spare.ctypes.data % 64 // 8
    block = spare[start : start + rows * n].reshape(rows, n)
    blocks = []
    for lo in range(0, n, rows):
        k = block[: min(rows, n - lo)]
        cols = slice(lo, lo + rows)
        blocks.append((buf[1:3, cols].T, k, k.ravel()[lo :: n + 1], k.T, buf[4:6, cols]))
    coef = -0.25 / (sigma * sigma)
    norm = 1.0 / (2.0 * sigma * math.sqrt(math.pi))
    scale = norm / (sigma * sigma * n * n)

    def value_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
        s = float(w @ w) + inv_eps2
        root_s = math.sqrt(s)
        np.subtract(y, x @ w, out=raw)
        np.divide(raw, root_s, out=raw)
        np.subtract(raw, raw.sum() / n, out=e)
        for left, k, diagonal, k_t, moments in blocks:
            np.matmul(left, right, out=k)
            np.multiply(k, k, out=k)
            np.multiply(k, coef, out=k)
            np.exp(k, out=k)
            diagonal[:] = 0.0
            np.matmul(basis, k_t, out=moments)
        rs = e * k1
        rs -= ke
        grad = (scale / root_s) * (x.T @ rs) + (scale * float(e @ rs) / s) * w
        return (float(k1.sum()) + n) * norm / (n * n), grad

    return value_grad


def mtee_objective(problem: EivProblem, w: np.ndarray, sigma: float) -> float:
    """Parzen quadratic information potential of the total error (O(n^2))."""
    return _mtee_kernel(problem, sigma)(np.asarray(w, dtype=float))[0]


def mtee_gradient(problem: EivProblem, w: np.ndarray, sigma: float) -> np.ndarray:
    """Exact gradient of mtee_objective with respect to w."""
    return _mtee_kernel(problem, sigma)(np.asarray(w, dtype=float))[1]


def _lam_max(problem: EivProblem) -> float:
    x = problem.x
    gram = x.T @ x / x.shape[0]
    return float(np.linalg.eigvalsh(gram)[-1])


def _auto_step(problem: EivProblem, w0: np.ndarray, sigma: float, method: str) -> float:
    """Half the stability limit of the fixed-step iteration near w0.

    The local curvature of both objectives scales as lam_max(X^T X / n)
    divided by sigma^2 S (times the kernel peak for the entropy case), so
    half of 2 / curvature is a safe default step.
    """
    s0 = float(w0 @ w0 + problem.eps0**-2)
    lam = max(_lam_max(problem), 1e-30)
    if method == "mtee":
        peak = 1.0 / (2.0 * sigma * np.sqrt(np.pi))
        return sigma**2 * s0 / (peak * lam)
    return sigma**2 * s0 / lam


def _guard(w: np.ndarray, method: str, iteration: int) -> None:
    norm = math.sqrt(float(w @ w))
    if not math.isfinite(norm) or norm > DIVERGENCE_NORM:
        raise DivergenceError(
            f"{method} diverged at iteration {iteration}: ||w|| = {norm:.3e}"
        )


def _mtc_kernel(
    problem: EivProblem, sigma: float
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """The pass w -> (mean correntropy of the total error, exact gradient).

    J = mean c, c = exp(-e^2 / (2 sigma^2 S)), S = ||w||^2 + eps0^-2,
    e = y - Xw, and g = (S X^T (c e) + e^T (c e) w) / (n sigma^2 S^2).
    A (p+2, n) buffer set up once holds [y; X^T; e], so e = [1, -w] @ [y; X^T]
    and [X^T (c e); e^T (c e)] = [X^T; e] @ (c e) are two contiguous BLAS
    products, exact in real arithmetic, not bit for bit y - X @ w and X^T @ (c e).
    """
    n, p = problem.x.shape
    inv_eps2 = problem.eps0**-2
    sigma2 = sigma**2
    rows = np.empty((p + 2, n))
    rows[0] = problem.y
    rows[1 : p + 1] = problem.x.T
    y_x, x_e, e = rows[: p + 1], rows[1:], rows[p + 1]
    left, ce = np.ones(p + 1), np.empty(n)

    def value_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
        s = float(w @ w) + inv_eps2
        np.negative(w, out=left[1:])
        np.matmul(left, y_x, out=e)
        np.multiply(e, e, out=ce)
        np.multiply(ce, -0.5 / (sigma2 * s), out=ce)
        np.exp(ce, out=ce)
        value = float(ce.sum()) / n
        np.multiply(ce, e, out=ce)
        moments = x_e @ ce
        return value, (s * moments[:p] + float(moments[p]) * w) / (n * sigma2 * s**2)

    return value_grad


def mtc_objective(problem: EivProblem, w: np.ndarray, sigma: float) -> float:
    """Mean Gaussian correntropy of the normalized total error."""
    return _mtc_kernel(problem, sigma)(np.asarray(w, dtype=float))[0]


def mtc_gradient(problem: EivProblem, w: np.ndarray, sigma: float) -> np.ndarray:
    """Exact gradient of mtc_objective with respect to w."""
    return _mtc_kernel(problem, sigma)(np.asarray(w, dtype=float))[1]


def _ascent(problem: EivProblem, config: EstimatorConfig) -> EstimateResult:
    """The fixed-step ascent of config.method: mtee, mtc or cmtc.

    mtee ascends the information potential, mtc and cmtc the correntropy.
    cmtc follows each unconstrained step w + eta g with the multiplier
    correction eta * C * lambda,

        lambda = (1/eta) (C^T C)^{-1} (f - C^T w - eta C^T g),

    which lands every iterate exactly on the constraint set C^T w = f;
    mtee and mtc ignore the constraint.  Starts from warm_start and stops
    when the max-norm update is <= tol.
    """
    method = config.method
    sigma = float(config.kernel_sigma)
    value_grad = (_mtee_kernel if method == "mtee" else _mtc_kernel)(problem, sigma)
    constrained = method == "cmtc"
    if constrained:
        if problem.constraint is None:
            raise ValueError("cmtc requires a problem with an equality constraint")
        c_mat, f_vec = problem.constraint
        ctc_inv = np.linalg.inv(c_mat.T @ c_mat)
    w = warm_start(problem, config)
    step = config.step if config.step is not None else _auto_step(problem, w, sigma, method)
    # iterates are never updated in place, so the trace keeps references
    ws: list[np.ndarray] = []
    values: list[float] = []
    iterations = 0
    converged = False
    for r in range(config.max_iters):
        value, grad = value_grad(w)
        ws.append(w)
        values.append(value)
        w_next = w + step * grad
        if constrained:
            w_next = w_next + c_mat @ (ctc_inv @ (f_vec - c_mat.T @ w_next))
        _guard(w_next, method, r + 1)
        delta = max(map(abs, (w_next - w).tolist()))
        w = w_next
        iterations = r + 1
        if delta <= config.tol:
            converged = True
            break
    ws.append(w)
    values.append(value_grad(w)[0])
    return EstimateResult(
        method=method,
        w=w,
        iterations=iterations,
        converged=converged,
        trace=Trace(ws, values),
    )

