"""Trilateration estimators on the line-of-position system: ordinary least
squares, weighted least squares with log-normal ranging variances, and a
robust l1 solver via iteratively reweighted least squares.

Each estimator comes twice: for one :class:`LinearSystem` (``ls_solve``,
``wls_solve``, ``huber_irls``), and for a stack of right-hand sides against
one :class:`LopMatrix` (``solve_stack``, ``huber_stack``). The stacked forms
give each system the bits its one-system form gives: numpy's stacked
``matmul``, ``cond``, ``solve`` and ``inv`` call the same BLAS or LAPACK
routine once per matrix. Where the one-system form raises, the stacked form
records the same error for that system alone, in an object array that
holds ``None`` for the systems that solved. The rss rows and the hybrid
trilateration fixes (a stack of one system) both solve through the stacked
forms; the one-system forms are the reference the tests hold them to.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, lognormal_sigma_d
from .errors import LengthMismatch, NumericOverflow, SingularSystem
from .geometry import LinearSystem, LopMatrix

MAX_CONDITION = 1e12
HUBER_MAX_ITER = 50  # IRLS passes before huber_irls and huber_stack stop
HUBER_TOL = 1e-6  # a pass that moves the position less than this is the last
_SINGULAR = "normal equations condition number exceeds 1e12"
_DEGENERATE = "ranging variance leaves the float range; WLS weights are degenerate"


@dataclass(frozen=True)
class EstimatorReport:
    """Solver outcome: position, iteration count, and final residual norm."""

    position: np.ndarray
    iterations: int
    final_residual_norm: float


def _solve_normal(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the normal equations ``gram p = rhs`` unless they are ill-conditioned."""
    if np.linalg.cond(gram) > MAX_CONDITION:
        raise SingularSystem(_SINGULAR)
    return np.linalg.solve(gram, rhs)


def ls_solve(system: LinearSystem) -> np.ndarray:
    """Least-squares node position (A^T A)^-1 A^T b."""
    a, b = system
    return _solve_normal(a.T @ a, a.T @ b)


def wls_weights(model: ChannelModel, est_distances) -> np.ndarray:
    """Weight matrix for the LOP system built from S anchor range estimates.

    The right-hand side entry for the pair (anchor i, last anchor) carries
    the ranging variance Var(d_i^2) + Var(d_S^2). Under the log-normal
    channel,

        Var(d^2) = exp(4 mu)(exp(8 s^2) - exp(4 s^2)),
        mu = ln(d_est), s = sigma_db ln(10) / (10 eta).

    The weight matrix is the inverse of the diagonal of that covariance
    (rows are treated as independent; with equal anchor distances the
    weights collapse to a multiple of the identity and WLS reduces to
    plain LS). With sigma_db = 0 every variance vanishes and the identity
    is returned.

    Raises ``NumericOverflow`` when a variance or weight leaves the float
    range (shadowing beyond about 41 eta dB, or ranges near 1e77 or 1e-77).
    """
    d = np.asarray(est_distances, dtype=float)
    if d.ndim != 1 or d.size < 3:
        raise LengthMismatch("need estimated distances for at least 3 anchors")
    if np.any(d <= 0):
        raise ValueError("distances must be positive")
    weights, failed = wls_row_weights(model, d[None])
    if failed[0] is not None:
        raise failed[0]
    return np.diag(weights[0])


def wls_row_weights(model: ChannelModel, distances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of :func:`wls_weights` for each row of a (T, S) block of ranges.

    Returns the (T, S-1) weights and, per row, the ``NumericOverflow`` that
    ``wls_weights`` raises for it, or ``None``. The ranges are not checked.
    """
    rows, cols = distances.shape[0], distances.shape[1] - 1
    sigma_d = lognormal_sigma_d(model)
    if sigma_d == 0.0:
        return np.ones((rows, cols)), np.full(rows, None, dtype=object)
    try:
        spread = math.exp(8.0 * sigma_d**2) - math.exp(4.0 * sigma_d**2)
    except OverflowError:
        error = NumericOverflow(f"ranging variance overflows at {model.sigma_db:g} dB")
        return np.full((rows, cols), np.nan), np.full(rows, error, dtype=object)
    var = np.exp(4.0 * np.log(distances)) * spread
    weights = 1.0 / (var[:, :-1] + var[:, -1:])
    failed = np.full(rows, None, dtype=object)
    failed[~np.all((weights > 0) & (weights < math.inf), axis=1)] = NumericOverflow(_DEGENERATE)
    return weights, failed


def wls_solve(system: LinearSystem, weights: np.ndarray) -> np.ndarray:
    """Weighted least-squares position (A^T W A)^-1 A^T W b."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (system.A.shape[0], system.A.shape[0]):
        raise LengthMismatch(
            f"weight matrix {w.shape} does not match {system.A.shape[0]} rows"
        )
    if not np.allclose(w, w.T, rtol=1e-8, atol=1e-12):
        raise ValueError("weight matrix must be symmetric")
    if np.any(np.linalg.eigvalsh(w) <= 0):
        raise ValueError("weight matrix must be positive definite")
    a, b = system
    return _solve_normal(a.T @ w @ a, a.T @ w @ b)


def huber_irls(
    system: LinearSystem,
    epsilon: float = 1e-3,
    max_iter: int = HUBER_MAX_ITER,
    tol: float = HUBER_TOL,
    initial_weights: np.ndarray | None = None,
) -> EstimatorReport:
    """Robust l1 solve of the LOP system by iteratively reweighted LS.

    Each pass solves a weighted least-squares problem with per-row weights
    1/(|e_i| + epsilon) from the previous residuals, which drives the
    iterates toward the minimizer of sum |e_i|; epsilon smooths the weight
    near zero residual and sets the size of the quadratic zone (residuals
    below epsilon are treated least-squares-like, larger ones get the
    linear l1 treatment). Iteration stops when the position moves less
    than ``tol`` or after ``max_iter`` passes (non-convergence is visible
    as ``iterations == max_iter``, not an error).

    When ``initial_weights`` (the WLS matrix) is given, the first iterate
    is the WLS solution and residuals are standardized by the per-row
    stds implied by those weights before reweighting, so the robust loss
    is applied to comparably-scaled rows and epsilon is expressed in
    standardized units. Under purely Gaussian noise this tracks the WLS
    solution; heavy-tailed rows still get downweighted.

    A pass applies its weights by scaling the columns of A^T, ``(A^T * w) A``,
    instead of building ``diag(w)``: the products that form leaves out are
    exact zeros, so with the scaled matrix in C order (the layout the
    product with ``diag(w)`` has) the normal equations are bit for bit
    those of ``A^T diag(w) A``. Each pass keeps the condition-number check of the LS
    and WLS solves and raises ``SingularSystem`` past 1e12.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    a, b = system.A, system.b
    if initial_weights is not None:
        pos = wls_solve(system, initial_weights)
        row_std = np.sqrt(np.diag(np.linalg.inv(initial_weights)))
    else:
        pos = ls_solve(system)
        row_std = np.ones(a.shape[0])
    iterations = 0
    for _ in range(max_iter):
        resid = (a @ pos - b) / row_std
        # C order, the layout of A^T diag(w): BLAS then sums in the same order
        scaled = np.multiply(a.T, 1.0 / (np.abs(resid) + epsilon) / row_std**2, order="C")
        new_pos = _solve_normal(scaled @ a, scaled @ b)
        iterations += 1
        step = float(np.linalg.norm(new_pos - pos))
        pos = new_pos
        if step < tol:
            break
    return EstimatorReport(
        position=pos,
        iterations=iterations,
        final_residual_norm=float(np.linalg.norm(a @ pos - b)),
    )


def solve_stack(
    lop: LopMatrix,
    b: np.ndarray,
    weights: np.ndarray | None = None,
    failed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``A p = b_t`` for each row of ``b`` (T, S-1), ``A = lop.A``.

    Without ``weights`` each system is :func:`ls_solve`'s, from the ``A^T A``
    and condition number ``lop`` holds; with (T, S-1) row weights it is
    :func:`wls_solve`'s with ``diag(weights[t])``, the weights applied by
    scaling the columns of ``A^T`` as in :func:`huber_irls`. Systems that
    ``failed`` already marks are left alone. Returns the (T, 2) positions,
    NaN where a system failed, and the failures updated with each system
    the condition check rejects.
    """
    failed = np.full(len(b), None, dtype=object) if failed is None else failed.copy()
    live = np.flatnonzero(np.equal(failed, None))
    if weights is None:
        gram = lop.gram
        singular = np.full(live.size, lop.gram_cond > MAX_CONDITION)
        rhs = lop.A.T @ b[live, :, None]
    else:
        scaled = np.multiply(lop.A.T, weights[live, None, :], order="C")
        gram, rhs = scaled @ lop.A, scaled @ b[live, :, None]
        singular = np.linalg.cond(gram) > MAX_CONDITION
        gram = gram[~singular]
    failed[live[singular]] = SingularSystem(_SINGULAR)
    pos = np.full((len(b), 2), np.nan)
    pos[live[~singular]] = np.linalg.solve(gram, rhs[~singular])[..., 0]
    return pos, failed


def huber_stack(
    lop: LopMatrix,
    b: np.ndarray,
    epsilon: float,
    weights: np.ndarray | None = None,
    failed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`huber_irls` for each row of ``b`` (T, S-1), with ``diag(weights[t])``
    as the initial weights when ``weights`` is given, and ``huber_irls``'s default
    ``HUBER_MAX_ITER`` and ``HUBER_TOL``.

    Each system iterates while it is still moving, so it stops at the pass
    it stops at alone; one that fails the condition check in any pass drops
    out with that failure. Returns positions and failures as
    :func:`solve_stack` does.
    """
    a = lop.A
    pos, failed = solve_stack(lop, b, weights, failed)
    moving = np.equal(failed, None)
    row_std = np.ones_like(b)
    if weights is not None:  # huber_irls's sqrt(diag(inv(W))), one LAPACK inverse per system
        w = weights[moving]
        inverse = np.linalg.inv(w[:, :, None] * np.eye(w.shape[1]))
        row_std[moving] = np.sqrt(np.diagonal(inverse, axis1=1, axis2=2))
    for _ in range(HUBER_MAX_ITER):
        live = np.flatnonzero(moving)
        if live.size == 0:
            break
        std = row_std[live]
        resid = ((a @ pos[live, :, None])[..., 0] - b[live]) / std
        new, new_failed = solve_stack(lop, b[live], 1.0 / (np.abs(resid) + epsilon) / std**2)
        delta = new - pos[live]
        # a 1x2 @ 2x1 product is the BLAS dot product np.linalg.norm takes of a 2-vector
        step = np.sqrt((delta[:, None, :] @ delta[:, :, None])[:, 0, 0])
        pos[live], failed[live] = new, new_failed
        moving[live] = np.equal(new_failed, None) & ~(step < HUBER_TOL)
    return pos, failed

