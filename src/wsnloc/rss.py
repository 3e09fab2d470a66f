"""Trilateration estimators on the line-of-position system: ordinary least
squares, weighted least squares with log-normal ranging variances, and a
robust l1 solver via iteratively reweighted least squares.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, lognormal_sigma_d
from .errors import LengthMismatch, NumericOverflow, SingularSystem
from .geometry import LinearSystem

MAX_CONDITION = 1e12


@dataclass(frozen=True)
class EstimatorReport:
    """Solver outcome: position, iteration count, and final residual norm."""

    position: np.ndarray
    iterations: int
    final_residual_norm: float


def _solve_normal(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the normal equations ``gram p = rhs`` unless they are ill-conditioned."""
    if np.linalg.cond(gram) > MAX_CONDITION:
        raise SingularSystem("normal equations condition number exceeds 1e12")
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
    sigma_d = lognormal_sigma_d(model)
    if sigma_d == 0.0:
        return np.eye(d.size - 1)
    try:
        spread = math.exp(8.0 * sigma_d**2) - math.exp(4.0 * sigma_d**2)
    except OverflowError:
        raise NumericOverflow(f"ranging variance overflows at {model.sigma_db:g} dB") from None
    var = np.exp(4.0 * np.log(d)) * spread
    weights = 1.0 / (var[:-1] + var[-1])
    if not np.all((weights > 0) & (weights < math.inf)):
        raise NumericOverflow("ranging variance leaves the float range; WLS weights are degenerate")
    return np.diag(weights)


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
    max_iter: int = 50,
    tol: float = 1e-6,
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
