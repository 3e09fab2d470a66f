"""Trilateration estimators on the line-of-position system: ordinary least
squares, weighted least squares with log-normal ranging variances, and a
robust l1 solver via iteratively reweighted least squares.

Each recipe is written once, for a stack of right-hand sides against one
matrix ``A``: :func:`solve_stack` solves the normal equations, unweighted or
with per-row weights, and :func:`huber_stack` runs the IRLS loop. Each system
of a stack gets the bits it gets alone: numpy's stacked ``matmul``, ``cond``
and ``solve`` call the same BLAS or LAPACK routine once per matrix, and the
condition check's closed form works element by element.
A system that fails is recorded rather than raised, in an object array that
holds ``None`` for the systems that solved. The harness's chunks solve whole
stacks whose ranges were read through several channels, one per SNR row:
:func:`wls_weights_by_row` weighs each range under its own channel, and
:func:`huber_by_row` starts each system's IRLS from the fix its channel calls
for. ``ls_solve``, ``wls_solve`` and ``huber_irls`` check one
:class:`LinearSystem` and its weights, solve it as a stack of one, and raise
the failure recorded for it (:func:`errors.only`); ``huber_irls`` returns the
position with the IRLS passes it ran (:class:`EstimatorReport`). Weights are per
row: a WLS weight matrix is diagonal, as :func:`wls_weights` builds it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, lognormal_sigma_d
from .errors import LengthMismatch, NumericOverflow, SingularSystem, only
from .geometry import LinearSystem, LopMatrix

MAX_CONDITION = 1e12
_MARGIN = 4.0  # closed-form condition numbers within this factor of the bound go to the SVD
HUBER_MAX_ITER = 50  # IRLS passes before huber_stack stops
HUBER_TOL = 1e-6  # a pass that moves the position less than this is the last
_SINGULAR = "normal equations condition number exceeds 1e12"
_DEGENERATE = "ranging variance leaves the float range; WLS weights are degenerate"


@dataclass(frozen=True)
class EstimatorReport:
    """Solver outcome: position and the IRLS passes run."""

    position: np.ndarray
    iterations: int


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
    plain LS). Where s^2 is 0 (:func:`unshadowed`) every variance vanishes
    and the identity is returned. Where s^2 is so small that the difference
    rounds to 0, it is taken as exp(4 s^2) expm1(4 s^2).

    Raises ``NumericOverflow`` when a variance or weight leaves the float
    range (shadowing beyond about 41 eta dB, or ranges near 1e77 or 1e-77).
    """
    d = np.asarray(est_distances, dtype=float)
    if d.ndim != 1 or d.size < 3:
        raise LengthMismatch("need estimated distances for at least 3 anchors")
    if np.any(d <= 0):
        raise ValueError("distances must be positive")
    return np.diag(only(*wls_row_weights(model, d[None])))


def unshadowed(model: ChannelModel) -> bool:
    """Whether ranging through ``model`` has no shadowing to weigh: its log-domain
    variance s^2 (:func:`channel.lognormal_sigma_d` squared) is 0, which it also is where
    a tiny std, or a huge path-loss exponent, underflows it. (``s * s``: ``s ** 2``
    raises ``OverflowError`` where s^2 is past the float range.)"""
    s = lognormal_sigma_d(model)
    return s * s == 0.0


def wls_row_weights(model: ChannelModel, distances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of :func:`wls_weights` for each row of a (T, S) block of ranges.

    Returns the (T, S-1) weights and, per row, the ``NumericOverflow`` that
    ``wls_weights`` raises for it, or ``None``. The ranges are not checked.
    """
    rows, cols = distances.shape[0], distances.shape[1] - 1
    if unshadowed(model):
        return np.ones((rows, cols)), np.full(rows, None, dtype=object)
    try:
        s2 = lognormal_sigma_d(model) ** 2
        spread = math.exp(8.0 * s2) - math.exp(4.0 * s2)
    except OverflowError:
        error = NumericOverflow(f"ranging variance overflows at {model.sigma_db:g} dB")
        return np.full((rows, cols), np.nan), np.full(rows, error, dtype=object)
    if not spread > 0.0:  # exp(8 s^2) and exp(4 s^2) round alike: keep s^2's digits
        spread = math.exp(4.0 * s2) * math.expm1(4.0 * s2)
    var = np.exp(4.0 * np.log(distances)) * spread
    weights = 1.0 / (var[:, :-1] + var[:, -1:])
    failed = np.full(rows, None, dtype=object)
    failed[~np.all((weights > 0) & (weights < math.inf), axis=1)] = NumericOverflow(_DEGENERATE)
    return weights, failed


def wls_weights_by_row(models, rows, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`wls_row_weights` of a (T, S) block of ranges ``d`` whose row t was read
    through the channel ``models[rows[t]]``, one call per channel in use: the (T, S-1)
    weights and the per-row failures."""
    weights, failed = np.empty((len(d), d.shape[1] - 1)), np.empty(len(d), dtype=object)
    for si in set(rows.tolist()):  # not np.unique, whose first call imports numpy.ma
        at = rows == si
        weights[at], failed[at] = wls_row_weights(models[si], d[at])
    return weights, failed


def _ill_conditioned(gram: np.ndarray) -> np.ndarray:
    """Whether each 2x2 matrix of a (..., 2, 2) stack has a condition number past
    :data:`MAX_CONDITION`, the verdict ``np.linalg.cond(gram) > MAX_CONDITION`` gives.

    The singular values of [[a, b], [c, d]] are (h1 + h2) / 2 and |h1 - h2| / 2 with
    h1 = hypot(a + d, b - c) and h2 = hypot(a - d, b + c); no symmetry is assumed (a
    gram that BLAS forms can differ from its transpose in the last bit). The smaller one
    loses about eps times the larger to cancellation, which moves a condition number
    near the bound by well under the margin. So the SVD decides only a matrix whose
    closed-form condition number is within a factor of 4 of the bound, or NaN: an
    infinite or NaN entry, or a sum past the float range, always gives a NaN there.
    """
    stack = gram.reshape(-1, 4)
    a, b, c, d = stack.T
    with np.errstate(all="ignore"):
        h1, h2 = np.hypot(a + d, b - c), np.hypot(a - d, b + c)
        cond = (h1 + h2) / abs(h1 - h2)
    singular = cond > MAX_CONDITION
    unsure = ~((cond < MAX_CONDITION / _MARGIN) | (cond > MAX_CONDITION * _MARGIN))
    if unsure.any():
        singular[unsure] = np.linalg.cond(stack[unsure].reshape(-1, 2, 2)) > MAX_CONDITION
    return singular.reshape(gram.shape[:-2])


def solve_stack(
    a: np.ndarray,
    b: np.ndarray,
    weights: np.ndarray | None = None,
    failed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``a p = b_t`` in the least-squares sense for each row of ``b`` (T, m),
    ``a`` an (m, 2) matrix.

    Without ``weights`` each system's normal equations are ``A^T A p = A^T b_t``;
    with (T, m) row weights they are ``A^T W A p = A^T W b_t``, ``W = diag(weights[t])``.
    The weights scale the columns of ``A^T`` instead of building ``W``: the products
    that form leaves out are exact zeros, so with the scaled matrix in C order (the
    layout the product with ``W`` has) the normal equations are bit for bit those of
    ``A^T W A``. A system whose normal matrix has a condition number past 1e12 fails
    with ``SingularSystem``; systems that ``failed`` already marks are left alone.
    Returns the (T, 2) positions, NaN where a system failed, and the failures.
    """
    failed = np.full(len(b), None, dtype=object) if failed is None else failed.copy()
    live = np.flatnonzero(np.equal(failed, None))
    if weights is None:
        gram = a.T @ a
        singular = np.full(live.size, _ill_conditioned(gram))
        rhs = a.T @ b[live, :, None]
    else:
        scaled = np.multiply(a.T, weights[live, None, :], order="C")
        gram, rhs = scaled @ a, scaled @ b[live, :, None]
        singular = _ill_conditioned(gram)
        gram = gram[~singular]
    failed[live[singular]] = SingularSystem(_SINGULAR)
    pos = np.full((len(b), 2), np.nan)
    pos[live[~singular]] = np.linalg.solve(gram, rhs[~singular])[..., 0]
    return pos, failed


def huber_stack(
    a: np.ndarray,
    b: np.ndarray,
    epsilon: float,
    weights: np.ndarray | None = None,
    failed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Robust l1 solve of ``a p = b_t`` for each row of ``b`` (T, m) by iteratively
    reweighted least squares.

    Each pass solves a weighted least-squares problem with per-row weights
    1/(|e_i| + epsilon) from the previous residuals, which drives the iterates
    toward the minimizer of sum |e_i|; epsilon smooths the weight near zero
    residual and sets the size of the quadratic zone (residuals below epsilon
    are treated least-squares-like, larger ones get the linear l1 treatment).
    A system stops after the pass that moves it less than ``HUBER_TOL``, or
    after ``HUBER_MAX_ITER`` passes (non-convergence is not an error).

    With (T, m) ``weights`` (the diagonal of each system's WLS matrix) the first
    iterate is the WLS solution, and residuals are standardized by the per-row
    stds those weights imply before reweighting, so the robust loss is applied
    to comparably-scaled rows and epsilon is in standardized units. Under purely
    Gaussian noise this tracks the WLS solution; heavy-tailed rows still get
    downweighted. Without them the first iterate is the LS solution.

    Every pass keeps :func:`solve_stack`'s condition check; a system that fails
    it drops out with that failure. Returns positions and failures as
    :func:`solve_stack` does, and the passes each system ran.
    """
    pos, failed = solve_stack(a, b, weights, failed)
    moving = np.equal(failed, None)
    passes = np.zeros(len(b), dtype=int)
    row_std = np.ones_like(b)
    if weights is not None:  # sqrt(diag(inv(W))): LAPACK inverts a diagonal as 1 / w
        row_std[moving] = np.sqrt(1.0 / weights[moving])
    for _ in range(HUBER_MAX_ITER):
        live = np.flatnonzero(moving)
        if live.size == 0:
            break
        std = row_std[live]
        resid = ((a @ pos[live, :, None])[..., 0] - b[live]) / std
        new, new_failed = solve_stack(a, b[live], 1.0 / (np.abs(resid) + epsilon) / std**2)
        delta = new - pos[live]
        # a 1x2 @ 2x1 product is the BLAS dot product np.linalg.norm takes of a 2-vector
        step = np.sqrt((delta[:, None, :] @ delta[:, :, None])[:, 0, 0])
        pos[live], failed[live] = new, new_failed
        passes[live] += 1
        moving[live] = np.equal(new_failed, None) & ~(step < HUBER_TOL)
    return pos, failed, passes


def huber_by_row(lop: LopMatrix, models, rows, d, epsilon) -> tuple[np.ndarray, np.ndarray]:
    """:func:`huber_stack` of the LOP systems of a (T, S) block of ranges ``d``, row t
    read through the channel ``models[rows[t]]``, in at most two stacks: rows whose
    channel shadows start from their WLS fix (:func:`wls_weights_by_row`), the others
    (no shadowing: every WLS weight alike) from the LS one. Returns the (T, 2) positions
    and the per-row failures."""
    pos, failed = np.empty((len(d), 2)), np.empty(len(d), dtype=object)
    shadowed = np.array([not unshadowed(model) for model in models])[rows]
    for at in (np.flatnonzero(shadowed), np.flatnonzero(~shadowed)):
        if at.size:
            weighted = wls_weights_by_row(models, rows[at], d[at]) if shadowed[at[0]] else ()
            pos[at], failed[at] = huber_stack(lop.A, lop.rhs(d[at]), epsilon, *weighted)[:2]
    return pos, failed


def _row_weights(a: np.ndarray, weights) -> np.ndarray:
    """The diagonal of a WLS weight matrix for ``a``, as a stack of one: (1, m)."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (a.shape[0], a.shape[0]):
        raise LengthMismatch(f"weight matrix {w.shape} does not match {a.shape[0]} rows")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight matrix has NaN or infinite entries")
    diag = np.diagonal(w)
    if np.any(w != np.diag(diag)) or np.any(diag <= 0):
        raise ValueError("weight matrix must be diagonal, with a positive diagonal")
    return diag[None]


def ls_solve(system: LinearSystem) -> np.ndarray:
    """Least-squares node position (A^T A)^-1 A^T b; ``SingularSystem`` past the
    condition bound."""
    a, b = system
    return only(*solve_stack(a, b[None]))


def wls_solve(system: LinearSystem, weights: np.ndarray) -> np.ndarray:
    """Weighted least-squares position (A^T W A)^-1 A^T W b for a diagonal ``W``
    with a finite, positive diagonal; ``SingularSystem`` past the condition bound."""
    a, b = system
    return only(*solve_stack(a, b[None], _row_weights(a, weights)))


def huber_irls(
    system: LinearSystem,
    epsilon: float = 1e-3,
    initial_weights: np.ndarray | None = None,
) -> EstimatorReport:
    """:func:`huber_stack` for one system, started from the WLS solution with the
    diagonal matrix ``initial_weights`` (checked as for :func:`wls_solve`) when it is
    given. Raises ``SingularSystem`` when a pass fails the condition check."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    a, b = system
    weights = None if initial_weights is None else _row_weights(a, initial_weights)
    pos, failed, passes = huber_stack(a, b[None], epsilon, weights)
    return EstimatorReport(only(pos, failed), int(passes[0]))
