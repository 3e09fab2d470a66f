"""Trilateration written out one system at a time, sharing no code with ``wsnloc.rss``:
the oracle the tests hold its stacked solvers and their one-system wrappers to.

The weights enter as dense ``diag(w)`` matrices, ``A^T W A`` and ``A^T W b``, and a
normal matrix whose condition number exceeds 1e12 raises ``SingularSystem``, as the
rss solvers record it.
"""

import numpy as np

from wsnloc.errors import SingularSystem


def normal_solve(a: np.ndarray, b: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """LS position ``(A^T A)^-1 A^T b``, or WLS ``(A^T W A)^-1 A^T W b`` with ``W = diag(w)``."""
    if w is None:
        gram, rhs = a.T @ a, a.T @ b
    else:
        weight = np.diag(w)
        gram, rhs = a.T @ weight @ a, a.T @ weight @ b
    if np.linalg.cond(gram) > 1e12:
        raise SingularSystem("normal equations condition number exceeds 1e12")
    return np.linalg.solve(gram, rhs)


def huber(
    a: np.ndarray, b: np.ndarray, epsilon: float, w: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """IRLS for the l1 fit of ``A p = b``: the position and the passes it ran.

    It starts from the LS solution, or from the WLS one with residuals standardized by
    the row stds ``sqrt(diag(inv(diag(w))))``. Each pass reweighs the rows by
    1/(|e_i| + epsilon) and solves again; it stops after the pass that moves the
    position less than 1e-6, or after 50 passes.
    """
    pos = normal_solve(a, b, w)
    row_std = np.ones(a.shape[0]) if w is None else np.sqrt(np.diag(np.linalg.inv(np.diag(w))))
    for passes in range(1, 51):
        resid = (a @ pos - b) / row_std
        new_pos = normal_solve(a, b, 1.0 / (np.abs(resid) + epsilon) / row_std**2)
        step, pos = float(np.linalg.norm(new_pos - pos)), new_pos
        if step < 1e-6:
            break
    return pos, passes
