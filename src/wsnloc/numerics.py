"""Shared numerical kernels: Hermitian eigendecomposition, polynomial roots,
and the inverse matrix square root of a Hermitian positive definite matrix.

These delegate to LAPACK through numpy; the contracts (ordering, residual
bounds, error conditions) are what the rest of the package relies on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLeadingCoefficient, NearSingular, NonHermitian, NumericOverflow

HERMITIAN_RTOL = 1e-10


@dataclass(frozen=True)
class PolyRoots:
    """All complex roots of a polynomial, with its degree."""

    roots: np.ndarray
    degree: int


def _check_hermitian(m: np.ndarray, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonHermitian(f"expected a square matrix, got shape {m.shape}")
    scale = max(np.linalg.norm(m), 1.0)
    if np.linalg.norm(m - m.conj().T) > rtol * scale:
        raise NonHermitian("matrix is not Hermitian within tolerance")
    return m


def herm_eig(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues sorted in
    descending order and orthonormal eigenvectors as the columns of the
    second array, so ``r ~= Q diag(w) Q^H``. Raises ``NumericOverflow`` when
    an entry is not finite (a sample covariance whose products overflowed).
    """
    r = np.asarray(r)
    if not np.all(np.isfinite(r)):
        raise NumericOverflow("matrix has entries outside the float range")
    r = _check_hermitian(r)
    w, q = np.linalg.eigh(r)
    return w[::-1], q[:, ::-1]


def poly_roots(coeffs: np.ndarray) -> PolyRoots:
    """Roots of a polynomial given coefficients in descending-power order.

    Uses companion-matrix eigenvalues (``numpy.roots``). The leading
    coefficient must be nonzero.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs))
    scale = np.max(np.abs(coeffs)) if coeffs.size else 0.0
    if coeffs.size < 2 or scale == 0.0 or np.abs(coeffs[0]) <= 1e-300 * scale:
        raise DegenerateLeadingCoefficient("leading polynomial coefficient is zero")
    roots = np.roots(coeffs)
    return PolyRoots(roots=roots, degree=coeffs.size - 1)


def inv_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Inverse square root ``X`` of a Hermitian PSD matrix, ``X m X = I``."""
    m = _check_hermitian(m)
    w, q = np.linalg.eigh(m)
    if w[0] <= 1e-12 * max(np.trace(m).real, np.finfo(float).tiny):
        raise NearSingular("smallest eigenvalue below 1e-12 * trace")
    return (q * (1.0 / np.sqrt(w))) @ q.conj().T
