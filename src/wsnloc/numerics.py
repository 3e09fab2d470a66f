"""Shared numerical kernels: Hermitian eigendecomposition (of one matrix or of a
stack of them), polynomial roots, and a guard that runs numpy's OpenBLAS on one
thread.

These delegate to LAPACK through numpy and return plain arrays (roots as one
array, eigenpairs as a pair); the contracts (ordering, residual bounds, error
conditions) are what the rest of the package relies on.
"""

import ctypes
import threading
from functools import lru_cache

import numpy as np

from .errors import DegenerateLeadingCoefficient, NonHermitian, NumericOverflow

HERMITIAN_RTOL = 1e-10
_NOT_FINITE = "matrix has entries outside the float range"
_NOT_HERMITIAN = "matrix is not Hermitian within tolerance"


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonHermitian(f"expected a square matrix, got shape {m.shape}")
    # The scale's norm only matters for a skew above 0; a NaN skew is compared and passes.
    skew = np.linalg.norm(m - m.conj().T)
    if skew and skew > HERMITIAN_RTOL * max(np.linalg.norm(m), 1.0):
        raise NonHermitian(_NOT_HERMITIAN)
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
        raise NumericOverflow(_NOT_FINITE)
    r = _check_hermitian(r)
    w, q = np.linalg.eigh(r)
    return w[::-1], q[:, ::-1]


def herm_eig_stack(r: np.ndarray, failed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`herm_eig` of every matrix in a (T, n, n) stack, in one LAPACK call.

    ``failed`` holds an error or ``None`` per matrix. A matrix it marks, or one
    that ``herm_eig`` rejects (entries not finite, then not Hermitian, each
    matrix measured by its own norm), gets NaN eigenpairs and its error in the
    returned copy of ``failed``. Returns ``(eigenvalues, eigenvectors, failed)``,
    descending as ``herm_eig``'s; the others get the bits ``herm_eig`` gives each
    on its own.
    """
    axes = (-2, -1)
    failed = failed.copy()
    failed[np.equal(failed, None) & ~np.all(np.isfinite(r), axis=axes)] = NumericOverflow(
        _NOT_FINITE
    )
    live = np.flatnonzero(np.equal(failed, None))
    scale = np.maximum(np.linalg.norm(r[live], axis=axes), 1.0)
    skew = np.linalg.norm(r[live] - r[live].conj().swapaxes(-1, -2), axis=axes)
    failed[live[skew > HERMITIAN_RTOL * scale]] = NonHermitian(_NOT_HERMITIAN)
    ok = np.equal(failed, None)
    w, q = np.full(r.shape[:-1], np.nan), np.full(r.shape, np.nan, dtype=r.dtype)
    if ok.any():
        w[ok], q[ok] = np.linalg.eigh(r[ok])
    return w[:, ::-1], q[:, :, ::-1], failed


@lru_cache(maxsize=32)
def _companion_template(n: int, dtype: np.dtype) -> np.ndarray:
    """The (n, n) companion matrix of a degree-n polynomial with its first row zero:
    ones on the sub-diagonal, zeros elsewhere, the matrix ``numpy.roots`` builds."""
    template = np.eye(n, k=-1, dtype=dtype)
    template.flags.writeable = False
    return template


def poly_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a polynomial given coefficients in descending-power order, with the bits
    of ``numpy.roots``. The input must be rank-1 and its leading coefficient nonzero.

    For float or complex coefficients whose last one is nonzero this is ``numpy.roots``'
    own computation without its stripping and casting: the eigenvalues of the companion
    matrix, copied from a cached template per degree and dtype, with first row
    -coeffs[1:] / coeffs[0]. A trailing zero (a root at 0, which ``numpy.roots`` appends
    last) or other input goes through ``numpy.roots`` itself."""
    coeffs = np.atleast_1d(np.asarray(coeffs))
    if coeffs.ndim != 1:
        raise ValueError("Input must be a rank-1 array.")
    scale = np.abs(coeffs).max() if coeffs.size else 0.0
    if coeffs.size < 2 or scale == 0.0 or np.abs(coeffs[0]) <= 1e-300 * scale:
        raise DegenerateLeadingCoefficient("leading polynomial coefficient is zero")
    if coeffs[-1] == 0 or coeffs.dtype.kind not in "fc":
        return np.roots(coeffs)
    companion = _companion_template(coeffs.size - 1, coeffs.dtype).copy()
    companion[0] = -coeffs[1:] / coeffs[0]
    return np.linalg.eigvals(companion)


def _keep_count(count: int) -> int:
    """The thread-count setter where numpy's BLAS has none: it changes nothing."""
    return count


def _openblas_setter():
    """OpenBLAS's ``openblas_set_num_threads_local`` from the library numpy links, which
    sets the BLAS thread count and returns the count it replaces; :func:`_keep_count`
    where numpy's BLAS is not OpenBLAS or lacks the symbol. The symbol is looked up
    through numpy's LAPACK extension, which links the same BLAS as its matmul, so another
    OpenBLAS in the process (scipy's, say) is never the one found."""
    try:
        lapack = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        setter = lapack.openblas_set_num_threads_local
    except (AttributeError, OSError):
        return _keep_count
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


class _OneBlasThread:
    """A context manager that runs numpy's OpenBLAS on one thread while it is held and
    gives the caller's thread count back on exit, an exception's exit included.

    The setting is process-wide: on the pthreads builds numpy bundles, the count that
    ``openblas_set_num_threads_local`` sets holds for every thread of the process, so
    BLAS calls on other threads also run on one thread while any holder is inside.
    Holds are therefore counted under a lock: the first entry saves the count and sets
    it to 1, nested or concurrent entries only count, and the last exit restores the
    saved count. The library is looked up on the first entry, not at import. Where
    numpy's BLAS is not OpenBLAS, the guard does nothing, and the bits of a product it
    guards may then depend on the BLAS thread count."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1
        self._set = None

    def __enter__(self) -> None:
        with self._lock:
            if not self._depth:
                if self._set is None:
                    self._set = _openblas_setter()
                self._saved = self._set(1)
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if not self._depth:
                self._set(self._saved)


# The BLAS thread count is one per process, so one guard serves the package.
one_blas_thread = _OneBlasThread()
