"""Phase-mode excitation beamspace: map a uniform circular array onto a
virtual uniform linear array so vandermonde-only algorithms (polynomial
rooting, rotational invariance, spatial smoothing) become applicable.

Each phase mode p in [-h, h] is excited by the DFT-like beamformer row
w_p[n] = exp(j p theta_n) / N. Acting on the circular steering vector this
yields (Jacobi-Anger) approximately j^p J_p(zeta) e^{j p theta}, so scaling
row p by 1/(j^p J_p(zeta)) produces a virtual steering vector
[e^{-j h theta}, ..., 1, ..., e^{j h theta}] with vandermonde structure.
The residual from sampling the ring with N elements involves Bessel orders
|p +/- N| and shrinks rapidly once N > 2h.

The plain transform Tv leaves mapped noise colored; the row-orthonormal
variant Tw = (Tv Tv^H)^(-1/2) Tv keeps white noise white, at the cost of
per-row scales that break the vandermonde shift structure. Use Tw for
spectral/rooting methods and Tv wherever shift invariance must survive
(rotational-invariance estimators, spatial smoothing).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .arrays import UniformCircularArray
from .errors import (
    BesselNearZero,
    DimensionMismatch,
    InsufficientElements,
    NearSingular,
    OutOfSupportedRange,
    WrongGeometry,
)
from .numerics import herm_eig

MAX_BESSEL_ORDER = 64
MAX_BESSEL_ARG = 128.0
BESSEL_FLOOR = 1e-10


def max_mode(r: float, wavelength: float) -> int:
    """Highest phase mode a ring of radius r can excite: floor(2 pi r / lambda)."""
    if r <= 0 or wavelength <= 0:
        raise ValueError("radius and wavelength must be positive")
    return int(math.floor(2.0 * math.pi * r / wavelength))


def _bessel_series(p: int, x: float) -> float:
    # Ascending series; only used where the terms never grow enough to
    # cancel more than a few digits.
    half = 0.5 * x
    log_first = p * math.log(half) - math.lgamma(p + 1) if half > 0 else (
        0.0 if p == 0 else -math.inf
    )
    if log_first < -745.0:  # underflows to zero in double precision
        return 0.0
    term = math.exp(log_first)
    total = term
    for k in range(1, 400):
        term *= -(half * half) / (k * (p + k))
        total += term
        if abs(term) <= 1e-18 * abs(total):
            break
    return total


def _bessel_miller(p: int, x: float) -> float:
    # Normalized backward recurrence (Miller). Start far enough above both
    # the order and the turning point that the trial-value contamination
    # decays below machine precision before reaching order p.
    start = max(p, int(x)) + int(14.0 * max(1.0, x) ** (1.0 / 3.0)) + 21
    if start % 2:
        start += 1
    j_up = 0.0
    j_k = 1e-30
    result = 0.0
    even_acc = j_k if start % 2 == 0 else 0.0
    for k in range(start, 0, -1):
        j_down = (2.0 * k / x) * j_k - j_up
        j_up = j_k
        j_k = j_down
        order = k - 1
        if order == p:
            result = j_k
        if order >= 2 and order % 2 == 0:
            even_acc += j_k
        if abs(j_k) > 1e250:
            j_k *= 1e-250
            j_up *= 1e-250
            result *= 1e-250
            even_acc *= 1e-250
    norm = j_k + 2.0 * even_acc  # sum rule J0 + 2*sum J_{2k} = 1
    return result / norm


def bessel_j(p: int, zeta: float) -> float:
    """First-kind Bessel J_p(zeta) for |p| <= 64 and 0 <= zeta <= 128."""
    if p != int(p):
        raise OutOfSupportedRange("order must be an integer")
    p = int(p)
    if abs(p) > MAX_BESSEL_ORDER or not (0.0 <= zeta <= MAX_BESSEL_ARG):
        raise OutOfSupportedRange(f"unsupported Bessel range p={p}, zeta={zeta}")
    sign = -1.0 if (p < 0 and p % 2) else 1.0  # J_{-p} = (-1)^p J_p
    p = abs(p)
    if zeta == 0.0:
        return 1.0 if p == 0 else 0.0
    if zeta <= 4.0 or zeta * zeta <= 4.0 * (p + 1):
        return sign * _bessel_series(p, zeta)
    return sign * _bessel_miller(p, zeta)


@dataclass(frozen=True)
class VandermondeArray:
    """Virtual linear array with steering [e^{j p theta}], p = 0..n-1.

    Stands in for the beamspace array (or one of its smoothing subarrays)
    wherever a geometry with full azimuth coverage is needed.
    """

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("virtual array needs at least 2 elements")

    @property
    def size(self) -> int:
        return self.n

    @property
    def fov(self) -> tuple[float, float]:
        return (-np.pi, np.pi)

    def steering(self, theta) -> np.ndarray:
        return np.exp(1j * np.multiply.outer(np.arange(self.n), np.asarray(theta)))


@dataclass(frozen=True)
class PmeTransform:
    """Beamspace mapping for one circular geometry.

    Attributes
    ----------
    h : int
        Highest excited mode; the virtual array has 2h+1 elements.
    Tv : ndarray (2h+1, N)
        Beamspace transform diag(J) @ F (vandermonde output, colored noise): the
        phase-mode beamformer rows F, ordered p = -h..h, each scaled by its mode
        equalizer entry J_p = 1 / (j^p J_p(zeta)), zeta the ring's aperture
        ``UniformCircularArray.zeta``.
    Tw : ndarray (2h+1, N)
        Row-orthonormal prewhitened variant (white noise stays white).
    whiten, color : ndarray (2h+1, 2h+1)
        (Tv Tv^H)^(-1/2), so Tw = whiten @ Tv, and its inverse (Tv Tv^H)^(1/2).
    """

    h: int
    Tv: np.ndarray
    Tw: np.ndarray
    whiten: np.ndarray
    color: np.ndarray

    @property
    def n_elements(self) -> int:
        return self.Tv.shape[1]

    @property
    def vula_size(self) -> int:
        return 2 * self.h + 1


def build_transform(geometry: UniformCircularArray) -> PmeTransform:
    """Construct the UCA -> virtual-ULA transform for a circular geometry.

    The highest mode h is the ring's highest excitable one (:func:`max_mode`),
    clamped (with a warning) so that N > 2h; a ring that leaves h < 1 raises
    ``InsufficientElements``. Any mode with |J_p(zeta)| below 1e-10 cannot be
    equalized and raises ``BesselNearZero``. A Gram matrix Tv Tv^H whose smallest
    eigenvalue is below 1e-12 of its trace cannot be whitened and raises
    ``NearSingular``.
    """
    if not isinstance(geometry, UniformCircularArray):
        raise WrongGeometry("phase mode excitation needs a UniformCircularArray")
    n = geometry.n
    h = max_mode(geometry.radius, geometry.wavelength)
    if n <= 2 * h:
        clamped = (n - 1) // 2
        warnings.warn(
            f"clamping phase-mode order from {h} to {clamped} so that N > 2h", stacklevel=2
        )
        h = clamped
    if h < 1:
        raise InsufficientElements("ring too small to excite any usable mode")

    zeta = geometry.zeta
    modes = np.arange(-h, h + 1)
    amp = np.array([bessel_j(int(p), zeta) for p in modes])
    if np.any(np.abs(amp) < BESSEL_FLOOR):
        bad = modes[np.abs(amp) < BESSEL_FLOOR]
        raise BesselNearZero(f"|J_p(zeta)| < 1e-10 for modes {bad.tolist()}")

    f_mat = np.exp(2j * np.pi * np.outer(modes, np.arange(n)) / n) / n
    j_diag = 1.0 / (1j**modes * amp)
    tv = j_diag[:, None] * f_mat
    gram = tv @ tv.conj().T
    w, q = herm_eig(gram)
    if w[-1] <= 1e-12 * max(np.trace(gram).real, np.finfo(float).tiny):
        raise NearSingular("smallest eigenvalue below 1e-12 * trace")
    # whiten sums its eigenpairs in eigh's ascending order; the descending one rounds apart
    whiten = (q[:, ::-1] * (1.0 / np.sqrt(w[::-1]))) @ q[:, ::-1].conj().T
    color = (q * np.sqrt(w)) @ q.conj().T
    return PmeTransform(h=h, Tv=tv, Tw=whiten @ tv, whiten=whiten, color=color)


def to_vula(x: np.ndarray, transform: PmeTransform, prewhitened: bool = False) -> np.ndarray:
    """Map circular-array snapshots into the (2h+1)-element virtual array."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != transform.n_elements:
        raise DimensionMismatch(
            f"snapshots have {x.shape[0] if x.ndim == 2 else '?'} rows, "
            f"transform expects {transform.n_elements}"
        )
    t = transform.Tw if prewhitened else transform.Tv
    return t @ x


def vula_steering(theta, transform: PmeTransform) -> np.ndarray:
    """Ideal virtual steering [e^{j p theta}] ordered p = -h..h."""
    modes = np.arange(-transform.h, transform.h + 1)
    return np.exp(1j * np.multiply.outer(modes, np.asarray(theta)))
