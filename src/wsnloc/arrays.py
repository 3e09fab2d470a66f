"""Sensor-array signal model: steering vectors for uniform linear and
circular arrays, snapshot synthesis for correlated or uncorrelated
sources, and sample covariance.

Conventions
-----------
* ULA steering element n is exp(-j n phi) with phi = 2 pi (d / lambda) sin(theta),
  n = 0..N-1; unambiguous field of view (-90, 90) degrees.
* UCA steering element n is exp(j zeta cos(theta - theta_n)) with
  theta_n = 2 pi n / N and zeta = (2 pi r / lambda) sin(theta_e); field of
  view (-180, 180] degrees. The elevation theta_e is fixed per geometry
  and assumed known.
* SNR is total source power over per-element noise power,
  snr_db = 10 log10(sum(rho_m^2) / sigma_n^2).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentSources, LengthMismatch, TooManySources


@dataclass(frozen=True)
class UniformLinearArray:
    """N omnidirectional elements on a line with uniform spacing (meters)."""

    n: int
    spacing: float
    wavelength: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("array needs at least 2 elements")
        if self.spacing <= 0 or self.wavelength <= 0:
            raise ValueError("spacing and wavelength must be positive")

    @property
    def size(self) -> int:
        return self.n

    @property
    def fov(self) -> tuple[float, float]:
        return (-np.pi / 2, np.pi / 2)

    def steering(self, theta) -> np.ndarray:
        """Steering vector(s), shaped (N,) + theta.shape: (N,) for one angle, (N, K) for K."""
        phi = 2.0 * np.pi * (self.spacing / self.wavelength) * np.sin(np.asarray(theta))
        return np.exp(-1j * np.multiply.outer(np.arange(self.n), phi))


@dataclass(frozen=True)
class UniformCircularArray:
    """N elements on a ring of radius r (meters) at a fixed known elevation."""

    n: int
    radius: float
    elevation: float  # radians, in [0, pi/2]
    wavelength: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("array needs at least 2 elements")
        if self.radius <= 0 or self.wavelength <= 0:
            raise ValueError("radius and wavelength must be positive")
        if not (0.0 <= self.elevation <= np.pi / 2):
            raise ValueError("elevation must lie in [0, pi/2]")

    @property
    def size(self) -> int:
        return self.n

    @property
    def fov(self) -> tuple[float, float]:
        return (-np.pi, np.pi)

    @property
    def zeta(self) -> float:
        """Effective ring aperture (2 pi r / lambda) sin(elevation)."""
        return 2.0 * np.pi * self.radius / self.wavelength * math.sin(self.elevation)

    @property
    def element_angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n) / self.n

    def steering(self, theta) -> np.ndarray:
        """Steering vector(s), shaped (N,) + theta.shape: (N,) for one angle, (N, K) for K."""
        theta = np.asarray(theta)
        offsets = theta[None] - self.element_angles.reshape((-1,) + (1,) * theta.ndim)
        return np.exp(1j * self.zeta * np.cos(offsets))


ArrayGeometry = UniformLinearArray | UniformCircularArray


@dataclass(frozen=True)
class SourceSet:
    """Narrowband sources: azimuths (radians), amplitudes, coherence flag.

    Coherent sources share one waveform scaled by their real amplitudes
    (zero relative phase); uncorrelated sources draw independent unit-power
    circular complex Gaussian waveforms scaled the same way.
    """

    azimuths: np.ndarray
    amplitudes: np.ndarray = field(default=None)  # type: ignore[assignment]
    coherent: bool = False

    def __post_init__(self):
        az = np.atleast_1d(np.asarray(self.azimuths, dtype=float))
        amp = (
            np.ones_like(az)
            if self.amplitudes is None
            else np.atleast_1d(np.asarray(self.amplitudes, dtype=float))
        )
        if amp.shape != az.shape:
            raise LengthMismatch("amplitudes must match azimuths in length")
        if az.size != np.unique(az).size:
            raise CoincidentSources("source azimuths must be distinct")
        if np.any(amp <= 0):
            raise ValueError("amplitudes must be positive")
        object.__setattr__(self, "azimuths", az)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def count(self) -> int:
        return int(self.azimuths.size)


def steering_matrix(geometry, azimuths) -> np.ndarray:
    """Stack steering vectors for several azimuths into an (N, M) matrix."""
    return geometry.steering(np.atleast_1d(np.asarray(azimuths, dtype=float)))


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def noise_power(src: SourceSet | None, snr_db: float) -> float:
    """Per-element noise variance for a target SNR; 0 for infinite SNR."""
    if snr_db is None or math.isinf(snr_db):
        return 0.0
    total = float(np.sum(src.amplitudes**2)) if src is not None and src.count else 1.0
    return total * 10.0 ** (-snr_db / 10.0)


def draw_snapshots(
    geometry: ArrayGeometry,
    src: SourceSet,
    k: int,
    snr_db: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The factors of :func:`synthesize_snapshots`, drawn from ``rng`` as it draws them.

    Returns the (N, M) steering matrix A, the (M, K) waveforms s(t) and the
    (N, K) scaled noise n(t), ``None`` when the noise power is 0; then
    ``A @ s (+ n)`` is the snapshot matrix. A caller that holds many trials'
    factors forms their products as one stack.
    """
    if k < 1:
        raise ValueError("need at least one snapshot")
    m = src.count
    if m >= geometry.size:
        raise TooManySources(f"{m} sources with only {geometry.size} elements")
    if m:
        a = steering_matrix(geometry, src.azimuths)
        if src.coherent:
            shared = _complex_gaussian(rng, (1, k))
            s = src.amplitudes[:, None] * shared
        else:
            s = src.amplitudes[:, None] * _complex_gaussian(rng, (m, k))
    else:
        a, s = np.zeros((geometry.size, 0), dtype=complex), np.zeros((0, k), dtype=complex)
    sigma2 = noise_power(src, snr_db)
    if sigma2 > 0.0:
        return a, s, math.sqrt(sigma2) * _complex_gaussian(rng, (geometry.size, k))
    return a, s, None


def synthesize_snapshots(
    geometry: ArrayGeometry,
    src: SourceSet,
    k: int,
    snr_db: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw an (N, K) snapshot matrix X = A s(t) + n(t).

    With ``src.count == 0`` the output is pure noise whose per-element
    variance is 10^(-snr_db/10) relative to unit reference power. Signal
    waveforms are drawn before the noise, so the signal realization for a
    given rng state does not depend on the SNR.
    """
    a, s, noise = draw_snapshots(geometry, src, k, snr_db, rng)
    x = a @ s
    return x if noise is None else x + noise


def sample_covariance(x: np.ndarray) -> np.ndarray:
    """Sample covariance (1/K) X X^H, symmetrized to kill roundoff skew.

    ``x`` is one (N, K) snapshot matrix or a (T, N, K) stack of them; a stack
    makes one product per matrix, each with the bits of its own call.
    """
    x = np.asarray(x)
    if x.ndim not in (2, 3) or x.shape[-1] < 1:
        raise ValueError("snapshot matrix must be (N, K) or (T, N, K) with K >= 1")
    r = x @ x.conj().swapaxes(-1, -2) / x.shape[-1]
    return 0.5 * (r + r.conj().swapaxes(-1, -2))


def analytic_covariance(
    geometry: ArrayGeometry, src: SourceSet, noise_var: float = 0.0
) -> np.ndarray:
    """Exact covariance A R_s A^H + sigma^2 I for the configured sources.

    The source covariance R_s is diag(rho^2) for uncorrelated sources and
    the rank-one outer product rho rho^T for coherent ones.
    """
    a = steering_matrix(geometry, src.azimuths)
    rho = src.amplitudes
    if src.coherent:
        v = a @ rho.astype(complex)
        r = np.outer(v, v.conj())
    else:
        r = (a * rho**2) @ a.conj().T
    r = r + noise_var * np.eye(geometry.size)
    return 0.5 * (r + r.conj().T)
