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

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


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
        if not (self.spacing < math.inf and self.wavelength < math.inf):
            raise ValueError("spacing and wavelength must be finite")

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
        if not (self.radius < math.inf and self.wavelength < math.inf):
            raise ValueError("radius and wavelength must be finite")
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
        if coincident(az):
            raise CoincidentSources()
        if np.any(amp <= 0):
            raise ValueError("amplitudes must be positive")
        object.__setattr__(self, "azimuths", az)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def count(self) -> int:
        return int(self.azimuths.size)


def coincident(azimuths) -> np.ndarray:
    """Whether a set of azimuths, the last axis of ``azimuths`` (..., M), holds two that
    coincide: sorted with NaNs last, a repeat sits next to its twin, and a NaN before
    the last means two NaNs, which count as one azimuth, as np.unique counts them (it
    imports numpy.ma on first use). ``-0.0`` and ``0.0`` coincide."""
    ordered = np.sort(azimuths, axis=-1)
    return np.any((ordered[..., 1:] == ordered[..., :-1]) | np.isnan(ordered[..., :-1]), axis=-1)


def steering_matrix(geometry, azimuths) -> np.ndarray:
    """Stack steering vectors for several azimuths into an (N, M) matrix, or for a
    (T, M) stack of azimuth sets into a C-ordered (T, N, M) stack of matrices."""
    a = geometry.steering(np.atleast_1d(np.asarray(azimuths, dtype=float)))
    return np.ascontiguousarray(np.moveaxis(a, 0, -2))


def snapshots(steer: np.ndarray, s: np.ndarray, noise) -> np.ndarray:
    """The snapshots ``X = A s (+ n)`` of sources with the (N, M) steering matrix
    ``steer`` and the (M, K) waveforms ``s``, plus the (N, K) ``noise``; or of a stack
    of T trials, ``steer`` (T, N, M) and ``s`` (T, M, K), one product per trial, and a
    sequence of T noise arrays. A ``None`` noise, a power of 0 (:func:`draw_signals`),
    adds nothing, and no array of zeros is made for it."""
    x = steer @ s
    stacked = x.ndim == 3
    for x_t, noise_t in zip(x if stacked else [x], noise if stacked else [noise]):
        if noise_t is not None:
            x_t += noise_t
    return x


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-power circular complex Gaussians: the real parts' draws, then the imaginary
    parts', each times 1/sqrt(2) (the bits ``(a + 1j*b) / np.sqrt(2.0)`` gives, since
    numpy divides a complex array by a real one through its reciprocal)."""
    g = rng.standard_normal((2, *shape))
    z = np.empty(shape, dtype=complex)
    np.multiply(g[0], _INV_SQRT2, out=z.real)
    np.multiply(g[1], _INV_SQRT2, out=z.imag)
    return z


def noise_power(amplitudes, snr_db: float) -> float:
    """Per-element noise variance for a target SNR over sources of these ``amplitudes``
    (unit reference power where there are none); 0 for infinite SNR. Raises
    ``OverflowError`` where the sources' total power or the noise variance leaves the
    float range (numpy warns on a total that overflows, as its errstate says)."""
    if snr_db is None or math.isinf(snr_db):
        return 0.0
    total = float(np.sum(np.asarray(amplitudes) ** 2)) if len(amplitudes) else 1.0
    power = total * 10.0 ** (-snr_db / 10.0)
    if not power < math.inf:  # NaN too: an infinite total at an SNR whose factor is 0
        raise OverflowError("the noise power leaves the float range")
    return power


def draw_signals(
    amplitudes: np.ndarray,
    coherent: bool,
    size: int,
    k: int,
    snr_db: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The random factors of :func:`synthesize_snapshots`, drawn from ``rng`` as it draws
    them: the (M, K) waveforms s(t) of sources with these ``amplitudes`` (one shared
    waveform if ``coherent``) and the (size, K) scaled noise n(t), ``None`` when the noise
    power is 0. They do not depend on the sources' azimuths, so a caller that holds many
    trials' steering matrices A forms their products ``A @ s (+ n)`` as one stack.
    """
    if k < 1:
        raise ValueError("need at least one snapshot")
    m = len(amplitudes)
    if not m:
        s = np.zeros((0, k), dtype=complex)
    elif coherent:
        s = amplitudes[:, None] * _complex_gaussian(rng, (1, k))
    else:
        s = amplitudes[:, None] * _complex_gaussian(rng, (m, k))
    sigma2 = noise_power(amplitudes, snr_db)
    if sigma2 > 0.0:
        return s, math.sqrt(sigma2) * _complex_gaussian(rng, (size, k))
    return s, None


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
    if src.count >= geometry.size:
        raise TooManySources(f"{src.count} sources with only {geometry.size} elements")
    s, noise = draw_signals(src.amplitudes, src.coherent, geometry.size, k, snr_db, rng)
    return snapshots(steering_matrix(geometry, src.azimuths), s, noise)


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
