"""Subspace DOA estimation: MUSIC spectral search, Root-MUSIC polynomial
rooting, ESPRIT rotational invariance, and their circular-array variants
operating in the phase-mode beamspace.

All estimators are deterministic functions of their inputs. Estimates are
reported inside the geometry's unambiguous field of view: (-90, 90) degrees
for linear arrays (a cone ambiguity mirrors angles about the array axis),
(-180, 180] for circular and virtual arrays.

Each estimator resolves at most :func:`capacity` sources: one fewer than
the elements it works on, and two fewer for the ESPRIT forms, whose subarray
shift gives up one element. The harness checks a scenario against the same
rule when it compiles it.

References: Schmidt (1986) for MUSIC, Barabell (1983) for Root-MUSIC,
Roy & Kailath (1989) for ESPRIT, Mathews & Zoltowski (1994) for the
beamspace circular-array forms.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arrays import UniformLinearArray, sample_covariance
from .errors import (
    ArcsinOutOfRange,
    NoPeaksFound,
    RankDeficientSubspace,
    RootSolveFailure,
    TooFewSources,
    TooManySources,
    WrongGeometry,
)
from .numerics import herm_eig, inv_sqrt_psd, poly_roots
from .pme import PmeTransform, to_vula

DEFAULT_GRID_STEP = np.radians(0.1)


@dataclass(frozen=True)
class SubspaceSplit:
    """Signal/noise eigenvector split of a covariance matrix."""

    signal: np.ndarray  # (N, M)
    noise: np.ndarray  # (N, N-M)
    eigenvalues: np.ndarray  # descending, real


@dataclass(frozen=True)
class Spectrum:
    """Angular pseudospectrum sampled on a strictly increasing grid."""

    grid: np.ndarray  # radians
    power_db: np.ndarray


@dataclass(frozen=True)
class DoaEstimate:
    """Sorted azimuth estimates (radians) and the method that produced them."""

    azimuths: np.ndarray
    method: str


def capacity(method: str, size: int) -> int:
    """The most sources ``method`` resolves on an array (or virtual array) of ``size``
    elements: ``size - 2`` for ``esprit`` and ``uca-esprit``, ``size - 1`` otherwise."""
    return size - 2 if method in ("esprit", "uca-esprit") else size - 1


def _check_sources(method: str, size: int, n_sources: int) -> None:
    if n_sources < 1:
        raise TooFewSources("need at least one source")
    most = capacity(method, size)
    if n_sources > most:
        raise TooManySources(f"{method} resolves at most {most} sources, not {n_sources}")


def eig_split(r: np.ndarray, n_sources: int) -> SubspaceSplit:
    """Split a Hermitian covariance into signal and noise subspaces."""
    if n_sources < 1:
        raise TooFewSources("need at least one source")
    w, q = herm_eig(r)
    if n_sources >= w.size:
        raise TooManySources(f"{n_sources} sources with dimension {w.size}")
    return SubspaceSplit(signal=q[:, :n_sources], noise=q[:, n_sources:], eigenvalues=w)


def _angle_grid(geometry, step: float) -> np.ndarray:
    lo, hi = geometry.fov
    if step <= 0:
        raise ValueError("grid step must be positive")
    # Circular fields of view include the +180 degree endpoint.
    stop = hi + step / 2 if np.isclose(hi, np.pi) else hi - step / 2
    return np.arange(lo + step, stop, step)


@lru_cache(maxsize=8)
def _scan(geometry, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The MUSIC scan of a geometry: grid, steering matrix and the a^H a numerator.

    They depend only on the (hashable, frozen) geometry and the step, so every
    equal geometry shares one read-only copy.
    """
    grid = _angle_grid(geometry, step)
    a = geometry.steering(grid)
    num = np.sum(np.abs(a) ** 2, axis=0)
    for arr in (grid, a, num):
        arr.flags.writeable = False
    return grid, a, num


def _pick_peaks(grid: np.ndarray, power: np.ndarray, n_sources: int) -> np.ndarray:
    interior = power[1:-1]
    is_peak = (interior > power[:-2]) & (interior > power[2:])
    peaks = np.nonzero(is_peak)[0] + 1
    if peaks.size < n_sources:
        raise NoPeaksFound(f"found {peaks.size} spectral peaks, need {n_sources}")
    # Largest power first; equal powers resolve toward the smaller angle.
    order = np.lexsort((grid[peaks], -power[peaks]))
    chosen = peaks[order[:n_sources]]
    return np.sort(grid[chosen])


def _music_power(noise: np.ndarray, geometry, grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    """The scan grid and P(theta) = (a^H a) / (a^H Vn Vn^H a) for a noise subspace Vn."""
    grid, a, num = _scan(geometry, grid_step)
    den = np.sum(np.abs(noise.conj().T @ a) ** 2, axis=0)
    return grid, num / np.maximum(den, 1e-300)


def music_peaks(
    noise: np.ndarray, geometry, n_sources: int, grid_step: float = DEFAULT_GRID_STEP
) -> np.ndarray:
    """The azimuths :func:`music` estimates from a covariance whose noise subspace
    (the eigenvectors past the n_sources largest eigenvalues, as columns) is ``noise``;
    for a caller that has split many covariances at once."""
    return _pick_peaks(*_music_power(noise, geometry, grid_step), n_sources)


def music(
    r: np.ndarray,
    geometry,
    n_sources: int,
    grid_step: float = DEFAULT_GRID_STEP,
) -> tuple[Spectrum, DoaEstimate]:
    """MUSIC pseudospectrum and the angles of its n_sources largest peaks.

    P(theta) = (a^H a) / (a^H Vn Vn^H a) evaluated on a regular grid over
    the geometry's field of view. Works for any hashable geometry that
    provides a steering model (linear, circular, or beamspace virtual arrays).
    The grid, its steering matrix and the numerator are built once per
    (geometry, grid_step) and cached, so equal geometries share them; they
    are read-only, and so is the returned ``Spectrum.grid``.
    """
    _check_sources("music", geometry.size, n_sources)
    grid, power = _music_power(eig_split(r, n_sources).noise, geometry, grid_step)
    spectrum = Spectrum(grid=grid, power_db=10.0 * np.log10(power))
    estimate = DoaEstimate(
        azimuths=_pick_peaks(grid, power, n_sources), method="music"
    )
    return spectrum, estimate


def _lag_polynomial(c: np.ndarray) -> np.ndarray:
    """Descending coefficients of sum_k trace(C, k) z^(k + dim - 1)."""
    n = c.shape[0]
    return np.array([np.trace(c, offset=k) for k in range(n - 1, -n, -1)])


def _roots_inside_unit_circle(coeffs: np.ndarray, n_sources: int) -> np.ndarray:
    """The n_sources roots inside the unit circle with the largest modulus,
    each averaged with its conjugate-reciprocal partner.

    The coefficients are conjugate-symmetric, so the roots come in pairs
    (z, 1/conj(z)). A noiseless source is a double root on the circle,
    which the companion-matrix eigensolver splits by about sqrt(eps) in a
    direction that depends on the LAPACK build: the inside member alone
    is then off in phase by ~1e-8 rad. The partner of a selected root z is
    the nearest other root to 1/conj(z), searched over all roots so that a
    split leaving both halves on one side is still paired. The returned
    root z exp(0.5j arg(w / z)), with w = 1/conj(partner), has the phase of
    the geometric mean of z and w, which cancels the split to first order.
    For a simple root the partner is 1/conj(z) to rounding and the phase
    is unchanged.
    """
    roots = poly_roots(coeffs).roots
    inside = np.nonzero(np.abs(roots) < 1.0)[0]
    if inside.size < n_sources:
        raise RootSolveFailure(
            f"only {inside.size} roots inside the unit circle, need {n_sources}"
        )
    chosen = inside[np.argsort(-np.abs(roots[inside]))[:n_sources]]
    z = roots[chosen]
    dist = np.abs(roots[None, :] - 1.0 / np.conj(z)[:, None])
    dist[np.arange(n_sources), chosen] = np.inf
    w = 1.0 / np.conj(roots[np.argmin(dist, axis=1)])
    return z * np.exp(0.5j * np.angle(w / z))


def _ula_angles_from_phases(phases: np.ndarray, geometry: UniformLinearArray) -> np.ndarray:
    sin_arg = phases * geometry.wavelength / (2.0 * np.pi * geometry.spacing)
    if np.any(np.abs(sin_arg) > 1.0):
        raise ArcsinOutOfRange("recovered phase outside the arcsin domain")
    return np.sort(np.arcsin(sin_arg))


def root_music(r: np.ndarray, geometry, n_sources: int) -> DoaEstimate:
    """Root-MUSIC on a uniform linear array.

    The MUSIC denominator is a Laurent polynomial in z on the unit circle;
    its 2(N-1) roots come in conjugate-reciprocal pairs, and the n_sources
    members inside the circle with the largest modulus sit next to the
    signal zeros. Angles follow from arcsin(arg(z) lambda / (2 pi d)).
    Without noise each signal zero is a double root on the circle, which
    root finding splits by ~sqrt(eps); each selected root is therefore
    averaged with its conjugate-reciprocal partner so the noiseless
    estimate is exact to rounding whatever LAPACK is installed.
    """
    if not isinstance(geometry, UniformLinearArray):
        raise WrongGeometry("root_music needs a UniformLinearArray")
    _check_sources("root-music", geometry.size, n_sources)
    split = eig_split(r, n_sources)
    c = split.noise @ split.noise.conj().T
    # The physical steering phase decreases along the array, so conjugate
    # the lag polynomial to place signal roots at exp(+j phi).
    coeffs = np.conj(_lag_polynomial(c))
    roots = _roots_inside_unit_circle(coeffs, n_sources)
    return DoaEstimate(
        azimuths=_ula_angles_from_phases(np.angle(roots), geometry),
        method="root-music",
    )


def _invariance_eigs(vs: np.ndarray, n_sources: int) -> np.ndarray:
    v1 = vs[:-1, :]
    v2 = vs[1:, :]
    if np.linalg.matrix_rank(v1) < n_sources:
        raise RankDeficientSubspace("leading subarray subspace lost rank")
    psi, *_ = np.linalg.lstsq(v1, v2, rcond=None)
    return np.linalg.eigvals(psi)


def esprit(x: np.ndarray, geometry, n_sources: int) -> DoaEstimate:
    """ESPRIT on a uniform linear array from raw snapshots.

    The two maximally overlapping (N-1)-element subarrays see signal
    subspaces related by V2 = V1 Psi; the eigenvalue phases of the
    least-squares Psi are the inter-element phase shifts of the sources.
    """
    if not isinstance(geometry, UniformLinearArray):
        raise WrongGeometry("esprit needs a UniformLinearArray")
    _check_sources("esprit", geometry.size, n_sources)
    split = eig_split(sample_covariance(x), n_sources)
    eigs = _invariance_eigs(split.signal, n_sources)
    # Steering phase decreases along the array, so negate before arcsin.
    return DoaEstimate(
        azimuths=_ula_angles_from_phases(-np.angle(eigs), geometry),
        method="esprit",
    )


def uca_root_music(x: np.ndarray, transform: PmeTransform, n_sources: int) -> DoaEstimate:
    """Root-MUSIC for a circular array through the prewhitened beamspace.

    Snapshots are mapped with the row-orthonormal transform so the noise
    stays white; the rooted polynomial carries the (Tv Tv^H)^(-1/2)
    equalizer on both sides of the noise projector, and each selected root
    gives the azimuth directly as its phase. As in root_music, each root is
    averaged with its conjugate-reciprocal partner, which cancels the
    ~sqrt(eps) split of the double root a noiseless source produces.
    """
    _check_sources("uca-root-music", transform.vula_size, n_sources)
    xv = to_vula(x, transform, prewhitened=True)
    split = eig_split(sample_covariance(xv), n_sources)
    whiten = inv_sqrt_psd(transform.Tv @ transform.Tv.conj().T)
    c = whiten @ (split.noise @ split.noise.conj().T) @ whiten
    roots = _roots_inside_unit_circle(_lag_polynomial(c), n_sources)
    return DoaEstimate(azimuths=np.sort(np.angle(roots)), method="uca-root-music")


def uca_esprit(x: np.ndarray, transform: PmeTransform, n_sources: int) -> DoaEstimate:
    """ESPRIT for a circular array through the beamspace transform.

    The virtual-array noise is colored by the mode equalizer (covariance
    proportional to Tv Tv^H), which would bias an eigendecomposition of
    the plain-mapped covariance. The signal subspace is therefore taken
    from the sample covariance of the prewhitened mapping and carried back
    into the plain (vandermonde) basis with (Tv Tv^H)^(1/2); a per-row
    whitening of the doublets themselves would destroy the shift
    invariance the rotation relation depends on.
    """
    _check_sources("uca-esprit", transform.vula_size, n_sources)
    xv = to_vula(x, transform, prewhitened=True)
    split = eig_split(sample_covariance(xv), n_sources)
    w, q = herm_eig(transform.Tv @ transform.Tv.conj().T)
    color = (q * np.sqrt(w)) @ q.conj().T  # (Tv Tv^H)^(1/2)
    vs = color @ split.signal
    eigs = _invariance_eigs(vs, n_sources)
    return DoaEstimate(azimuths=np.sort(np.angle(eigs)), method="uca-esprit")
