"""Subspace DOA estimation: MUSIC spectral search, Root-MUSIC polynomial
rooting, ESPRIT rotational invariance, and their circular-array variants
operating in the phase-mode beamspace.

All estimators are deterministic functions of their inputs. Estimates are
reported inside the geometry's unambiguous field of view: (-90, 90) degrees
for linear arrays (a cone ambiguity mirrors angles about the array axis),
(-180, 180] for circular and virtual arrays.

Each estimator returns its sorted azimuths as one array (:func:`music` returns
its :class:`Spectrum` with them), and :func:`eig_split` gives the signal and noise
eigenvectors as a pair of column blocks. Each estimator resolves at most
:func:`capacity` sources: one fewer than the elements it works on, and two fewer
for the ESPRIT forms, whose subarray shift gives up one element. The harness
checks a scenario against the same rule when it compiles it. A caller that runs
many trials at once splits their covariances as one stack (:func:`eigenbases`)
and scores each trial's estimates with :func:`azimuth_error`.

Both Root-MUSIC forms root a real polynomial (:func:`_signal_phases`): the Cayley
map z = (1 + jt) / (1 - jt) takes the conjugate-symmetric polynomial in z to a
real one in t of the same degree, whose roots with Im t > 0 lie inside the unit
circle and come with their exact conjugate-reciprocal partners. Where the map's
pole z = -1 lies near a root, the polynomial is first turned to put the pole at
the largest of 2n fixed points. On n elements the real polynomial's coefficients
grow as 4^(n - 1), and its roots lose digits that the complex one's keep, so both
forms root at most :data:`ROOTING_MOST` elements, where they stay within 1e-14 rad
of the exact roots.

References: Schmidt (1986) for MUSIC, Barabell (1983) for Root-MUSIC,
Pesavento, Gershman & Haardt (2000) for rooting it as a real polynomial,
Roy & Kailath (1989) for ESPRIT, Mathews & Zoltowski (1994) for the
beamspace circular-array forms.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as poly

from .arrays import UniformLinearArray, sample_covariance, snapshots
from .decorrelate import smooth
from .errors import (
    ArcsinOutOfRange,
    NoPeaksFound,
    RankDeficientSubspace,
    RootSolveFailure,
    TooFewSources,
    TooManySources,
    WrongGeometry,
)
from .numerics import herm_eig, herm_eig_stack, one_blas_thread, poly_roots
from .pme import PmeTransform, to_vula

DEFAULT_GRID_STEP = np.radians(0.1)
# The most elements a Root-MUSIC polynomial is rooted on (:func:`_signal_phases`). On
# two-source half-wavelength ULAs the real form's phases were at most 1e-14 rad off the
# exact roots at 16 elements and 8e-11 at 32 (noiseless covariances, and noisy ones
# against 60-digit mpmath roots); at 64, noiseless sources came out tens of degrees off.
ROOTING_MOST = 16


@dataclass(frozen=True)
class Spectrum:
    """Angular pseudospectrum sampled on a strictly increasing grid: its linear power
    and, as a property, that power in dB."""

    grid: np.ndarray  # radians
    power: np.ndarray  # linear

    @property
    def power_db(self) -> np.ndarray:
        return 10.0 * np.log10(self.power)


def capacity(method: str, size: int) -> int:
    """The most sources ``method`` resolves on an array (or virtual array) of ``size``
    elements: ``size - 2`` for ``esprit`` and ``uca-esprit``, ``size - 1`` otherwise."""
    return size - 2 if method in ("esprit", "uca-esprit") else size - 1


def scan_capacity(geometry, grid_step: float) -> int:
    """The most strict peaks a MUSIC scan of ``geometry`` at ``grid_step`` can show. No two
    neighbours of its g grid points are both peaks, and neither end of a linear field of
    view is one: at most (g - 1) // 2 there, and g // 2 on a full circle, whose two ends
    are neighbours. A geometry whose steering vectors on the grid are one vector to within
    rounding (a ring or line with no aperture to speak of) has a spectrum that is flat but
    for rounding, which shows no peak of a source."""
    grid, a, _ = _scan(geometry, grid_step)
    g = grid.size
    if g == 0:
        return 0
    spread = np.ptp(a.real, axis=1) + np.ptp(a.imag, axis=1)  # no (n, g) temporaries
    if np.all(spread <= np.finfo(float).eps * np.abs(a[:, 0])):
        return 0
    return g // 2 if _circular(geometry) else max(g - 1, 0) // 2


def _check_sources(method: str, size: int, n_sources: int) -> None:
    if n_sources < 1:
        raise TooFewSources("need at least one source")
    most = capacity(method, size)
    if n_sources > most:
        raise TooManySources(f"{method} resolves at most {most} sources, not {n_sources}")
    if method.endswith("root-music") and size > ROOTING_MOST:
        raise WrongGeometry(f"{method} roots at most {ROOTING_MOST} elements, not {size}")


def eig_split(r: np.ndarray, n_sources: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a Hermitian (N, N) covariance into its (N, M) signal and (N, N - M) noise
    subspaces: the eigenvectors of its n_sources largest eigenvalues and of the rest."""
    if n_sources < 1:
        raise TooFewSources("need at least one source")
    q = herm_eig(r)[1]
    if n_sources >= len(q):
        raise TooManySources(f"{n_sources} sources with dimension {len(q)}")
    return q[:, :n_sources], q[:, n_sources:]


def covariance(x: np.ndarray, transform: PmeTransform | None) -> np.ndarray:
    """The sample covariance of (N, K) snapshots or a (T, N, K) stack of them; of their
    map into the beamspace (the plain transform, which keeps the shift structure
    smoothing needs) where a ring's ``transform`` is given."""
    return sample_covariance(x if transform is None else np.asarray(transform.Tv @ x))


def eigenbases(steer, s, noise, transform, plan, failed) -> tuple[np.ndarray, np.ndarray]:
    """The (T, n, n) orthonormal eigenbases, columns by descending eigenvalue, of the
    covariances of T trials' snapshots, for a caller that splits many covariances at
    once and scans them with :func:`music_peaks`: trial t's snapshots
    ``steer[t] @ s[t] (+ noise[t])`` (:func:`arrays.snapshots`, ``steer`` (T, N, M)),
    mapped by a ring's ``transform`` (:func:`covariance`) and smoothed forward/backward by
    ``plan`` where they are given. Each covariance is checked and split as
    :func:`numerics.herm_eig_stack` does, which records its failure in ``failed``;
    each basis has the bits of its own trial's ``herm_eig``."""
    r = covariance(snapshots(steer, s, noise), transform)
    if plan is not None:  # a sample covariance is Hermitian: smooth skips fbss's check
        r = smooth(r, plan, forward_backward=True)
    _, q, failed = herm_eig_stack(r, failed)
    return q, failed


def azimuth_error(estimates: np.ndarray, truths: np.ndarray, circular: bool) -> float:
    """The RMS error, degrees, of sorted azimuth ``estimates`` against the sorted
    ``truths`` (the mean by ``np.add.reduce``'s arithmetic). For an array that sees the
    full ``circular`` field of view, the best cyclic pairing where that is lower (an
    estimate near +180 deg of a source near -180 deg): each difference wrapped into
    [-pi, pi], one within it kept as it is."""
    d = estimates - truths
    error = math.sqrt(float(np.add.reduce(d * d) / d.size))
    if circular:
        d = np.array([np.roll(estimates, k) - truths for k in range(len(truths))])
        d -= 2.0 * np.pi * np.round(d / (2.0 * np.pi))
        error = min(error, math.sqrt(float(np.min(np.mean(d**2, axis=1)))))
    return math.degrees(error)


def _circular(geometry) -> bool:
    """Whether the geometry sees the full circle, (-pi, pi], rather than a linear field."""
    return geometry.fov[1] == np.pi


def _angle_grid(geometry, step: float) -> np.ndarray:
    lo, hi = geometry.fov
    if step <= 0:
        raise ValueError("grid step must be positive")
    # Circular fields of view include the +180 degree endpoint.
    stop = hi + step / 2 if _circular(geometry) else hi - step / 2
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


def _pick_peaks(
    grid: np.ndarray, power: np.ndarray, n_sources: int, circular: bool = False
) -> np.ndarray:
    """The grid angles of the n_sources largest strict peaks of ``power``, sorted. On a
    linear field of view the two ends have one neighbour and are never peaks; on a
    ``circular`` one they are each other's neighbours, and the last grid point, which a
    step that does not divide the circle puts past pi, is reported in (-pi, pi]."""
    padded = np.concatenate([power[-1:], power, power[:1]]) if circular else power
    interior = padded[1:-1]
    is_peak = (interior > padded[:-2]) & (interior > padded[2:])
    peaks = np.nonzero(is_peak)[0] + (0 if circular else 1)
    if peaks.size < n_sources:
        raise NoPeaksFound(f"found {peaks.size} spectral peaks, need {n_sources}")
    # Largest power first; equal powers resolve toward the smaller angle.
    order = np.lexsort((grid[peaks], -power[peaks]))
    chosen = grid[peaks[order[:n_sources]]]
    if circular and chosen.size and grid[-1] > np.pi + 1e-9:  # past pi beyond rounding
        chosen = np.where(chosen > np.pi, chosen - 2.0 * np.pi, chosen)
    return np.sort(chosen)


def _subspace_norms(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """||V^H a||^2 for each column of the steering matrix ``a``, from one product V^H a.
    Its callers' entry points (:func:`music_peaks`, :func:`music_spectrum`) hold
    OpenBLAS on one thread (:data:`numerics.one_blas_thread`), so the product's bits do
    not depend on the caller's BLAS thread count and no worker thread spins between
    scans."""
    magnitude = np.abs(v.conj().T @ a)
    return np.add.reduce(np.square(magnitude, out=magnitude), axis=0)  # np.sum, unwrapped


def _music_power(q: np.ndarray, m: int, geometry, grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    """The scan grid and P(theta) = (a^H a) / (a^H Vn Vn^H a) for one covariance whose
    orthonormal eigenbasis, columns by descending eigenvalue, is the (n, n) ``q``: its
    first m columns Vs span the signal subspace, the other n - m columns Vn the noise
    subspace.

    Vn Vn^H = I - Vs Vs^H for an orthonormal basis, so the denominator is also
    a^H a - ||Vs^H a||^2 (the projector identity behind MUSIC, Schmidt 1986), and the
    scan multiplies the steering matrix by the smaller column set: Vs where m < n - m,
    else Vn (a tie keeps Vn, whose form has no subtraction). The subtraction cancels
    where the steering vector all but lies in the signal subspace, leaving an absolute
    error of up to about n eps a^H a. A true denominator that small occurs only at a grid
    point within about 1e-8 rad of a source of a noiseless or near-noiseless covariance,
    where the noise form's own denominator is rounding too: which of two such neighbouring
    points is the peak then depends on the product's last bits, which only the noise
    form's own product reproduces. So a scan in which any denominator falls below
    n eps max(a^H a) is redone in the noise form; every other scan keeps the m-row
    product.
    Its picks equal the noise form's at any SNR, sources on grid points included
    (``tests/test_doa.py``' property test). The caller holds
    :data:`numerics.one_blas_thread`, once for all the scans it makes."""
    grid, a, num = _scan(geometry, grid_step)
    if m < q.shape[0] - m:
        den = num - _subspace_norms(q[:, :m], a)
        if den.min(initial=np.inf) >= q.shape[0] * np.finfo(float).eps * num.max(initial=0.0):
            return grid, num / den
    den = _subspace_norms(q[:, m:], a)
    return grid, num / np.maximum(den, 1e-300)


def music_peaks(
    q: np.ndarray, geometry, n_sources: int, grid_step: float = DEFAULT_GRID_STEP
) -> tuple[np.ndarray, np.ndarray]:
    """The azimuths :func:`music` estimates from each covariance of a stack whose
    orthonormal eigenbases, columns by descending eigenvalue, are the (T, n, n) ``q``
    (:func:`eigenbases`); for a caller that has split many covariances at once. Each
    scan takes the first n_sources columns as the signal subspace and the rest as the
    noise subspace, and multiplies the steering matrix by the smaller of the two where
    that keeps its digits (:func:`_music_power`).

    Returns the (T, n_sources) azimuths, each row sorted, and per basis ``None`` or
    the ``NoPeaksFound`` that :func:`music` raises when its spectrum shows fewer than
    n_sources peaks (its row is NaN). The scan and the pick run one basis at a time,
    all of them under one hold of :data:`numerics.one_blas_thread`."""
    circular = _circular(geometry)
    azimuths = np.full((len(q), n_sources), np.nan)
    failed = np.full(len(q), None, dtype=object)
    with one_blas_thread:
        for i, basis in enumerate(q):
            try:
                grid, power = _music_power(basis, n_sources, geometry, grid_step)
                azimuths[i] = _pick_peaks(grid, power, n_sources, circular)
            except NoPeaksFound as exc:
                failed[i] = exc
    return azimuths, failed


def music_spectrum(
    r: np.ndarray, geometry, n_sources: int, grid_step: float = DEFAULT_GRID_STEP
) -> Spectrum:
    """The pseudospectrum :func:`music` returns, without its peak search: MUSIC's source
    check, eigensplit and scan (the scan under one hold of
    :data:`numerics.one_blas_thread`). A spectrum with fewer peaks than ``n_sources`` is
    still returned."""
    _check_sources("music", geometry.size, n_sources)
    q = herm_eig(r)[1]
    with one_blas_thread:
        grid, power = _music_power(q, n_sources, geometry, grid_step)
    return Spectrum(grid=grid, power=power)


def music(
    r: np.ndarray,
    geometry,
    n_sources: int,
    grid_step: float = DEFAULT_GRID_STEP,
) -> tuple[Spectrum, np.ndarray]:
    """MUSIC pseudospectrum and the sorted angles of its n_sources largest peaks.

    P(theta) = (a^H a) / (a^H Vn Vn^H a) evaluated on a regular grid over
    the geometry's field of view. Since Vn Vn^H = I - Vs Vs^H, the scan
    computes the denominator as a^H a - ||Vs^H a||^2 where the signal
    subspace Vs has fewer columns than Vn, and from Vn otherwise. The
    subtraction loses its digits only at a grid point all but on a noiseless
    source; a scan where it does is redone from Vn, so the peaks are the
    noise form's at any SNR (see :func:`_music_power`). Works for any
    hashable geometry that provides a steering model (linear, circular, or
    beamspace virtual arrays).
    On a circular field of view the grid's two ends are neighbours, so a
    source near +-180 degrees is a peak like any other.
    The grid, its steering matrix and the numerator are built once per
    (geometry, grid_step) and cached, so equal geometries share them; they
    are read-only, and so is the returned ``Spectrum.grid``. Each scan is one
    product, run with numpy's OpenBLAS held on one thread
    (:data:`numerics.one_blas_thread`), so the spectrum's bits do not depend on
    the BLAS thread count, under any of OpenBLAS's kernels. With another BLAS
    the guard does nothing, and they may.
    """
    spectrum = music_spectrum(r, geometry, n_sources, grid_step)
    return spectrum, _pick_peaks(spectrum.grid, spectrum.power, n_sources, _circular(geometry))


def _lag_polynomial(c: np.ndarray) -> np.ndarray:
    """The upper-diagonal sums p_k = trace(C, k), k = 0 ... dim - 1: the coefficients of
    z^k in the Laurent polynomial D(z) = sum_k trace(C, k) z^k of a Hermitian C, whose
    lower diagonals sum to their conjugates.

    Each diagonal is summed on its own, by the reduction ``np.trace`` runs, so the
    bits are its; summing them as segments of one array would group the additions
    differently (numpy's pairwise sum depends on the length it is given)."""
    return np.array([c.diagonal(k).sum() for k in range(c.shape[0])])


@lru_cache(maxsize=8)
def _cayley_basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed real basis that maps n upper-diagonal sums p to the descending
    coefficients of Q(t) = (1 + t^2)^(n - 1) D(z(t)), z(t) = (1 + jt) / (1 - jt), and
    the two (2n, n) tables of the pole rule for the points psi_i = pi i / n.

    With m = n - 1, Q(t) = sum_k w_k Re(p_k (1 + jt)^(m + k) (1 - jt)^(m - k)), w_0 = 1
    and w_k = 2 otherwise. The t^d coefficient of the k-th product is j^d times an
    integer, so an even power of Q takes the real parts of p alone and an odd power the
    imaginary parts. The basis is that real (2n - 1) x n matrix with its columns spread
    over the slots of ``p.view(float)`` (real, imaginary, real, ...), zero in the slot a
    row does not read; its integers stay below 2^31 for n <= :data:`ROOTING_MOST`, so
    floats hold them exactly. ``turns[i, k]`` is exp(j k psi_i), and ``poles[i] @ p`` has the
    real part D(-exp(j psi_i)): the value at z' = -1 of the polynomial turned by psi_i,
    p_k exp(j k psi_i)."""
    m, w, d = n - 1, np.where(np.arange(n) == 0, 1.0, 2.0), np.arange(2 * n - 1)
    basis, sign = np.zeros((2 * m + 1, 2 * n)), np.array([1.0, -1.0, -1.0, 1.0])[d % 4]
    for k in range(n):  # (1 + x)^(m + k) (1 - x)^(m - k) at x^d, x = jt
        e = poly.polymul(poly.polypow([1.0, 1.0], m + k), poly.polypow([1.0, -1.0], m - k))
        basis[2 * m - d, 2 * k + d % 2] = w[k] * sign * e  # Re(j^d p): Re p, -Im p, -Re p, Im p
    turns = np.exp(1j * np.pi / n * np.outer(np.arange(2 * n), np.arange(n)))
    poles = turns * w * (-1.0) ** np.arange(n)
    for arr in (basis, turns, poles):
        arr.flags.writeable = False
    return basis, turns, poles


def _signal_phases(p: np.ndarray, n_sources: int) -> np.ndarray:
    """The phases of the n_sources signal roots of D(z) = sum_k p_k z^k, p_(-k) =
    conj(p_k), from its n <= :data:`ROOTING_MOST` upper-diagonal sums p
    (:func:`_lag_polynomial`).

    The Cayley map z = (1 + jt) / (1 - jt) takes the unit circle to the real line, so
    Q(t) = (1 + t^2)^(n - 1) D(z(t)) is a real polynomial of D's degree, 2(n - 1)
    (:func:`_cayley_basis`), and LAPACK's real eigensolver returns its complex roots in
    exact conjugate pairs: real-valued rooting as in unitary Root-MUSIC (Pesavento,
    Gershman & Haardt, 2000), without its forward-backward averaging. A root with
    Im t > 0 is a root inside the circle, and its conjugate-reciprocal partner is exactly
    conj(t). Those rank by |z|, largest first, as Root-MUSIC ranks its roots inside the
    circle. A noiseless source is a double root on the circle, which rounding splits
    into a conjugate pair, whose z has the source's phase to second order, or into two
    real roots t1 < t2, adjacent in sorted order: their phase is atan t1 + atan t2, the
    midpoint's, and such pairs rank first. Q keeps its full degree (the pole rule below)
    and its complex roots come in pairs, so its real roots are even in number.

    Q's leading coefficient is D(-1): the Cayley pole z = -1 must not sit on a root.
    Where |D(-1)| < 1e-6 p_0 the polynomial is turned to p_k exp(j k psi), with psi the
    one of the 2n points pi i / n that puts the largest |D| at the pole, and psi is added
    back to the phases, wrapped into (-pi, pi]."""
    p = np.ascontiguousarray(p, dtype=np.complex128)
    basis, turns, poles = _cayley_basis(p.size)
    q = basis @ p.view(np.float64)
    psi = 0.0
    if not abs(q[0]) >= 1e-6 * p[0].real:  # a NaN turns too
        i = int(np.argmax(np.abs((poles @ p).real)))
        psi = np.pi * i / p.size
        q = basis @ (p * turns[i]).view(np.float64)
    t = poly_roots(q)
    real = np.arctan(np.sort(t[t.imag == 0].real))
    upper = t[t.imag > 0]
    z = (1.0 + 1j * upper) / (1.0 - 1j * upper)
    phases = np.concatenate([real[0::2] + real[1::2], np.angle(z[np.argsort(-np.abs(z))])])
    if phases.size < n_sources:
        raise RootSolveFailure(f"only {phases.size} roots in or on the circle, need {n_sources}")
    phases = phases[:n_sources]
    return np.pi - np.mod(np.pi - (phases + psi), 2.0 * np.pi) if psi else phases


def _ula_angles_from_phases(phases: np.ndarray, geometry: UniformLinearArray) -> np.ndarray:
    sin_arg = phases * geometry.wavelength / (2.0 * np.pi * geometry.spacing)
    if np.any(np.abs(sin_arg) > 1.0):
        raise ArcsinOutOfRange("recovered phase outside the arcsin domain")
    return np.sort(np.arcsin(sin_arg))


def root_music(r: np.ndarray, geometry, n_sources: int) -> np.ndarray:
    """Root-MUSIC on a uniform linear array.

    The MUSIC denominator is a Laurent polynomial in z on the unit circle;
    its 2(N-1) roots come in conjugate-reciprocal pairs, and the n_sources
    members inside the circle with the largest modulus sit next to the
    signal zeros. Angles follow from arcsin(arg(z) lambda / (2 pi d)).
    The polynomial is rooted in t, through the Cayley map
    z = (1 + jt) / (1 - jt), as a real polynomial of the same degree
    (Pesavento, Gershman & Haardt, 2000): a root inside the circle is one
    with Im t > 0, and its partner is exactly conj(t). Without noise each
    signal zero is a double root on the circle, which root finding splits
    by ~sqrt(eps), into a conjugate pair or two real roots; a real pair
    t1, t2 gives the phase atan t1 + atan t2, and ranks first, so the
    noiseless estimate is exact to rounding whatever LAPACK is installed.
    The map's pole z = -1 is turned away from a source whose phase is
    near pi (:func:`_signal_phases`). The real polynomial loses digits as
    N grows, so an array of more than :data:`ROOTING_MOST` elements raises
    ``WrongGeometry``.
    """
    if not isinstance(geometry, UniformLinearArray):
        raise WrongGeometry("root_music needs a UniformLinearArray")
    _check_sources("root-music", geometry.size, n_sources)
    noise = eig_split(r, n_sources)[1]
    c = noise @ noise.conj().T
    # The physical steering phase decreases along the array, so conjugate
    # the lag polynomial to place signal roots at exp(+j phi).
    phases = _signal_phases(np.conj(_lag_polynomial(c)), n_sources)
    return _ula_angles_from_phases(phases, geometry)


def _invariance_eigs(vs: np.ndarray, n_sources: int) -> np.ndarray:
    v1 = vs[:-1, :]
    v2 = vs[1:, :]
    if np.linalg.matrix_rank(v1) < n_sources:
        raise RankDeficientSubspace("leading subarray subspace lost rank")
    psi, *_ = np.linalg.lstsq(v1, v2, rcond=None)
    return np.linalg.eigvals(psi)


def esprit(x: np.ndarray, geometry, n_sources: int) -> np.ndarray:
    """ESPRIT on a uniform linear array from raw snapshots.

    The two maximally overlapping (N-1)-element subarrays see signal
    subspaces related by V2 = V1 Psi; the eigenvalue phases of the
    least-squares Psi are the inter-element phase shifts of the sources.
    """
    if not isinstance(geometry, UniformLinearArray):
        raise WrongGeometry("esprit needs a UniformLinearArray")
    _check_sources("esprit", geometry.size, n_sources)
    signal = eig_split(sample_covariance(x), n_sources)[0]
    eigs = _invariance_eigs(signal, n_sources)
    # Steering phase decreases along the array, so negate before arcsin.
    return _ula_angles_from_phases(-np.angle(eigs), geometry)


def uca_root_music(x: np.ndarray, transform: PmeTransform, n_sources: int) -> np.ndarray:
    """Root-MUSIC for a circular array through the prewhitened beamspace.

    Snapshots are mapped with the row-orthonormal transform so the noise
    stays white; the rooted polynomial carries the (Tv Tv^H)^(-1/2)
    equalizer (``transform.whiten``) on both sides of the noise projector,
    and each selected root gives the azimuth directly as its phase. As in
    root_music, the polynomial is rooted as a real one through the Cayley
    map, whose pole z = -1 is turned away from a source near 180 degrees,
    and the two real roots into which rounding splits the double root of a
    noiseless source give its phase as atan t1 + atan t2. A virtual array
    of more than :data:`ROOTING_MOST` elements raises ``WrongGeometry``.
    """
    _check_sources("uca-root-music", transform.vula_size, n_sources)
    xv = to_vula(x, transform, prewhitened=True)
    noise = eig_split(sample_covariance(xv), n_sources)[1]
    c = transform.whiten @ (noise @ noise.conj().T) @ transform.whiten
    return np.sort(_signal_phases(_lag_polynomial(c), n_sources))


def uca_esprit(x: np.ndarray, transform: PmeTransform, n_sources: int) -> np.ndarray:
    """ESPRIT for a circular array through the beamspace transform.

    The virtual-array noise is colored by the mode equalizer (covariance
    proportional to Tv Tv^H), which would bias an eigendecomposition of
    the plain-mapped covariance. The signal subspace is therefore taken
    from the sample covariance of the prewhitened mapping and carried back
    into the plain (vandermonde) basis with (Tv Tv^H)^(1/2)
    (``transform.color``); a per-row whitening of the doublets themselves
    would destroy the shift invariance the rotation relation depends on.
    """
    _check_sources("uca-esprit", transform.vula_size, n_sources)
    xv = to_vula(x, transform, prewhitened=True)
    vs = transform.color @ eig_split(sample_covariance(xv), n_sources)[0]
    eigs = _invariance_eigs(vs, n_sources)
    return np.sort(np.angle(eigs))
