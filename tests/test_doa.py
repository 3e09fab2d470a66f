import ctypes
import itertools
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wsnloc.arrays import (
    SourceSet,
    UniformCircularArray,
    UniformLinearArray,
    analytic_covariance,
    sample_covariance,
    synthesize_snapshots,
)
from wsnloc import doa
from wsnloc.doa import (
    _pick_peaks,
    _signal_phases,
    eig_split,
    esprit,
    music,
    root_music,
    uca_esprit,
    uca_root_music,
)
from wsnloc.decorrelate import SmoothingPlan, fbss
from wsnloc.errors import (
    CoincidentSources,
    NoPeaksFound,
    NonHermitian,
    NumericOverflow,
    RankDeficientSubspace,
    TooFewSources,
    TooManySources,
    WrongGeometry,
    WsnlocError,
)
from wsnloc.harness import rng_for_trial
from wsnloc.numerics import herm_eig, one_blas_thread, poly_roots
from wsnloc.pme import build_transform, VandermondeArray


def ula(n):
    return UniformLinearArray(n=n, spacing=0.5, wavelength=1.0)


def wrapped_deg(a, b):
    return np.degrees(np.abs((a - b + np.pi) % (2 * np.pi) - np.pi))


class TestEigSplit:
    def test_isotropic_split_still_orthogonal(self):
        signal, noise = eig_split(2.0 * np.eye(6), 2)
        assert signal.shape == (6, 2) and noise.shape == (6, 4)
        assert np.max(np.abs(signal.conj().T @ noise)) < 1e-10

    def test_single_source_signal_space(self):
        g = ula(6)
        theta = np.radians(15.0)
        r = analytic_covariance(g, SourceSet(azimuths=[theta]))
        signal, _ = eig_split(r, 1)
        a = g.steering(theta) / np.sqrt(6)
        overlap = np.abs(a.conj() @ signal[:, 0])
        assert np.arccos(min(overlap, 1.0)) < 1e-8

    def test_noise_eigenvalues_at_noise_floor(self):
        g = ula(7)
        src = SourceSet(azimuths=np.radians([-20.0, 35.0]))
        r = analytic_covariance(g, src, noise_var=0.3)
        _, noise = eig_split(r, 2)
        # the noise subspace's Rayleigh quotients are its eigenvalues
        assert np.allclose(noise.conj().T @ r @ noise, 0.3 * np.eye(5), atol=1e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            eig_split(np.array([[1.0, 1.0], [0.0, 1.0]]), 1)

    def test_too_many_sources(self):
        with pytest.raises(TooManySources):
            eig_split(np.eye(4), 4)


class TestMusic:
    def test_single_source_analytic(self):
        g = ula(8)
        r = analytic_covariance(g, SourceSet(azimuths=[np.radians(10.0)]), 0.01)
        spectrum, est = music(r, g, 1)
        assert np.degrees(est[0]) == pytest.approx(10.0, abs=0.1)
        assert spectrum.grid.shape == spectrum.power_db.shape
        assert np.all(np.diff(spectrum.grid) > 0)

    def test_two_sources_at_ten_db(self):
        g = ula(8)
        src = SourceSet(azimuths=np.radians([-10.0, 10.0]))
        x = synthesize_snapshots(g, src, 100, 10.0, rng_for_trial(1, 0, 0))
        _, est = music(sample_covariance(x), g, 2)
        assert np.allclose(np.degrees(est), [-10.0, 10.0], atol=0.5)

    def test_coherent_failure_mode_preserved(self):
        # rank-one coherent covariance: the spectrum cannot produce one
        # peak per source (here the pair fuses into a single broad hump)
        g = ula(4)
        src = SourceSet(azimuths=np.radians([-10.0, 10.0]), coherent=True)
        r = analytic_covariance(g, src)
        with pytest.raises(NoPeaksFound):
            music(r, g, 2)

    def test_denominator_non_negative(self):
        g = ula(6)
        src = SourceSet(azimuths=np.radians([5.0, 40.0]))
        x = synthesize_snapshots(g, src, 100, 5.0, rng_for_trial(3, 0, 0))
        _, noise = eig_split(sample_covariance(x), 2)
        grid = np.linspace(-np.pi / 2 + 0.01, np.pi / 2 - 0.01, 721)
        a = g.steering(grid)
        den = np.sum(np.abs(noise.conj().T @ a) ** 2, axis=0)
        assert np.all(den >= 0)

    def test_detects_n_minus_one_uncorrelated(self):
        g = ula(5)
        truth = np.radians([-40.0, -15.0, 10.0, 35.0])
        r = analytic_covariance(g, SourceSet(azimuths=truth))
        _, est = music(r, g, 4)
        assert np.allclose(np.degrees(est), np.degrees(truth), atol=0.5)

    def test_too_many_sources(self):
        with pytest.raises(TooManySources):
            music(np.eye(4), ula(4), 4)

    @pytest.mark.parametrize("n_sources", [1, 2])  # the signal form, then the noise form
    def test_empty_grid_has_no_peaks(self, n_sources):
        with pytest.raises(NoPeaksFound, match="found 0 spectral peaks"):
            music(np.eye(4), ula(4), n_sources, grid_step=4.0)


def scan_power(signal, noise, a, num, lag):
    """MUSIC's power a^H a / (a^H Vn Vn^H a) on steering columns ``a``, written out. On a
    Vandermonde geometry (``lag``) the denominator is the real lag table, w_k cos(k psi)
    and -w_k sin(k psi) interleaved (w_0 = 1, w_k = 2) from ``a``'s own entries, times
    the real and imaginary parts of the upper-diagonal sums of Vn Vn^H, each diagonal
    taken in turn and summed by one ``np.add.reduceat``, where none of it falls below
    2n eps sum_k w_k (|Re p_k| + |Im p_k|). Elsewhere it is a^H a - ||Vs^H a||^2 from the
    signal columns where they are fewer than the noise columns and none of it falls below
    n eps max(a^H a). Otherwise it is ||Vn^H a||^2."""
    n = a.shape[0]
    if lag:
        c = noise @ noise.conj().T
        lengths = np.arange(n, 0, -1)
        diagonals = np.concatenate([c.diagonal(k) for k in range(n)])
        p = np.add.reduceat(diagonals, np.concatenate([[0], np.cumsum(lengths[:-1])]))
        parts = p.astype(np.complex128).view(np.float64)
        w = np.where(np.arange(n) == 0, 1.0, 2.0)
        table = np.empty((a.shape[1], 2 * n))
        table[:, 0::2], table[:, 1::2] = (w[:, None] * a.real).T, (-w[:, None] * a.imag).T
        den = table @ parts
        if np.all(den >= 2 * n * np.finfo(float).eps * np.sum(np.repeat(w, 2) * np.abs(parts))):
            return num / den
    elif signal.shape[1] < noise.shape[1]:
        den = num - np.sum(np.abs(signal.conj().T @ a) ** 2, axis=0)
        if np.all(den >= n * np.finfo(float).eps * np.max(num, initial=0.0)):
            return num / den
    return num / np.maximum(np.sum(np.abs(noise.conj().T @ a) ** 2, axis=0), 1e-300)


def vandermonde(g):
    """Whether ``g`` steers exp(jk psi) on element k, where MUSIC scans in the lag form."""
    return isinstance(g, (UniformLinearArray, VandermondeArray))


def uncached_music(r, g, n_sources, step):
    """MUSIC with its grid, steering matrix and numerator built inline."""
    lo, hi = g.fov
    stop = hi + step / 2 if np.isclose(hi, np.pi) else hi - step / 2
    grid = np.arange(lo + step, stop, step)
    a = g.steering(grid)
    num = np.sum(np.abs(a) ** 2, axis=0)
    with one_blas_thread:  # as the library's scan
        power = scan_power(*eig_split(r, n_sources), a, num, vandermonde(g))
    return 10.0 * np.log10(power), _pick_peaks(grid, power, n_sources)


SCAN_GEOMETRIES = {
    "ula": lambda: ula(8),
    "uca": lambda: UniformCircularArray(n=8, radius=0.55, elevation=np.radians(40.0), wavelength=1.0),
    "vandermonde": lambda: VandermondeArray(7),
}


# The shipped scans: doa_ula_music's ULA, the hybrid rings of 4 and 16 elements and the
# 6-element virtual subarray that hybrid fbss smooths onto.
FORM_GEOMETRIES = [
    ula(8),
    UniformCircularArray(n=4, radius=0.3183, elevation=np.pi / 2, wavelength=1.0),
    UniformCircularArray(n=16, radius=0.7, elevation=np.pi / 2, wavelength=1.0),
    VandermondeArray(6),
]


def noise_form_music(r, g, n_sources, step):
    """The n_sources azimuths MUSIC picks, with the denominator ||Vn^H a||^2 on every
    scan, or the NoPeaksFound message of a spectrum with too few peaks. The product runs
    on one BLAS thread, as the library's does: on a noiseless source its last bits pick
    the peak, and a thread split changes them under some OpenBLAS kernels."""
    lo, hi = g.fov
    circular = hi == np.pi
    grid = np.arange(lo + step, hi + step / 2 if circular else hi - step / 2, step)
    a = g.steering(grid)
    num = np.sum(np.abs(a) ** 2, axis=0)
    noise = eig_split(r, n_sources)[1]
    with one_blas_thread:
        den = np.sum(np.abs(noise.conj().T @ a) ** 2, axis=0)
    power = num / np.maximum(den, 1e-300)
    try:
        return _pick_peaks(grid, power, n_sources, circular).tobytes()
    except NoPeaksFound as exc:
        return str(exc)


@settings(max_examples=250, deadline=None)
@given(
    which=st.integers(0, len(FORM_GEOMETRIES) - 1),
    n_sources=st.integers(1, 3),
    snr_db=st.sampled_from([30.0, 300.0, 7000.0, None]),  # None: the exact covariance
    on_grid=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_music_picks_equal_the_noise_form(which, n_sources, snr_db, on_grid, seed, data):
    # The scan takes the M signal columns where M < n - M: its picks and its failures
    # must be the noise form's at any SNR, for sources on grid points (a noiseless
    # source's own grid point has a denominator of rounding in either form) and
    # neighbouring ones included
    g, step = FORM_GEOMETRIES[which], np.radians(0.1)
    grid = doa._scan(g, step)[0]
    if on_grid:
        gap = st.one_of(st.integers(1, 3), st.integers(1, grid.size // n_sources))
        start = data.draw(st.integers(0, grid.size - 1))
        gaps = data.draw(st.lists(gap, min_size=n_sources - 1, max_size=n_sources - 1))
        azimuths = grid[(start + np.cumsum([0, *gaps])) % grid.size]
    else:
        lo, hi = g.fov
        angle = st.floats(lo, hi, exclude_min=True, exclude_max=True)
        azimuths = np.array(data.draw(st.lists(angle, min_size=n_sources, max_size=n_sources)))
    try:
        src = SourceSet(azimuths=np.sort(azimuths))
    except CoincidentSources:
        assume(False)
    if snr_db is None:
        r = analytic_covariance(g, src)
    else:
        r = sample_covariance(synthesize_snapshots(g, src, 20, snr_db, np.random.default_rng(seed)))
    try:
        got = music(r, g, n_sources, step)[1].tobytes()
    except NoPeaksFound as exc:
        got = str(exc)
    assert got == noise_form_music(r, g, n_sources, step)


class TestMusicScanCache:
    @pytest.mark.parametrize("name", sorted(SCAN_GEOMETRIES))
    def test_bit_identical_to_uncached(self, name):
        g = SCAN_GEOMETRIES[name]()
        src = SourceSet(azimuths=np.radians([-20.0, 35.0]))
        x = synthesize_snapshots(g, src, 60, 5.0, rng_for_trial(4, 0, 0))
        r = sample_covariance(x)
        step = np.radians(0.1)
        power_db, azimuths = uncached_music(r, g, 2, step)
        doa._scan.cache_clear()
        for _ in range(2):  # a miss, then a hit
            spectrum, est = music(r, SCAN_GEOMETRIES[name](), 2, step)
            assert np.array_equal(spectrum.power_db, power_db)
            assert np.array_equal(est, azimuths)

    def test_equal_geometry_reuses_scan(self, monkeypatch):
        r = analytic_covariance(ula(6), SourceSet(azimuths=[np.radians(12.0)]), 0.1)
        calls = []
        original = UniformLinearArray.steering

        def counted(self, theta):
            calls.append(self)
            return original(self, theta)

        monkeypatch.setattr(UniformLinearArray, "steering", counted)
        doa._scan.cache_clear()
        first, second = ula(6), ula(6)
        assert first == second and first is not second
        music(r, first, 1)
        music(r, second, 1)
        assert calls == [first]
        music(r, second, 1, grid_step=np.radians(0.2))  # a new step is a new entry
        assert len(calls) == 2
        music(r, first, 1, grid_step=np.radians(0.2))
        assert len(calls) == 2

    def test_spectrum_grid_read_only(self):
        g = ula(6)
        spectrum, _ = music(analytic_covariance(g, SourceSet(azimuths=[0.3]), 0.1), g, 1)
        assert not spectrum.grid.flags.writeable
        with pytest.raises(ValueError):
            spectrum.grid[0] = 0.0


@pytest.mark.parametrize("kind", ["ula", "vandermonde"])
def test_lag_form_denominator_within_its_bound_of_exact(kind):
    # The lag-form denominator, the cached table times the lag sums of C = Vn Vn^H,
    # against a^H C a at 50 digits at each grid point checked: the double sum over
    # C[i, l] conj(a_i) a_l, with conj(a_i) a_l = a_(l - i) (a Vandermonde steering
    # vector; a_(-k) = conj(a_k)) taken from the float steering matrix and C the Hermitian
    # matrix its float upper triangle defines. The bound adds the lag sums' error (each
    # within (n - k - 1) u of its terms' magnitudes, u = eps / 2) to the table product's
    # (2n eps sum_k w_k (|Re p_k| + |Im p_k|), the scan's fallback bound). Noise
    # subspaces of 40 dB covariances put grid points next to the sources, where the
    # denominator cancels to a small fraction of its terms.
    step, u = np.radians(0.5), np.finfo(float).eps / 2
    for n in range(2, 17):
        g = ula(n) if kind == "ula" else VandermondeArray(n)
        scan = doa._scan(g, step)
        rng = np.random.default_rng(n)
        m = int(rng.integers(1, n))
        src = SourceSet(azimuths=np.sort(rng.choice(scan.grid, size=m, replace=False)))
        x = synthesize_snapshots(g, src, 4 * n, 40.0, rng)
        noise = eig_split(sample_covariance(x), m)[1]
        c = noise @ noise.conj().T
        lags = doa._lag_sums(c)
        parts = lags.view(np.float64)
        with one_blas_thread:
            den = scan.table @ parts
        w = np.where(np.arange(n) == 0, 1.0, 2.0)
        magnitudes = [np.abs(c.diagonal(k).real).sum() + np.abs(c.diagonal(k).imag).sum() for k in range(n)]
        bound = 2 * n * np.finfo(float).eps * np.repeat(w, 2) @ np.abs(parts)
        # 1.01 covers gamma_m = m u / (1 - m u) over m u
        bound += 1.01 * sum(w[k] * (n - k - 1) * u * magnitudes[k] for k in range(n))
        points = np.unique(np.concatenate([np.arange(0, scan.grid.size, 40), np.argsort(den)[:5]]))
        with mpmath.workdps(50):
            upper = {(i, l): mpmath.mpc(complex(c[i, l])) for i in range(n) for l in range(i, n)}
            for j in points:
                lag = [mpmath.mpc(complex(z)) for z in scan.a[:, j]]
                terms = [
                    (upper[i, l] * lag[l - i] if i <= l else mpmath.conj(upper[l, i]) * mpmath.conj(lag[i - l]))
                    for i in range(n) for l in range(n)
                ]
                exact = mpmath.fsum(terms).real
                assert abs(den[j] - exact) <= bound, (n, j, float(den[j] - exact), bound)
        assert np.min(den[points]) < 1e-3 * np.max(den)  # points next to the sources


ROOT = Path(__file__).resolve().parent.parent

# (elements, signal columns, grid points) of ULA scans, each one dgemv of the lag table
THREAD_SHAPES = [
    (7, 6, 1801),  # a two-thread noise-form zgemv changes these three's bits
    (7, 6, 3601),
    (16, 15, 2570),
    (7, 6, 3599),  # doa_coherent_toeplitz
    (8, 6, 1799),
    (6, 3, 3600),  # the shape of every hybrid fbss scan
    (16, 4, 2570),
    (9, 7, 5000),
    (7, 1, 1801),
    (7, 1, 3601),
    (16, 1, 2570),
    (4, 1, 3600),  # the shape of a hybrid single or wls scan of the 4-element ring
    (8, 2, 1799),  # doa_ula_music
    (16, 12, 2570),
    (9, 2, 5000),
]

SCAN_CHILD = """
import sys
import numpy as np
from wsnloc import doa
from wsnloc.arrays import UniformLinearArray
inputs = np.load(sys.argv[1])
for i, (points, m) in enumerate(zip(inputs["points"], inputs["signal"])):
    q = inputs[f"basis{i}"]
    ula = UniformLinearArray(n=q.shape[0], spacing=0.5, wavelength=1.0)
    print(doa._music_power(q, m, ula, np.pi / (points + 1))[1].tobytes().hex())
"""

WORKER_CHILD = """
import dataclasses, json, os, sys, time
from wsnloc import config, harness

def ticks():
    main = workers = 0
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        used = int(fields[11]) + int(fields[12])  # utime + stime
        if int(tid) == os.getpid():
            main += used
        else:
            workers += used
    return main, workers

def run(kind, cfg, warm):
    if kind == "spectrum":
        for _ in range(1 if warm else 200):  # one scan each
            harness.compute_spectrum(cfg)
    elif warm:
        harness.run_trial(cfg, kind, 0, 0)
    else:
        harness.monte_carlo(cfg, kind)

sweeps = [arg.split("=", 1) for arg in sys.argv[1:]]
sweeps = [(kind, dataclasses.replace(config.load_config(path), trials=40)) for kind, path in sweeps]
for kind, cfg in sweeps:
    run(kind, cfg, warm=True)
time.sleep(0.2)
before = ticks()
for kind, cfg in sweeps:
    run(kind, cfg, warm=False)
after = ticks()
threads = len(os.listdir("/proc/self/task"))
print(json.dumps({"threads": threads, "main": after[0] - before[0], "workers": after[1] - before[1]}))
"""

COUNT_CHILD = """
import ctypes
import numpy as np
from wsnloc import doa
from wsnloc.arrays import UniformLinearArray
count = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_num_threads64_
seen = [count()]
power = doa._music_power

def observed(*args):
    seen.append(count())
    return power(*args)

doa._music_power = observed
ula = UniformLinearArray(n=8, spacing=0.5, wavelength=1.0)
doa.music_peaks(np.eye(8, dtype=complex)[None], ula, 2, 0.01)
print(*seen, count())
"""


def run_child(code, *args, **env):
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def openblas_counter():
    """numpy's OpenBLAS thread-count getter, or a skip where numpy's BLAS has none."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    count = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if count is None:
        pytest.skip("numpy's BLAS is not the bundled scipy-openblas")
    count.argtypes, count.restype = [], ctypes.c_int
    return count


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS at 2 threads, so that a scan's count of 1 is not the caller's;
    yields the count getter and gives the process its own count back afterwards."""
    count = openblas_counter()
    setter = ctypes.CDLL(np.linalg._umath_linalg.__file__).openblas_set_num_threads_local
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    own = setter(2)
    try:
        yield count
    finally:
        setter(own)


class Boom(Exception):
    pass


class TestScanBlocks:
    """Each MUSIC scan is one product, run on one BLAS thread."""

    def test_bits_equal_single_thread_blas(self, tmp_path):
        # A thread split changes the bits of only a column or two, and only for some
        # subspaces, so each shape gets three orthonormal bases. Every scan also has the
        # bits of the inline form's one product on one thread.
        rng = np.random.default_rng(15)
        shapes = [shape for shape in THREAD_SHAPES for _ in range(3)]
        bases = [
            np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            for n, _, _ in shapes
        ]
        inputs = {f"basis{i}": q for i, q in enumerate(bases)}
        signal = [m for _, m, _ in shapes]
        np.savez(tmp_path / "scan.npz", points=[g for *_, g in shapes], signal=signal, **inputs)
        lines = run_child(SCAN_CHILD, tmp_path / "scan.npz", OPENBLAS_NUM_THREADS="1").split()
        assert len(lines) == len(shapes)
        changed, forms = [], set()
        for (n, m, g), q, line in zip(shapes, bases, lines):
            with one_blas_thread:  # as every caller of the scan holds it
                grid, power = doa._music_power(q, m, ula(n), np.pi / (g + 1))
                assert grid.size == g
                a = ula(n).steering(grid)
                num = np.sum(np.abs(a) ** 2, axis=0)
                assert power.tobytes() == scan_power(q[:, :m], q[:, m:], a, num, True).tobytes()
            if power.tobytes().hex() != line:
                changed.append((n, m, g))
            forms.add(m < n - m)
        assert not changed, changed
        assert forms == {True, False}

    @pytest.mark.parametrize("leave", ["return", "exception", "nested"])
    def test_scan_runs_on_one_thread_and_restores_the_count(
        self, two_blas_threads, monkeypatch, leave
    ):
        count, seen = two_blas_threads, []
        norms = doa._subspace_norms

        def observed(v, a):
            seen.append(count())
            if leave == "exception":
                raise Boom
            return norms(v, a)

        monkeypatch.setattr(doa, "_subspace_norms", observed)
        r = analytic_covariance(ula(8), SourceSet(azimuths=np.radians([-20.0, 35.0])), 0.1)
        if leave == "nested":
            with one_blas_thread:
                music(r, ula(8), 2)
                assert count() == 1
        elif leave == "exception":
            with pytest.raises(Boom):
                music(r, ula(8), 2)
        else:
            music(r, ula(8), 2)
        assert seen and set(seen) == {1}
        assert count() == 2

    def test_concurrent_scans_restore_the_count(self, two_blas_threads, monkeypatch):
        # More threads than a two-core machine has, and a short switch interval, so that
        # entries and exits interleave: a lost update would leave the count at 1.
        count, seen = two_blas_threads, []
        norms = doa._subspace_norms

        def observed(v, a):
            seen.append(count())
            return norms(v, a)

        monkeypatch.setattr(doa, "_subspace_norms", observed)
        ring = UniformCircularArray(n=4, radius=0.3183, elevation=np.pi / 2, wavelength=1.0)
        q = np.linalg.qr(np.random.default_rng(26).standard_normal((4, 4)) + 0j)[0]

        def scans():
            for _ in range(200):
                doa.music_peaks(q[None], ring, 1, np.radians(0.1))

        threads = [threading.Thread(target=scans) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 800 and set(seen) == {1}
        assert count() == 2

    def test_one_hold_per_call(self, monkeypatch):
        # a stack of scans holds the guard once, not once per basis; so does a spectrum
        entries = []

        class Counted:
            def __enter__(self):
                entries.append(None)
                one_blas_thread.__enter__()

            def __exit__(self, *exc_info):
                one_blas_thread.__exit__(*exc_info)

        monkeypatch.setattr(doa, "one_blas_thread", Counted())
        rng = np.random.default_rng(28)
        q = np.linalg.qr(rng.standard_normal((5, 8, 8)) + 1j * rng.standard_normal((5, 8, 8)))[0]
        assert doa.music_peaks(q, ula(8), 2)[0].shape == (5, 2)
        assert len(entries) == 1
        r = analytic_covariance(ula(8), SourceSet(azimuths=np.radians([-20.0, 35.0])), 0.1)
        music(r, ula(8), 2)
        doa.music_spectrum(r, ula(8), 2)
        assert len(entries) == 3

    def test_a_child_at_two_threads_gets_them_back(self):
        openblas_counter()
        before, inside, after = map(int, run_child(COUNT_CHILD, OPENBLAS_NUM_THREADS="2").split())
        if before != 2:
            pytest.skip("OpenBLAS starts one thread on this machine")
        assert (inside, after) == (1, 2)

    def test_doa_sweeps_leave_the_blas_worker_idle(self):
        if not Path("/proc/self/task").is_dir():
            pytest.skip("no per-thread CPU times in /proc/self/task")
        # every scanning path: doa and hybrid sweeps, and the spectrum dump
        sweeps = [
            ("doa", "doa_ula_music"),
            ("doa", "doa_coherent_toeplitz"),
            ("hybrid", "hybrid_single"),
            ("hybrid", "hybrid_coherent_fbss"),
            ("spectrum", "spectrum_uca"),
        ]
        args = [f"{kind}={ROOT / 'configs' / name}.json" for kind, name in sweeps]
        ticks = json.loads(run_child(WORKER_CHILD, *args))
        if ticks["threads"] == 1:
            pytest.skip("BLAS runs on the main thread only")
        assert 4 * ticks["workers"] < ticks["main"], ticks


def run_under_haswell(*args):
    """Runs pytest with ``args`` in a child process on OpenBLAS's Haswell kernels.
    OpenBLAS picks its kernels by CPU; OPENBLAS_CORETYPE runs another set."""
    cpuinfo = Path("/proc/cpuinfo")
    if not cpuinfo.is_file() or "avx2" not in cpuinfo.read_text().split():
        pytest.skip("the Haswell kernels need AVX2")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        env=dict(os.environ, OPENBLAS_CORETYPE="Haswell"), cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:]


def test_scan_tests_hold_under_the_haswell_kernels():
    # The scan's one-thread product, the noise-form property and the lag form's bound
    # must not depend on the kernels.
    run_under_haswell(
        f"{__file__}::TestScanBlocks",
        f"{__file__}::test_music_picks_equal_the_noise_form",
        f"{__file__}::test_lag_form_denominator_within_its_bound_of_exact",
    )


def test_rooting_tests_hold_under_the_haswell_kernels():
    # Nor must the real-polynomial rooting.
    run_under_haswell(
        f"{__file__}::TestRootMusic",
        f"{__file__}::TestUcaVariants::test_uca_root_music_source_on_the_cayley_pole",
    )


def test_demos_and_goldens_hold_under_the_haswell_kernels():
    # Nor must any pinned output byte that the scan's lag-form product or the rooting
    # reach: the five demo pins and the goldens, the doa and hybrid fbss sweeps among
    # them. The hybrid wls golden (overrides13) is left out: its weighted normal
    # equations run through dgemm, whose bits move with the kernel (ROADMAP, direction 9).
    tests = Path(__file__).resolve().parent
    run_under_haswell(str(tests / "test_demos.py"), str(tests / "test_golden.py"), "-k", "not overrides13")


class TestRootMusic:
    def test_noiseless_single_source(self):
        g = ula(5)
        r = analytic_covariance(g, SourceSet(azimuths=[np.radians(20.0)]))
        est = root_music(r, g, 1)
        assert np.degrees(est[0]) == pytest.approx(20.0, abs=1e-6)

    def test_roots_close_under_conjugate_reciprocal(self, monkeypatch):
        # the roots the estimator finds, in t, mapped back through the Cayley map
        # z = (1 + jt) / (1 - jt): a real polynomial's conjugate pairs are exact, and
        # conj(t) maps to 1 / conj(z), so the set closes to rounding
        rooted = []
        monkeypatch.setattr(doa, "poly_roots", lambda q: rooted.append(poly_roots(q)) or rooted[-1])
        g = ula(5)
        root_music(analytic_covariance(g, SourceSet(azimuths=[np.radians(20.0)]), 0.05), g, 1)
        (t,) = rooted
        roots = (1.0 + 1j * t) / (1.0 - 1j * t)
        assert roots.size == 2 * (g.n - 1)
        for z in roots:
            partner = 1.0 / np.conj(z)
            assert np.min(np.abs(roots - partner)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, doa.ROOTING_MOST),
        rank=st.integers(1, doa.ROOTING_MOST),
        turned=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_polynomial_gives_one_phase_per_resolvable_source(self, n, rank, turned, seed):
        # Q keeps its degree 2(n - 1) and its complex roots come in exact conjugate pairs,
        # so a Hermitian PSD C gives n - 1 phases, the most sources n elements resolve;
        # with C blind to the steering vector at z = -1, D(-1) = 0 and the pole is turned
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(n, min(rank, n))) + 1j * rng.normal(size=(n, min(rank, n)))
        if turned:
            a = (-1.0) ** np.arange(n) / np.sqrt(n)
            b -= np.outer(a, a @ b)
        p = doa._lag_sums(b @ b.conj().T)
        q0 = (doa._cayley_basis(n)[0] @ p.view(np.float64))[0]
        assert (abs(q0) < 1e-6 * p[0].real) == turned
        phases = _signal_phases(p, n - 1)
        assert phases.size == n - 1 and np.all(np.abs(phases) <= np.pi)

    def test_lag_sums_within_the_summation_bound_of_exact_sums(self):
        # each upper-diagonal sum against the exact sum of its float terms (fractions):
        # m terms added in any order are within (m - 1) u sum |x_i| of it, u = eps / 2
        # (Higham 2002, sec. 4.2), real and imaginary parts each on their own
        rng = np.random.default_rng(19)
        u, worst = Fraction(np.finfo(float).eps) / 2, Fraction(0)
        for n in range(2, 21):
            for _ in range(12):
                mag = 10.0 ** rng.uniform(-8.0, 8.0, size=(2, n, n))
                c = rng.choice([-1.0, 1.0], size=(2, n, n)) * mag
                c = c[0] + 1j * c[1]
                got = doa._lag_sums(c)
                assert got.dtype == c.dtype and got.shape == (n,)
                for k in range(n):
                    for terms, value in [(c.diagonal(k).real, got[k].real), (c.diagonal(k).imag, got[k].imag)]:
                        exact = sum(map(Fraction, terms))
                        scale = sum(abs(Fraction(x)) for x in terms)
                        error = abs(Fraction(value) - exact)
                        assert error <= (n - k - 1) * u * scale
                        worst = max(worst, error / (u * scale))
        assert worst > 0  # the bound is met by rounding, not by exact sums alone

    def test_lag_sums_keep_the_non_finite_entries_of_the_trace(self):
        # a NaN or infinity in a diagonal leaves its sum non-finite as np.trace's: which
        # part is NaN or infinite does not depend on the order of the additions
        rng = np.random.default_rng(19)
        for n in range(2, 21):
            for _ in range(12):
                c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                special = rng.uniform(size=(n, n))
                c[special < 0.05] = np.nan
                c[(special > 0.05) & (special < 0.08)] = np.inf
                c[special > 0.97] = complex(-np.inf, 1.0)
                with np.errstate(invalid="ignore", over="ignore"):
                    oracle = np.array([np.trace(c, offset=k) for k in range(n)])
                    got = doa._lag_sums(c)
                for part in (np.real, np.imag):
                    assert np.array_equal(np.isnan(part(got)), np.isnan(part(oracle)))
                    assert np.array_equal(np.isinf(part(got)), np.isinf(part(oracle)))

    def test_matches_music_on_random_scenarios(self):
        g = ula(8)
        for trial in range(50):
            rng = rng_for_trial(50, 0, trial)
            a1 = rng.uniform(-60.0, 40.0)
            a2 = a1 + rng.uniform(12.0, 25.0)
            src = SourceSet(azimuths=np.radians([a1, a2]))
            x = synthesize_snapshots(g, src, 500, 20.0, rng)
            r = sample_covariance(x)
            m = music(r, g, 2)[1]
            rm = root_music(r, g, 2)
            assert np.max(np.abs(np.degrees(m - rm))) < 0.5

    def test_requires_linear_array(self):
        g = UniformCircularArray(n=6, radius=0.5, elevation=1.0, wavelength=1.0)
        with pytest.raises(WrongGeometry):
            root_music(np.eye(6), g, 1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(3, doa.ROOTING_MOST), spacing=st.floats(0.1, 1.0))
    def test_noiseless_exact_on_random_ulas(self, data, n, spacing):
        # Each noiseless source is a double root on the unit circle; its sqrt(eps) split
        # moved the inside root alone by up to ~1e-5 deg. Spacing up to one wavelength
        # puts the phases 2 pi d sin(theta) anywhere in (-pi, pi), next to the Cayley
        # pole at pi included.
        k = data.draw(st.integers(1, min(3, n - 1)))
        most = min(np.sin(np.radians(69.9)), 0.999 / (2.0 * spacing))
        sines = np.sort(data.draw(st.lists(st.floats(-most, most), min_size=k, max_size=k)))
        phases = 2.0 * np.pi * spacing * sines
        assume(k == 1 or np.min(np.diff(np.append(phases, phases[0] + 2.0 * np.pi))) >= 0.1)
        truth = np.degrees(np.arcsin(sines))
        g = UniformLinearArray(n=n, spacing=spacing, wavelength=1.0)
        est = root_music(analytic_covariance(g, SourceSet(azimuths=np.radians(truth))), g, k)
        assert np.max(np.abs(np.degrees(est) - truth)) < 1e-6

    @pytest.mark.parametrize("phi_deg", [-150.0, -30.0, 0.0, 30.0, 95.0, 180.0])
    def test_double_root_on_circle_paired(self, phi_deg):
        # exact double root at exp(j phi) times one conjugate-reciprocal pair off the
        # circle, scaled to be conjugate-symmetric: the split double root must be
        # averaged back (at 180 deg it sits on the Cayley pole, which is turned away)
        u = np.exp(1j * np.radians(phi_deg))
        a = 0.6 * np.exp(1j * (np.radians(phi_deg) + 1.0))
        coeffs = np.poly([u, u, a, 1.0 / np.conj(a)])
        coeffs *= np.sqrt(np.conj(coeffs[-1]) / coeffs[0])  # z^(4 - i) <-> conj, z^i
        phase = _signal_phases(coeffs[2::-1].copy(), 1)
        assert abs(np.angle(np.exp(1j * phase[0]) * np.conj(u))) < 1e-12

    @pytest.mark.parametrize("n, trials", [(8, 200), (doa.ROOTING_MOST, 60)])
    def test_phases_equal_mpmath_roots_of_the_symmetric_polynomial(self, n, trials):
        # 50-digit roots of the exactly conjugate-symmetric polynomial that the float
        # upper diagonals define; the float roots of the complex companion matrix only
        # seed mpmath's iteration. The real form's error grows with n (8e-11 rad at 32
        # elements), so the largest polynomial it roots is checked too.
        g = ula(n)
        worst = 0.0
        for trial in range(trials):
            rng = rng_for_trial(32, n, trial)
            a1 = rng.uniform(-60.0, 40.0)
            src = SourceSet(azimuths=np.radians([a1, a1 + rng.uniform(8.0, 20.0)]))
            r = sample_covariance(synthesize_snapshots(g, src, 100, rng.uniform(0.0, 20.0), rng))
            noise = eig_split(r, 2)[1]
            d = np.conj(doa._lag_sums(noise @ noise.conj().T))
            coeffs = np.concatenate([d[:0:-1], [d[0].real], np.conj(d[1:])])
            with mpmath.workdps(50):
                roots = mpmath.polyroots(
                    [mpmath.mpc(complex(c)) for c in coeffs], maxsteps=200, extraprec=50,
                    roots_init=[mpmath.mpc(complex(z)) for z in np.roots(coeffs)],
                )
                inside = sorted((z for z in roots if abs(z) < 1), key=lambda z: -abs(z))[:2]
                exact = np.sort([float(mpmath.arg(z)) for z in inside])
            worst = max(worst, np.max(np.abs(np.sort(_signal_phases(d, 2)) - exact)))
        assert worst < 1e-13

    def test_split_double_roots_of_a_three_element_subarray(self, monkeypatch):
        # fbss makes the 3-element subarray's one noise vector conjugate-symmetric, so
        # both its roots lie on the circle: each source is a double root of D, which
        # rounding splits into a conjugate pair or two real t. The two roots of the
        # noise vector's own quadratic are the oracle.
        real_splits = []

        def spy(q):
            t = poly_roots(q)
            real_splits.append(np.count_nonzero(t.imag == 0))
            return t

        monkeypatch.setattr(doa, "poly_roots", spy)
        g, sub = ula(8), ula(3)
        plan = SmoothingPlan.design(8, 2, forward_backward=True)
        for trial in range(40):
            rng = rng_for_trial(33, 0, trial)
            src = SourceSet(azimuths=np.radians([-10.0, 10.0]), coherent=trial % 2 == 1)
            r = fbss(sample_covariance(synthesize_snapshots(g, src, 100, 10.0, rng)), plan)
            est = root_music(r, sub, 2)
            v = eig_split(r, 2)[1][:, 0]
            exact = np.arcsin(np.angle(np.roots(v[::-1])) / np.pi)
            assert np.max(np.abs(est - np.sort(exact))) < 1e-12
        assert any(real_splits)

    def test_source_on_the_cayley_pole(self):
        # phase pi on an 8-element 0.75-wavelength ULA: +-asin(2/3) steer alike
        g = UniformLinearArray(n=8, spacing=0.75, wavelength=1.0)
        r = analytic_covariance(g, SourceSet(azimuths=[np.arcsin(2.0 / 3.0)]))
        est = root_music(r, g, 1)
        assert abs(abs(est[0]) - np.arcsin(2.0 / 3.0)) < 1e-10

    def test_real_roots_pair_in_sorted_order(self, monkeypatch):
        # whatever order the eigensolver returns them in, the real roots pair as sorted
        # neighbours and rank ahead of the roots inside the circle
        real = [0.4, -0.3, 0.2, -0.1]
        pair = [0.5 + 0.5j, 0.5 - 0.5j]
        z = (1.0 + 0.5j * (1.0 + 1j)) / (1.0 - 0.5j * (1.0 + 1j))
        expected = [
            np.arctan(-0.3) + np.arctan(-0.1), np.arctan(0.2) + np.arctan(0.4), np.angle(z)
        ]
        for order in itertools.permutations(real + pair):
            monkeypatch.setattr(doa, "poly_roots", lambda q: np.array(order))
            assert np.array_equal(_signal_phases(np.array([1.0, 0.0, 0.0, 0.0]), 3), expected)

    def test_real_and_single_precision_covariances(self):
        # the helper roots the lag sums of any float or complex covariance
        g = ula(6)
        r = analytic_covariance(g, SourceSet(azimuths=[0.0]), 0.1)
        assert np.abs(r.imag).max() == 0.0
        assert abs(root_music(np.ascontiguousarray(r.real), g, 1)[0]) < 1e-10
        truth = np.radians([-20.0, 30.0])
        r = analytic_covariance(g, SourceSet(azimuths=truth), 0.1).astype(np.complex64)
        assert np.max(np.abs(root_music(r, g, 2) - truth)) < 1e-4

    def test_polynomials_past_the_rooting_bound_raise(self):
        n = doa.ROOTING_MOST + 1
        g = ula(n)
        with pytest.raises(WrongGeometry, match=f"at most {n - 1} elements, not {n}"):
            root_music(analytic_covariance(g, SourceSet(azimuths=[0.3]), 0.1), g, 1)
        g = ula(doa.ROOTING_MOST)
        est = root_music(analytic_covariance(g, SourceSet(azimuths=[0.3]), 0.1), g, 1)
        assert abs(est[0] - 0.3) < 1e-10
        ring = UniformCircularArray(n=n, radius=1.3, elevation=np.pi / 2, wavelength=1.0)
        t = build_transform(ring)
        assert t.vula_size == n
        x = synthesize_snapshots(ring, SourceSet(azimuths=[0.3]), 50, 20.0, rng_for_trial(3, 0, 0))
        with pytest.raises(WrongGeometry, match=f"uca-root-music roots at most {n - 1} elements"):
            uca_root_music(x, t, 1)


class TestEsprit:
    def test_noiseless_single_source(self):
        g = ula(5)
        x = synthesize_snapshots(
            g, SourceSet(azimuths=[np.radians(20.0)]), 50, np.inf, rng_for_trial(4, 0, 0)
        )
        est = esprit(x, g, 1)
        assert np.degrees(est[0]) == pytest.approx(20.0, abs=1e-8)

    def test_two_sources_at_ten_db(self):
        g = ula(8)
        src = SourceSet(azimuths=np.radians([-10.0, 10.0]))
        x = synthesize_snapshots(g, src, 100, 10.0, rng_for_trial(5, 0, 0))
        est = esprit(x, g, 2)
        assert np.allclose(np.degrees(est), [-10.0, 10.0], atol=0.5)

    def test_rotation_eigenvalues_on_unit_circle(self):
        g = ula(6)
        src = SourceSet(azimuths=np.radians([-25.0, 15.0]))
        x = synthesize_snapshots(g, src, 200, np.inf, rng_for_trial(6, 0, 0))
        signal, _ = eig_split(sample_covariance(x), 2)
        v1, v2 = signal[:-1], signal[1:]
        psi, *_ = np.linalg.lstsq(v1, v2, rcond=None)
        assert np.allclose(np.abs(np.linalg.eigvals(psi)), 1.0, atol=1e-6)

    def test_source_count_limits(self):
        g = ula(5)
        x = np.zeros((5, 10), complex)
        with pytest.raises(TooManySources):
            esprit(x, g, 4)
        with pytest.raises(TooFewSources):
            esprit(x, g, 0)


class TestUcaVariants:
    def make_uca(self, n=9):
        return UniformCircularArray(
            n=n, radius=0.6, elevation=np.radians(40.0), wavelength=1.0
        )

    def test_uca_root_music_single_source(self):
        g = self.make_uca()
        t = build_transform(g)
        assert t.h == 3
        x = synthesize_snapshots(
            g, SourceSet(azimuths=[np.radians(30.0)]), 500, 30.0, rng_for_trial(7, 0, 0)
        )
        est = uca_root_music(x, t, 1)
        assert wrapped_deg(est[0], np.radians(30.0)) < 1.0

    def test_uca_root_music_source_on_the_cayley_pole(self):
        # on this ring, a rooting that keeps the pole at -1 splits the source's double
        # root at t = +-inf into two real roots, whose atans average to 0 deg
        g = UniformCircularArray(n=16, radius=0.4, elevation=np.radians(40.0), wavelength=1.0)
        t = build_transform(g)
        x = synthesize_snapshots(
            g, SourceSet(azimuths=[np.pi]), 100, np.inf, rng_for_trial(12, 0, 0)
        )
        est = uca_root_music(x, t, 1)
        assert wrapped_deg(est[0], np.pi) < 1e-6

    def test_uca_esprit_single_source(self):
        g = self.make_uca()
        t = build_transform(g)
        x = synthesize_snapshots(
            g, SourceSet(azimuths=[np.radians(30.0)]), 500, 30.0, rng_for_trial(8, 0, 0)
        )
        est = uca_esprit(x, t, 1)
        assert wrapped_deg(est[0], np.radians(30.0)) < 1.0

    def test_bias_shrinks_with_element_count(self):
        # same mode order, more ring samples: the mapped steering gets
        # closer to vandermonde and the noiseless rooting bias drops
        # (two sources, so the subspace feels the mapping residual)
        truth = np.radians([30.0, -50.0])
        biases = []
        for n in (7, 9):
            g = UniformCircularArray(
                n=n, radius=0.55, elevation=np.radians(20.0), wavelength=1.0
            )
            t = build_transform(g)
            assert t.h == 3  # max_mode of a 0.55-wavelength ring, below both N / 2
            x = synthesize_snapshots(
                g, SourceSet(azimuths=truth), 400, np.inf, rng_for_trial(9, 0, 0)
            )
            est = uca_root_music(x, t, 2)
            biases.append(
                np.max(np.abs(np.degrees(est - np.sort(truth))))
            )
        assert biases[0] > biases[1]
        assert biases[1] < 1e-3

    def test_agrees_with_music_on_mapped_vula(self):
        g = self.make_uca()
        t = build_transform(g)
        x = synthesize_snapshots(
            g, SourceSet(azimuths=[np.radians(-50.0)]), 500, 25.0, rng_for_trial(10, 0, 0)
        )
        est = uca_root_music(x, t, 1)
        xv = t.Tw @ x
        _, vula_est = music(sample_covariance(xv), VandermondeArray(t.vula_size), 1)
        assert wrapped_deg(est[0], vula_est[0]) < 1.0

    def test_uca_estimators_agree(self):
        g = self.make_uca()
        t = build_transform(g)
        for trial in range(50):
            rng = rng_for_trial(11, 0, trial)
            theta = np.radians(rng.uniform(-175.0, 175.0))
            x = synthesize_snapshots(g, SourceSet(azimuths=[theta]), 500, 20.0, rng)
            rm = uca_root_music(x, t, 1)[0]
            es = uca_esprit(x, t, 1)[0]
            assert wrapped_deg(rm, es) < 1.0

    def test_zero_sources_rejected(self):
        t = build_transform(self.make_uca())
        with pytest.raises(TooFewSources):
            uca_esprit(np.zeros((9, 5), complex), t, 0)
        with pytest.raises(TooFewSources):
            uca_root_music(np.zeros((9, 5), complex), t, 0)

    @settings(max_examples=100, deadline=None)
    @given(
        ring=st.sampled_from([(16, 0.55, 20.0), (24, 0.5, 40.0)]),
        azimuth_deg=st.floats(-180.0, 180.0),
    )
    def test_uca_root_music_noiseless_exact(self, ring, azimuth_deg):
        """Noiseless uca_root_music is exact to 1e-6 deg at every azimuth.

        Only rings on which the beamspace model is exact to rounding are
        drawn (the acceptance ring and n=24, r=0.5 lambda at 40 deg
        elevation), so any error left is the rooting's own. Rings with a
        large r sin(elevation), such as n=16, r=0.7 lambda at 90 deg, are
        left out: there uca_esprit is also off by ~1e-4 deg, which is
        beamspace model error, not a rooting fault.
        """
        n, radius, elevation_deg = ring
        g = UniformCircularArray(
            n=n, radius=radius, elevation=np.radians(elevation_deg), wavelength=1.0
        )
        theta = np.radians(azimuth_deg)
        x = synthesize_snapshots(
            g, SourceSet(azimuths=[theta]), 64, np.inf, rng_for_trial(2, 0, 0)
        )
        est = uca_root_music(x, build_transform(g), 1)
        assert wrapped_deg(est[0], theta) < 1e-6


def centro_hermitian_unitary(n):
    """Unitary Q with Q = J Q* (J the exchange matrix), as Unitary ESPRIT builds it
    (Haardt & Nossek, IEEE TSP 43(5), 1995)."""
    m = n // 2
    eye, exch = np.eye(m), np.fliplr(np.eye(m))
    q = np.zeros((n, n), dtype=complex)
    q[:m, :m], q[n - m :, :m] = eye, exch
    q[:m, n - m :], q[n - m :, n - m :] = 1j * eye, -1j * exch
    if n % 2:
        q[m, m] = np.sqrt(2.0)
    return q / np.sqrt(2.0)


def uca_esprit_oracle(x, t, n_sources):
    """uca_esprit written out in numpy alone, with the centro-Hermitian conjugation
    applied around the beamspace covariance and undone on its signal subspace."""
    qc = centro_hermitian_unitary(t.vula_size)
    y = qc @ (t.Tw @ x)
    r = y @ y.conj().T / y.shape[1]
    r = 0.5 * (r + r.conj().T)
    if not np.all(np.isfinite(r)):
        raise NumericOverflow("covariance left the float range")
    signal = np.linalg.eigh(r)[1][:, ::-1][:, :n_sources]
    w, q = np.linalg.eigh(t.Tv @ t.Tv.conj().T)
    vs = ((q * np.sqrt(w)) @ q.conj().T) @ (qc.conj().T @ signal)
    if np.linalg.matrix_rank(vs[:-1]) < n_sources:
        raise RankDeficientSubspace("leading subarray subspace lost rank")
    psi = np.linalg.lstsq(vs[:-1], vs[1:], rcond=None)[0]
    return np.sort(np.angle(np.linalg.eigvals(psi)))


def outcome(fn, *args):
    try:
        return fn(*args)
    except WsnlocError as exc:  # compared by class
        return type(exc)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_uca_esprit_matches_centro_hermitian_oracle(n):
    """The conjugation is unitary, so leaving it out moves estimates by rounding only.

    Sources are drawn at least 10 degrees apart: two sources 0.02 degrees apart make
    the rotation's eigenvalues ill-conditioned enough to amplify rounding to 6.5e-10
    rad between the two forms.
    """
    g = UniformCircularArray(n=n, radius=0.55 * n / 8, elevation=np.radians(40.0), wavelength=1.0)
    t = build_transform(g)
    for trial in range(30):
        for si, snr in enumerate((-10.0, 0.0, 20.0, 100.0, 300.0, np.inf)):
            rng = rng_for_trial(trial, si, n)
            m = 1 + trial % 3
            while True:
                az = rng.uniform(-np.pi, np.pi, m)
                gaps = np.abs(np.angle(np.exp(1j * np.subtract.outer(az, az))))
                if np.min(gaps + 10.0 * np.eye(m)) > np.radians(10.0):
                    break
            x = synthesize_snapshots(g, SourceSet(azimuths=az), 50, snr, rng)
            ref = outcome(uca_esprit_oracle, x, t, m)
            est = outcome(uca_esprit, x, t, m)
            if isinstance(ref, type) or isinstance(est, type):
                assert est is ref
            else:
                assert np.max(np.abs(np.angle(np.exp(1j * (est - ref))))) < 1e-12
    with np.errstate(all="ignore"):  # snapshots whose covariance overflows fail alike
        x = synthesize_snapshots(g, SourceSet(azimuths=[0.5]), 50, 10.0, rng_for_trial(0, 9, n))
        x *= 1e200
        assert outcome(uca_esprit_oracle, x, t, 1) is NumericOverflow
        assert outcome(uca_esprit, x, t, 1) is NumericOverflow


RING = UniformCircularArray(n=9, radius=0.6, elevation=np.radians(40.0), wavelength=1.0)
RING_T = build_transform(RING)  # h = 3: a 7-element virtual array

# method, the geometry its input is drawn on, the estimator as (input, n_sources)
CAPACITY_CASES = {
    "music-ula": ("music", ula(5), lambda r, m: music(r, ula(5), m)[1]),
    "music-uca": ("music", RING, lambda r, m: music(r, RING, m)[1]),
    "music-vandermonde": (
        "music", VandermondeArray(7), lambda r, m: music(r, VandermondeArray(7), m)[1]
    ),
    "root-music": ("root-music", ula(5), lambda r, m: root_music(r, ula(5), m)),
    "esprit": ("esprit", ula(6), lambda x, m: esprit(x, ula(6), m)),
    "uca-root-music": ("uca-root-music", RING, lambda x, m: uca_root_music(x, RING_T, m)),
    "uca-esprit": ("uca-esprit", RING, lambda x, m: uca_esprit(x, RING_T, m)),
}


def test_capacity_rule():
    methods = ("music", "root-music", "esprit", "uca-root-music", "uca-esprit")
    assert [doa.capacity(m, 7) for m in methods] == [6, 6, 5, 6, 5]


@pytest.mark.parametrize("name", sorted(CAPACITY_CASES))
def test_estimator_resolves_its_capacity_and_no_more(name):
    method, geometry, estimate = CAPACITY_CASES[name]
    size = RING_T.vula_size if method.startswith("uca-") else geometry.size
    most = doa.capacity(method, size)
    lo, hi = geometry.fov
    src = SourceSet(azimuths=np.linspace(lo, hi, most + 2)[1:-1])  # spread over the view
    x = synthesize_snapshots(geometry, src, 400, 40.0, rng_for_trial(40, 0, most))
    data = sample_covariance(x) if method in ("music", "root-music") else x
    assert estimate(data, most).size == most
    with pytest.raises(TooManySources):
        estimate(data, most + 1)


class TestDeterminism:
    def test_estimators_deterministic_given_inputs(self):
        g = ula(8)
        src = SourceSet(azimuths=np.radians([-15.0, 20.0]))
        x = synthesize_snapshots(g, src, 200, 15.0, rng_for_trial(30, 0, 0))
        r = sample_covariance(x)
        assert np.array_equal(music(r, g, 2)[1], music(r, g, 2)[1])
        assert np.array_equal(
            root_music(r, g, 2), root_music(r, g, 2)
        )
        assert np.array_equal(esprit(x, g, 2), esprit(x, g, 2))


class TestPairwiseAgreement:
    def test_all_three_ula_estimators_agree(self):
        g = ula(8)
        for trial in range(20):
            rng = rng_for_trial(12, 0, trial)
            a1 = rng.uniform(-60.0, 40.0)
            a2 = a1 + rng.uniform(12.0, 25.0)
            src = SourceSet(azimuths=np.radians([a1, a2]))
            x = synthesize_snapshots(g, src, 500, 20.0, rng)
            r = sample_covariance(x)
            results = [
                music(r, g, 2)[1],
                root_music(r, g, 2),
                esprit(x, g, 2),
            ]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert np.max(np.abs(np.degrees(results[i] - results[j]))) < 0.5


SEAM_RING = UniformCircularArray(n=8, radius=0.55, elevation=np.radians(90.0), wavelength=1.0)
SEAM_GEOMETRIES = {"uca": SEAM_RING, "vandermonde": VandermondeArray(7)}


@pytest.mark.parametrize("azimuth_deg", [180.0, 179.95, -179.95, -179.9, 179.9])
@pytest.mark.parametrize("name", sorted(SEAM_GEOMETRIES))
def test_music_finds_a_source_at_the_seam(name, azimuth_deg):
    # the scan's two ends are neighbours on a full circle: a source next to +-180 degrees
    # peaks at an end of the grid, and is reported in (-180, 180]
    g, step = SEAM_GEOMETRIES[name], np.radians(0.1)
    theta = np.radians(azimuth_deg)
    for trial in range(5):
        rng = rng_for_trial(9, 0, trial)
        x = synthesize_snapshots(g, SourceSet(azimuths=[theta]), 100, 30.0, rng)
        (est,) = music(sample_covariance(x), g, 1, step)[1]
        assert -np.pi < est <= np.pi
        assert wrapped_deg(est, theta) <= 0.1 + 1e-9


def test_music_reports_a_grid_point_past_pi_in_range():
    # 1.3 degrees does not divide the circle: the last grid point is 180.1 degrees
    g, step = SEAM_GEOMETRIES["vandermonde"], np.radians(1.3)
    assert np.degrees(doa._angle_grid(g, step)[-1]) == pytest.approx(180.1)
    theta = np.radians(-179.9)
    _, est = music(analytic_covariance(g, SourceSet(azimuths=[theta]), 1e-3), g, 1, step)
    assert est[0] == pytest.approx(theta)


def test_pick_peaks_counts_the_ends_only_on_a_circle():
    grid, power = np.radians([-90.0, -30.0, 30.0, 90.0]), np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(NoPeaksFound):
        _pick_peaks(grid, power, 1)
    assert _pick_peaks(grid, power, 1, circular=True) == pytest.approx([np.pi / 2])
    assert _pick_peaks(grid, power[::-1], 1, circular=True) == pytest.approx([-np.pi / 2])


def most_strict_peaks(g: int, circular: bool) -> int:
    """The most strict local maxima any g-point sequence has, by trying every sequence
    over three levels (enough to alternate)."""
    best = 0
    for values in itertools.product(range(3), repeat=g):
        candidates = range(g) if circular else range(1, g - 1)
        peaks = sum(
            values[i] > values[(i - 1) % g] and values[i] > values[(i + 1) % g] for i in candidates
        )
        best = max(best, peaks)
    return best


@pytest.mark.parametrize("g", range(8))
def test_scan_capacity_is_the_most_peaks_a_grid_shows(g):
    for geometry, step in ((ula(4), np.pi / (g + 1)), (VandermondeArray(4), 2 * np.pi / max(g, 1))):
        circular = isinstance(geometry, VandermondeArray)
        if g == 0 and circular:
            step = 5 * np.pi  # the first point would lie past the end of the circle
        assert doa._angle_grid(geometry, step).size == g
        most = doa.scan_capacity(geometry, step)
        assert most == most_strict_peaks(g, circular)
        grid, alternating = doa._angle_grid(geometry, step), np.arange(g) % 2.0
        assert _pick_peaks(grid, alternating, most, circular).size == most
        with pytest.raises(NoPeaksFound):
            _pick_peaks(grid, alternating, most + 1, circular)


def test_scan_capacity_of_coarse_grids():
    # a (90 - step/2)-degree span seen through steps of 30, 60 and 90 degrees: 5, 2, 1 points
    steps = (30, 60, 90, 179, 200)
    assert [doa.scan_capacity(ula(8), np.radians(s)) for s in steps] == [2, 0, 0, 0, 0]
    ring = SEAM_GEOMETRIES["uca"]
    assert [doa.scan_capacity(ring, np.radians(s)) for s in (0.1, 120, 180, 360, 400)] == [
        1800, 1, 1, 0, 0,
    ]


def test_music_spectrum_is_music_without_its_peaks():
    g = ula(8)
    src = SourceSet(azimuths=np.radians([-10.0, 10.0]))
    r = sample_covariance(synthesize_snapshots(g, src, 100, 10.0, rng_for_trial(2, 0, 0)))
    spectrum = doa.music_spectrum(r, g, 2)
    assert np.array_equal(spectrum.grid, music(r, g, 2)[0].grid)
    assert np.array_equal(spectrum.power_db, music(r, g, 2)[0].power_db)
    # two coherent sources on four elements fuse into one hump: no estimate, but a spectrum
    coherent = analytic_covariance(ula(4), SourceSet(src.azimuths, coherent=True))
    with pytest.raises(NoPeaksFound):
        music(coherent, ula(4), 2)
    assert np.all(np.isfinite(doa.music_spectrum(coherent, ula(4), 2).power_db))
    with pytest.raises(TooManySources):
        doa.music_spectrum(np.eye(4), ula(4), 4)


def uca_root_music_per_call(x, t, n_sources):
    """uca_root_music with (Tv Tv^H)^(-1/2) recomputed from the transform on every call."""
    _, noise = eig_split(sample_covariance(t.Tw @ x), n_sources)
    w, q = np.linalg.eigh(t.Tv @ t.Tv.conj().T)
    whiten = (q * (1.0 / np.sqrt(w))) @ q.conj().T
    c = whiten @ (noise @ noise.conj().T) @ whiten
    return np.sort(_signal_phases(doa._lag_sums(c), n_sources))


def uca_esprit_per_call(x, t, n_sources):
    """uca_esprit with (Tv Tv^H)^(1/2) recomputed from the transform on every call."""
    signal, _ = eig_split(sample_covariance(t.Tw @ x), n_sources)
    w, q = herm_eig(t.Tv @ t.Tv.conj().T)
    vs = ((q * np.sqrt(w)) @ q.conj().T) @ signal
    return np.sort(np.angle(doa._invariance_eigs(vs, n_sources)))


@pytest.mark.parametrize("n", [8, 12, 16])
def test_beamspace_powers_built_once_give_the_per_call_bits(n):
    g = UniformCircularArray(n=n, radius=0.55 * n / 8, elevation=np.radians(40.0), wavelength=1.0)
    t = build_transform(g)
    assert np.array_equal(t.Tw, t.whiten @ t.Tv)
    assert np.allclose(t.color @ t.whiten, np.eye(t.vula_size), atol=1e-9)
    for trial in range(20):
        rng = rng_for_trial(trial, 0, n)
        m = 1 + trial % 3
        az = np.radians(-150.0 + 100.0 * np.arange(m) + rng.uniform(0.0, 40.0))
        x = synthesize_snapshots(g, SourceSet(azimuths=az), 50, (0.0, 20.0, 100.0)[trial % 3], rng)
        pairs = ((uca_root_music, uca_root_music_per_call), (uca_esprit, uca_esprit_per_call))
        for library, oracle in pairs:
            ref = outcome(oracle, x, t, m)
            est = outcome(library, x, t, m)
            if isinstance(ref, type) or isinstance(est, type):
                assert est is ref
            else:
                assert np.array_equal(est, ref)
