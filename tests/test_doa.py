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
    _roots_inside_unit_circle,
    eig_split,
    esprit,
    music,
    root_music,
    uca_esprit,
    uca_root_music,
)
from wsnloc.errors import (
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
from wsnloc.numerics import poly_roots
from wsnloc.pme import build_transform, VandermondeArray


def ula(n):
    return UniformLinearArray(n=n, spacing=0.5, wavelength=1.0)


def wrapped_deg(a, b):
    return np.degrees(np.abs((a - b + np.pi) % (2 * np.pi) - np.pi))


class TestEigSplit:
    def test_isotropic_split_still_orthogonal(self):
        split = eig_split(2.0 * np.eye(6), 2)
        assert np.allclose(split.eigenvalues, 2.0)
        assert np.max(np.abs(split.signal.conj().T @ split.noise)) < 1e-10

    def test_single_source_signal_space(self):
        g = ula(6)
        theta = np.radians(15.0)
        r = analytic_covariance(g, SourceSet(azimuths=[theta]))
        split = eig_split(r, 1)
        a = g.steering(theta) / np.sqrt(6)
        overlap = np.abs(a.conj() @ split.signal[:, 0])
        assert np.arccos(min(overlap, 1.0)) < 1e-8

    def test_noise_eigenvalues_at_noise_floor(self):
        g = ula(7)
        src = SourceSet(azimuths=np.radians([-20.0, 35.0]))
        r = analytic_covariance(g, src, noise_var=0.3)
        split = eig_split(r, 2)
        assert np.allclose(split.eigenvalues[2:], 0.3, atol=1e-8)

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
        assert np.degrees(est.azimuths[0]) == pytest.approx(10.0, abs=0.1)
        assert spectrum.grid.shape == spectrum.power_db.shape
        assert np.all(np.diff(spectrum.grid) > 0)

    def test_two_sources_at_ten_db(self):
        g = ula(8)
        src = SourceSet(azimuths=np.radians([-10.0, 10.0]))
        x = synthesize_snapshots(g, src, 100, 10.0, rng_for_trial(1, 0, 0))
        _, est = music(sample_covariance(x), g, 2)
        assert np.allclose(np.degrees(est.azimuths), [-10.0, 10.0], atol=0.5)

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
        split = eig_split(sample_covariance(x), 2)
        grid = np.linspace(-np.pi / 2 + 0.01, np.pi / 2 - 0.01, 721)
        a = g.steering(grid)
        den = np.sum(np.abs(split.noise.conj().T @ a) ** 2, axis=0)
        assert np.all(den >= 0)

    def test_detects_n_minus_one_uncorrelated(self):
        g = ula(5)
        truth = np.radians([-40.0, -15.0, 10.0, 35.0])
        r = analytic_covariance(g, SourceSet(azimuths=truth))
        _, est = music(r, g, 4)
        assert np.allclose(np.degrees(est.azimuths), np.degrees(truth), atol=0.5)

    def test_too_many_sources(self):
        with pytest.raises(TooManySources):
            music(np.eye(4), ula(4), 4)


def uncached_music(r, g, n_sources, step):
    """MUSIC with its grid, steering matrix and numerator built inline."""
    lo, hi = g.fov
    stop = hi + step / 2 if np.isclose(hi, np.pi) else hi - step / 2
    grid = np.arange(lo + step, stop, step)
    a = g.steering(grid)
    num = np.sum(np.abs(a) ** 2, axis=0)
    noise = eig_split(r, n_sources).noise
    power = num / np.maximum(np.sum(np.abs(noise.conj().T @ a) ** 2, axis=0), 1e-300)
    return 10.0 * np.log10(power), _pick_peaks(grid, power, n_sources)


SCAN_GEOMETRIES = {
    "ula": lambda: ula(8),
    "uca": lambda: UniformCircularArray(n=8, radius=0.55, elevation=np.radians(40.0), wavelength=1.0),
    "vandermonde": lambda: VandermondeArray(7),
}


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
            assert np.array_equal(est.azimuths, azimuths)

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


class TestRootMusic:
    def test_noiseless_single_source(self):
        g = ula(5)
        r = analytic_covariance(g, SourceSet(azimuths=[np.radians(20.0)]))
        est = root_music(r, g, 1)
        assert np.degrees(est.azimuths[0]) == pytest.approx(20.0, abs=1e-6)

    def test_roots_close_under_conjugate_reciprocal(self):
        g = ula(5)
        r = analytic_covariance(g, SourceSet(azimuths=[np.radians(20.0)]), 0.05)
        split = eig_split(r, 1)
        c = split.noise @ split.noise.conj().T
        coeffs = np.conj(
            np.array([np.trace(c, offset=k) for k in range(4, -5, -1)])
        )
        roots = poly_roots(coeffs).roots
        assert roots.size == 2 * (g.n - 1)
        for z in roots:
            partner = 1.0 / np.conj(z)
            assert np.min(np.abs(roots - partner)) < 1e-8

    def test_matches_music_on_random_scenarios(self):
        g = ula(8)
        for trial in range(50):
            rng = rng_for_trial(50, 0, trial)
            a1 = rng.uniform(-60.0, 40.0)
            a2 = a1 + rng.uniform(12.0, 25.0)
            src = SourceSet(azimuths=np.radians([a1, a2]))
            x = synthesize_snapshots(g, src, 500, 20.0, rng)
            r = sample_covariance(x)
            m = music(r, g, 2)[1].azimuths
            rm = root_music(r, g, 2).azimuths
            assert np.max(np.abs(np.degrees(m - rm))) < 0.5

    def test_requires_linear_array(self):
        g = UniformCircularArray(n=6, radius=0.5, elevation=1.0, wavelength=1.0)
        with pytest.raises(WrongGeometry):
            root_music(np.eye(6), g, 1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(3, 12))
    def test_noiseless_exact_on_random_ulas(self, data, n):
        # Each noiseless source is a double root on the unit circle; its
        # sqrt(eps) split moved the inside root alone by up to ~1e-5 deg.
        k = data.draw(st.integers(1, min(3, n - 1)))
        truth = np.sort(
            data.draw(st.lists(st.floats(-69.9, 69.9), min_size=k, max_size=k))
        )
        assume(k == 1 or np.min(np.diff(truth)) >= 5.0)
        g = ula(n)
        r = analytic_covariance(g, SourceSet(azimuths=np.radians(truth)))
        est = root_music(r, g, k)
        assert np.max(np.abs(np.degrees(est.azimuths) - truth)) < 1e-6

    @pytest.mark.parametrize("phi_deg", [-150.0, -30.0, 0.0, 30.0, 95.0, 180.0])
    def test_double_root_on_circle_paired(self, phi_deg):
        # exact double root at exp(j phi) times one conjugate-reciprocal
        # pair off the circle: the split double root must be averaged back
        u = np.exp(1j * np.radians(phi_deg))
        a = 0.6 * np.exp(1j * (np.radians(phi_deg) + 1.0))
        coeffs = np.poly([u, u, a, 1.0 / np.conj(a)])
        z = _roots_inside_unit_circle(coeffs, 1)
        assert abs(np.angle(z[0] * np.conj(u))) < 1e-12


class TestEsprit:
    def test_noiseless_single_source(self):
        g = ula(5)
        x = synthesize_snapshots(
            g, SourceSet(azimuths=[np.radians(20.0)]), 50, np.inf, rng_for_trial(4, 0, 0)
        )
        est = esprit(x, g, 1)
        assert np.degrees(est.azimuths[0]) == pytest.approx(20.0, abs=1e-8)

    def test_two_sources_at_ten_db(self):
        g = ula(8)
        src = SourceSet(azimuths=np.radians([-10.0, 10.0]))
        x = synthesize_snapshots(g, src, 100, 10.0, rng_for_trial(5, 0, 0))
        est = esprit(x, g, 2)
        assert np.allclose(np.degrees(est.azimuths), [-10.0, 10.0], atol=0.5)

    def test_rotation_eigenvalues_on_unit_circle(self):
        g = ula(6)
        src = SourceSet(azimuths=np.radians([-25.0, 15.0]))
        x = synthesize_snapshots(g, src, 200, np.inf, rng_for_trial(6, 0, 0))
        split = eig_split(sample_covariance(x), 2)
        v1, v2 = split.signal[:-1], split.signal[1:]
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
        assert wrapped_deg(est.azimuths[0], np.radians(30.0)) < 1.0

    def test_uca_esprit_single_source(self):
        g = self.make_uca()
        t = build_transform(g)
        x = synthesize_snapshots(
            g, SourceSet(azimuths=[np.radians(30.0)]), 500, 30.0, rng_for_trial(8, 0, 0)
        )
        est = uca_esprit(x, t, 1)
        assert wrapped_deg(est.azimuths[0], np.radians(30.0)) < 1.0

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
            t = build_transform(g, h=3)
            x = synthesize_snapshots(
                g, SourceSet(azimuths=truth), 400, np.inf, rng_for_trial(9, 0, 0)
            )
            est = uca_root_music(x, t, 2)
            biases.append(
                np.max(np.abs(np.degrees(est.azimuths - np.sort(truth))))
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
        assert wrapped_deg(est.azimuths[0], vula_est.azimuths[0]) < 1.0

    def test_uca_estimators_agree(self):
        g = self.make_uca()
        t = build_transform(g)
        for trial in range(50):
            rng = rng_for_trial(11, 0, trial)
            theta = np.radians(rng.uniform(-175.0, 175.0))
            x = synthesize_snapshots(g, SourceSet(azimuths=[theta]), 500, 20.0, rng)
            rm = uca_root_music(x, t, 1).azimuths[0]
            es = uca_esprit(x, t, 1).azimuths[0]
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
        assert wrapped_deg(est.azimuths[0], theta) < 1e-6


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
            est = outcome(lambda *a: uca_esprit(*a).azimuths, x, t, m)
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
    assert estimate(data, most).azimuths.size == most
    with pytest.raises(TooManySources):
        estimate(data, most + 1)


class TestDeterminism:
    def test_estimators_deterministic_given_inputs(self):
        g = ula(8)
        src = SourceSet(azimuths=np.radians([-15.0, 20.0]))
        x = synthesize_snapshots(g, src, 200, 15.0, rng_for_trial(30, 0, 0))
        r = sample_covariance(x)
        assert np.array_equal(music(r, g, 2)[1].azimuths, music(r, g, 2)[1].azimuths)
        assert np.array_equal(
            root_music(r, g, 2).azimuths, root_music(r, g, 2).azimuths
        )
        assert np.array_equal(esprit(x, g, 2).azimuths, esprit(x, g, 2).azimuths)


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
                music(r, g, 2)[1].azimuths,
                root_music(r, g, 2).azimuths,
                esprit(x, g, 2).azimuths,
            ]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert np.max(np.abs(np.degrees(results[i] - results[j]))) < 0.5
