import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnloc import arrays
from wsnloc.arrays import (
    SourceSet,
    UniformCircularArray,
    UniformLinearArray,
    analytic_covariance,
    sample_covariance,
    steering_matrix,
    synthesize_snapshots,
)
from wsnloc.errors import CoincidentSources, LengthMismatch, TooManySources

ULA8 = UniformLinearArray(n=8, spacing=0.5, wavelength=1.0)
UCA4 = UniformCircularArray(n=4, radius=1.0 / (2 * np.pi), elevation=np.pi / 2, wavelength=1.0)


def signal_rank(r, rel=1e-10):
    w = np.linalg.eigvalsh(r)[::-1]
    return int(np.sum(w > rel * max(np.trace(r).real, 1e-300)))


class TestUlaSteering:
    def test_broadside_all_ones(self):
        assert np.allclose(ULA8.steering(0.0), np.ones(8))

    def test_two_element_30deg(self):
        g = UniformLinearArray(n=2, spacing=0.5, wavelength=1.0)
        a = g.steering(np.radians(30.0))
        assert np.allclose(a, [1.0, -1j], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(-1.5, 1.5))
    def test_unit_modulus(self, theta):
        assert np.allclose(np.abs(ULA8.steering(theta)), 1.0)


class TestUcaSteering:
    def test_zero_elevation_degenerates_to_ones(self):
        g = UniformCircularArray(n=5, radius=0.4, elevation=0.0, wavelength=1.0)
        assert np.allclose(g.steering(0.7), np.ones(5))

    def test_unit_ring_phases(self):
        # zeta = 1, theta = 0: phases cos(-theta_n) over the four quadrants
        phases = np.angle(UCA4.steering(0.0))
        assert np.allclose(phases, [1.0, 0.0, -1.0, 0.0], atol=1e-12)

    def test_rotation_by_element_angle_permutes(self):
        g = UniformCircularArray(n=6, radius=0.7, elevation=0.9, wavelength=1.0)
        base = g.steering(0.3)
        rotated = g.steering(0.3 + 2 * np.pi / 6)
        assert np.allclose(rotated, np.roll(base, 1), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(-np.pi, np.pi))
    def test_unit_modulus(self, theta):
        assert np.allclose(np.abs(UCA4.steering(theta)), 1.0)


class TestSnapshots:
    def test_one_trial_and_a_stack(self):
        # A s, plus the trial's noise where it has any; a stack adds each trial's own
        steer = np.array([[1.0 + 0j], [-1.0 + 0.5j]])
        s = np.array([[-0.5 + 0j, 2.0 + 1j]])
        product = steer @ s
        x = arrays.snapshots(steer, s, None)
        assert x.tobytes() == product.tobytes()
        noise = np.full((2, 2), 0.5 - 0.25j)
        assert arrays.snapshots(steer, s, noise).tobytes() == (product + noise).tobytes()
        stack = arrays.snapshots(np.stack([steer, -steer]), np.stack([s, s]), [None, noise])
        assert stack[0].tobytes() == product.tobytes()
        assert stack[1].tobytes() == (-steer @ s + noise).tobytes()


class TestSynthesizeSnapshots:
    def test_noiseless_single_snapshot_is_scaled_steering(self):
        src = SourceSet(azimuths=[0.3])
        x = synthesize_snapshots(ULA8, src, 1, np.inf, np.random.default_rng(0))
        a = ULA8.steering(0.3)
        ratio = x[:, 0] / a
        assert np.allclose(ratio, ratio[0])

    def test_coherent_noiseless_rank_one(self):
        src = SourceSet(azimuths=np.radians([-30, 0, 40]), coherent=True)
        x = synthesize_snapshots(ULA8, src, 100, np.inf, np.random.default_rng(1))
        assert signal_rank(sample_covariance(x)) == 1

    def test_uncorrelated_noiseless_rank_m(self):
        src = SourceSet(azimuths=np.radians([-30, 0, 40]))
        x = synthesize_snapshots(ULA8, src, 2000, np.inf, np.random.default_rng(2))
        assert signal_rank(sample_covariance(x)) == 3

    def test_too_many_sources(self):
        src = SourceSet(azimuths=np.linspace(-1, 1, 8))
        with pytest.raises(TooManySources):
            synthesize_snapshots(ULA8, src, 10, 10.0, np.random.default_rng(0))

    def test_noise_floor_matches_snr(self):
        # no sources: per-element noise power 10^(-snr/10) of unit reference
        src = SourceSet(azimuths=np.zeros(0))
        x = synthesize_snapshots(ULA8, src, 10_000, 7.0, np.random.default_rng(3))
        r = sample_covariance(x)
        assert np.mean(np.diag(r).real) == pytest.approx(10 ** (-0.7), rel=0.02)


    @pytest.mark.parametrize("shape", [(1, 100), (4, 100), (8, 100), (16, 100), (3, 1)])
    def test_complex_gaussians_are_the_two_draw_expression(self, shape):
        # one (2, *shape) draw written into the real and imaginary parts, times 1/sqrt(2):
        # the bytes of two draws combined as (a + 1j*b) / sqrt(2), and the same stream
        for seed in range(50):
            oracle, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            a, b = oracle.standard_normal(shape), oracle.standard_normal(shape)
            expected = (a + 1j * b) / np.sqrt(2.0)
            assert arrays._complex_gaussian(rng, shape).tobytes() == expected.tobytes()
            assert rng.random() == oracle.random()


class TestNoisePower:
    def test_unit_reference_and_infinite_snr(self):
        assert arrays.noise_power((), 10.0) == pytest.approx(0.1)
        assert arrays.noise_power(np.array([1.0, 2.0]), 0.0) == 5.0
        assert arrays.noise_power(np.array([1e300]), math.inf) == 0.0

    @pytest.mark.parametrize(
        "amplitudes, snr_db", [([1e300], 0.0), ([1e300], 1e300), ([1e150], -100.0)]
    )
    def test_power_past_the_float_range_raises(self, amplitudes, snr_db):
        # the total (squared with numpy's warning silenced), or the noise power it scales to
        with np.errstate(over="ignore"), pytest.raises(OverflowError):
            arrays.noise_power(np.array(amplitudes), snr_db)


@pytest.mark.parametrize(
    "make",
    [
        lambda length: UniformLinearArray(n=4, spacing=length, wavelength=1.0),
        lambda length: UniformLinearArray(n=4, spacing=0.5, wavelength=length),
        lambda length: UniformCircularArray(n=4, radius=length, elevation=1.0, wavelength=1.0),
        lambda length: UniformCircularArray(n=4, radius=0.5, elevation=1.0, wavelength=length),
    ],
)
@pytest.mark.parametrize("length", [math.inf, math.nan])
def test_array_lengths_must_be_finite(make, length):
    with pytest.raises(ValueError, match="must be finite"):
        make(length)


class TestSampleCovariance:
    def test_zero_snapshots_give_zero(self):
        assert np.allclose(sample_covariance(np.zeros((4, 3), complex)), 0.0)

    def test_single_snapshot_rank_one(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 1)) + 1j * rng.normal(size=(5, 1))
        r = sample_covariance(x)
        assert signal_rank(r) == 1
        assert np.allclose(r, np.outer(x[:, 0], x[:, 0].conj()) )

    def test_hermitian_psd(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 50)) + 1j * rng.normal(size=(6, 50))
        r = sample_covariance(x)
        assert np.allclose(r, r.conj().T)
        assert np.min(np.linalg.eigvalsh(r)) >= -1e-10 * np.trace(r).real

    def test_error_decays_like_inverse_sqrt_k(self):
        # Frobenius distance to the analytic covariance should fit a
        # log-log slope of about -1/2 in the snapshot count
        src = SourceSet(azimuths=np.radians([-20, 25]))
        noise_var = 10 ** (-1.0) * 2  # snr 10 dB, two unit sources
        exact = analytic_covariance(ULA8, src, noise_var)
        ks = np.array([100, 400, 1600, 6400, 25600])
        errs = []
        for k in ks:
            trials = []
            for t in range(8):
                rng = np.random.default_rng(100 + t)
                x = synthesize_snapshots(ULA8, src, int(k), 10.0, rng)
                trials.append(np.linalg.norm(sample_covariance(x) - exact))
            errs.append(np.mean(trials))
        slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


class TestBeampattern:
    # The array response w^H a(theta) of the steering model
    def test_cophasal_weights_unit_peak(self):
        theta0 = np.radians(20.0)
        w = ULA8.steering(theta0) / ULA8.n
        pattern = w.conj() @ steering_matrix(ULA8, [theta0])
        assert np.abs(pattern[0]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dirichlet_closed_form(self):
        # cophasal ULA pattern has |f| = |sin(N pi (v - v0)/2) / (N sin(pi (v - v0)/2))|
        g = UniformLinearArray(n=10, spacing=0.5, wavelength=1.0)
        theta0 = 0.0
        w = g.steering(theta0) / g.n
        grid = np.arange(-np.pi / 2 + 0.01, np.pi / 2, 0.01)
        pattern = np.abs(w.conj() @ g.steering(grid))
        v = 2 * g.spacing * np.sin(grid) / g.wavelength
        arg = np.pi * v / 2
        with np.errstate(invalid="ignore"):
            closed = np.abs(np.sin(g.n * arg) / (g.n * np.sin(arg)))
        closed[np.abs(arg) < 1e-12] = 1.0
        assert np.allclose(pattern, closed, atol=1e-9)


def loop_coincident(azimuths) -> bool:
    """Whether two of ``azimuths`` are one azimuth: equal as floats (+0.0 and -0.0 are),
    or both NaN."""
    return any(
        a == b or (math.isnan(a) and math.isnan(b))
        for i, a in enumerate(azimuths)
        for b in azimuths[i + 1 :]
    )


AZIMUTHS = st.sampled_from([0.0, -0.0, 0.5, -0.5, np.pi, np.inf, -np.inf, np.nan])


class TestCoincident:
    @pytest.mark.parametrize(
        "azimuths",
        [
            [0.3, 0.3],  # an exact repeat
            [0.1, -0.2, 0.1],
            [0.0, -0.0],  # +-0 are one azimuth
            [-0.0, 0.5, 0.0],
            [np.nan, 0.1],  # one NaN is an azimuth of its own
            [0.2, np.nan, np.nan],  # two NaNs are one
            [np.nan, np.nan],
            [-1.0, 0.0, 1.0, np.pi],  # distinct
            [np.inf, -np.inf],
            [0.7],
        ],
    )
    def test_one_set_against_a_loop(self, azimuths):
        verdict = arrays.coincident(np.array(azimuths))
        assert verdict.shape == () and bool(verdict) == loop_coincident(azimuths)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda m: st.lists(st.lists(AZIMUTHS, min_size=m, max_size=m), min_size=1, max_size=8)
        )
    )
    def test_stacked_sets_against_a_loop(self, sets):
        # (T, M) sets, and a (2, T, M) stack of them
        stack = np.array(sets)
        verdicts = arrays.coincident(stack)
        assert verdicts.tolist() == [loop_coincident(azimuths) for azimuths in sets]
        assert arrays.coincident(np.stack([stack, stack[::-1]])).tolist() == [
            verdicts.tolist(), verdicts[::-1].tolist()
        ]


class TestSourceSet:
    def test_rejects_duplicate_azimuths(self):
        with pytest.raises(ValueError):
            SourceSet(azimuths=[0.1, 0.1])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, np.pi, np.inf, -np.inf, np.nan]), max_size=6)
    )
    def test_repeats_are_what_np_unique_collapses(self, azimuths):
        # np.unique is the reference: +-0 are one azimuth, and so are two NaNs
        repeated = len(azimuths) != np.unique(np.asarray(azimuths, dtype=float)).size
        try:
            SourceSet(azimuths=azimuths)
        except CoincidentSources:
            assert repeated
        else:
            assert not repeated

    def test_rejects_mismatched_amplitudes(self):
        with pytest.raises(LengthMismatch):
            SourceSet(azimuths=[0.1, 0.4], amplitudes=[1.0])

    def test_steering_matrix_shape(self):
        a = steering_matrix(ULA8, np.radians([-10, 10, 30]))
        assert a.shape == (8, 3)
