import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wsnloc.arrays import SourceSet, UniformLinearArray, analytic_covariance
from wsnloc.decorrelate import SmoothingPlan, fbss, fss, toeplitz_reconstruct
from wsnloc.doa import music
from wsnloc.errors import DimensionMismatch, InvalidPlan

SIX_COHERENT = np.radians([-40.0, -30.0, -20.0, 20.0, 30.0, 40.0])


def ula(n):
    return UniformLinearArray(n=n, spacing=0.5, wavelength=1.0)


def coherent_cov(n, azimuths=SIX_COHERENT, amplitudes=None):
    src = SourceSet(azimuths=azimuths, amplitudes=amplitudes, coherent=True)
    return analytic_covariance(ula(n), src)


def signal_rank(r, rel=1e-8):
    w = np.linalg.eigvalsh(r)[::-1]
    return int(np.sum(w > rel * np.trace(r).real))


def assert_hermitian_psd(r):
    assert np.allclose(r, r.conj().T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(r)) >= -1e-10 * abs(np.trace(r).real)


class TestSmoothingPlan:
    def test_default_minimum_subarray(self):
        plan = SmoothingPlan.design(12, 6)
        assert plan.subarray_len == 7
        assert plan.subarray_count == 6

    def test_subarray_must_exceed_sources(self):
        with pytest.raises(InvalidPlan):
            SmoothingPlan.design(12, 6, subarray_len=6)

    def test_forward_needs_enough_subarrays(self):
        with pytest.raises(InvalidPlan):
            SmoothingPlan.design(9, 6)

    def test_backward_pass_doubles_capacity(self):
        plan = SmoothingPlan.design(9, 6, forward_backward=True)
        assert plan.subarray_count == 3


class TestFss:
    def test_full_length_subarray_is_identity(self):
        r = coherent_cov(8, np.radians([10.0]), None)
        plan = SmoothingPlan(subarray_len=8, subarray_count=1, n_sources=1)
        assert np.allclose(fss(r, plan), r, atol=1e-12)

    def test_restores_rank_six_of_twelve(self):
        r = coherent_cov(12)
        smoothed = fss(r, SmoothingPlan.design(12, 6))
        assert smoothed.shape == (7, 7)
        assert signal_rank(smoothed) == 6
        assert_hermitian_psd(smoothed)

    def test_no_valid_plan_for_six_of_nine(self):
        r = coherent_cov(9)
        with pytest.raises(InvalidPlan):
            fss(r, SmoothingPlan(subarray_len=7, subarray_count=3, n_sources=6))

    def test_dimension_checked(self):
        r = coherent_cov(9)
        with pytest.raises(DimensionMismatch):
            fss(r, SmoothingPlan.design(12, 6))


class TestFbss:
    def test_same_signal_span_as_fss_for_uncorrelated(self):
        src = SourceSet(azimuths=np.radians([-25.0, 5.0, 40.0]))
        r = analytic_covariance(ula(10), src)
        plan = SmoothingPlan.design(10, 3)
        uf = np.linalg.svd(fss(r, plan))[0][:, :3]
        ub = np.linalg.svd(fbss(r, plan))[0][:, :3]
        angles = np.linalg.svd(uf.conj().T @ ub, compute_uv=False)
        assert np.all(np.arccos(np.clip(angles, 0, 1)) < 1e-6)

    def test_restores_rank_six_of_nine(self):
        r = coherent_cov(9)
        smoothed = fbss(r, SmoothingPlan.design(9, 6, forward_backward=True))
        assert smoothed.shape == (7, 7)
        assert signal_rank(smoothed) == 6
        assert_hermitian_psd(smoothed)

    def test_resolves_six_coherent_on_nine_elements(self):
        r = coherent_cov(9)
        smoothed = fbss(r, SmoothingPlan.design(9, 6, forward_backward=True))
        _, est = music(smoothed, ula(7), 6, grid_step=np.radians(0.05))
        assert np.allclose(np.degrees(est), np.degrees(np.sort(SIX_COHERENT)), atol=0.5)

    def test_isotropic_input_unchanged(self):
        r = 2.5 * np.eye(8)
        plan = SmoothingPlan.design(8, 2, forward_backward=True)
        rf = fss(r, plan)
        rb = fbss(r, plan)
        assert np.allclose(rf, rb, atol=1e-14)
        assert np.allclose(rb, 2.5 * np.eye(plan.subarray_len), atol=1e-14)


class TestToeplitzReconstruct:
    def test_hermitian_toeplitz_fixed_point(self):
        row = np.array([2.0, 0.5 - 0.2j, 0.1 + 0.3j])
        r = scipy.linalg.toeplitz(np.conj(row), row)
        assert np.allclose(toeplitz_reconstruct(r), r, atol=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), complex_valued=st.booleans())
    def test_matches_scipy_toeplitz_bit_for_bit(self, data, n, complex_valued):
        # the index-built matrix equals the scipy construction it replaced, dtype included
        elements = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        a = data.draw(arrays(np.float64, (n, n), elements=elements))
        if complex_valued:
            a = a + 1j * data.draw(arrays(np.float64, (n, n), elements=elements))
        r = a + a.conj().T  # exactly Hermitian
        row = r[0].copy()
        row[0] = row[0].real
        t = scipy.linalg.toeplitz(np.conj(row), row)
        expected = 0.5 * (t + t.conj().T)
        got = toeplitz_reconstruct(r)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_restores_rank_six_of_seven(self):
        r = coherent_cov(7)
        rebuilt = toeplitz_reconstruct(r)
        assert rebuilt.shape == (7, 7)
        assert signal_rank(rebuilt) == 6

    def test_resolves_six_coherent_on_seven_elements(self):
        r = coherent_cov(7)
        _, est = music(toeplitz_reconstruct(r), ula(7), 6, grid_step=np.radians(0.05))
        assert np.allclose(np.degrees(est), np.degrees(np.sort(SIX_COHERENT)), atol=0.5)

    def test_single_source_first_row_matches_direct_evaluation(self):
        # coherent rank-one covariance: first row is alpha rho_m-weighted
        # conjugate steering lags; the rebuilt matrix must reproduce them
        theta = np.radians(25.0)
        rho = 1.7
        g = ula(6)
        r = coherent_cov(6, np.array([theta]), np.array([rho]))
        rebuilt = toeplitz_reconstruct(r)
        a = g.steering(theta)
        alpha = rho
        expected_row = alpha * rho * np.conj(a) * a[0]
        assert np.allclose(rebuilt[0], expected_row, atol=1e-12)
        assert np.allclose(rebuilt[:, 0], np.conj(expected_row), atol=1e-12)

    def test_power_enhancement_two_sources(self):
        # recovered source matrix should be diag(alpha rho_m) with
        # alpha = rho_1 + rho_2
        azimuths = np.radians([-15.0, 30.0])
        rho = np.array([1.0, 2.0])
        g = ula(6)
        rebuilt = toeplitz_reconstruct(coherent_cov(6, azimuths, rho))
        a = g.steering(azimuths)
        pinv = np.linalg.pinv(a)
        recovered = pinv @ rebuilt @ pinv.conj().T
        alpha = np.sum(rho)
        assert np.allclose(recovered, np.diag(alpha * rho), atol=1e-9)
