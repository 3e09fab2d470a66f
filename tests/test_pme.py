import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnloc.arrays import UniformCircularArray, UniformLinearArray
from wsnloc.errors import (
    BesselNearZero,
    DimensionMismatch,
    InsufficientElements,
    NearSingular,
    OutOfSupportedRange,
    WrongGeometry,
)
from wsnloc.pme import (
    VandermondeArray,
    bessel_j,
    build_transform,
    max_mode,
    to_vula,
    vula_steering,
)


def uca(n, r, elevation=np.pi / 2, wavelength=1.0):
    return UniformCircularArray(n=n, radius=r, elevation=elevation, wavelength=wavelength)


class TestMaxMode:
    def test_full_wavelength_ring(self):
        assert max_mode(1.0, 1.0) == 6

    def test_unit_aperture_ring(self):
        assert max_mode(1.0 / (2 * np.pi), 1.0) == 1

    def test_degenerate_ring(self):
        assert max_mode(1e-9, 1.0) == 0


class TestBesselJ:
    def test_known_values(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(3, 0.0) == 0.0
        assert bessel_j(1, 1.0) == pytest.approx(0.4400505857449335, rel=1e-13)

    @pytest.mark.parametrize(
        "p,zeta",
        [
            (0, 0.5), (1, 1.0), (2, 1.18), (3, 3.3), (6, 3.14),
            (0, 12.0), (4, 12.0), (10, 8.0), (5, 30.0), (12, 30.0),
            (25, 60.0), (40, 100.0), (64, 128.0), (0, 128.0), (64, 2.0),
        ],
    )
    def test_against_high_precision_oracle(self, p, zeta):
        oracle = float(mpmath.besselj(p, mpmath.mpf(zeta)))
        assert bessel_j(p, zeta) == pytest.approx(oracle, rel=1e-12, abs=1e-280)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(0, 20), zeta=st.floats(0.01, 40.0))
    def test_symmetry_negative_order(self, p, zeta):
        assert bessel_j(-p, zeta) == pytest.approx(
            (-1.0) ** p * bessel_j(p, zeta), rel=1e-12, abs=1e-300
        )

    def test_out_of_range(self):
        with pytest.raises(OutOfSupportedRange):
            bessel_j(65, 1.0)
        with pytest.raises(OutOfSupportedRange):
            bessel_j(0, 129.0)
        with pytest.raises(OutOfSupportedRange):
            bessel_j(0, -0.5)


class TestBuildTransform:
    def test_beamformer_rows_orthogonal(self):
        # Tv = diag(J) F with F F^H = I / N, so Tv Tv^H is diagonal
        t = build_transform(uca(12, 0.5))
        gram = t.Tv @ t.Tv.conj().T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-12 * np.max(np.abs(np.diag(gram)))

    def test_prewhitened_rows_orthonormal(self):
        t = build_transform(uca(12, 0.5))
        eye = np.eye(t.vula_size)
        assert np.max(np.abs(t.Tw @ t.Tw.conj().T - eye)) < 1e-10

    def test_equalizer_symmetric_in_mode(self):
        # element 0 sits at angle 0, where every beamformer row is 1 / N: n Tv[:, 0] = J
        t = build_transform(uca(12, 0.5))
        h, j = t.h, 12 * t.Tv[:, 0]
        for p in range(1, h + 1):
            assert j[h + p] == pytest.approx(j[h - p], rel=1e-12)

    @pytest.mark.parametrize(
        "n, r, elevation_deg", [(3, 0.2, 90.0), (12, 0.5, 90.0), (16, 1.1, 40.0)]
    )
    def test_whiten_and_color_are_the_gram_square_roots(self, n, r, elevation_deg):
        t = build_transform(uca(n, r, np.radians(elevation_deg)))
        gram = t.Tv @ t.Tv.conj().T
        eye = np.eye(t.vula_size)
        assert np.linalg.norm(t.whiten @ gram @ t.whiten - eye) < 1e-9
        assert np.linalg.norm(t.color @ t.color - gram) < 1e-9 * np.linalg.norm(gram)

    def test_near_singular_gram_raises(self):
        # just off J_0's first zero: |J_0| stays above the Bessel floor, but its row's
        # 1 / |J_0|^2 swamps the others, whose eigenvalues fall below 1e-12 of the trace
        zeta = 2.404825557695773 + 1e-8
        with pytest.raises(NearSingular):
            build_transform(uca(6, zeta / (2.0 * np.pi)))

    @pytest.mark.parametrize("elevation_deg", [90.0, 20.0])
    def test_mapped_steering_close_to_vandermonde(self, elevation_deg):
        g = uca(12, 0.5, np.radians(elevation_deg))
        t = build_transform(g)
        assert t.h == 3
        grid = np.radians(np.arange(-180.0, 180.0, 1.0))
        mapped = t.Tv @ g.steering(grid)
        ideal = vula_steering(grid, t)
        resid = np.linalg.norm(mapped - ideal, axis=0) / np.linalg.norm(ideal, axis=0)
        assert np.max(resid) < 0.05

    def test_residual_shrinks_with_element_count(self):
        h = 3
        resids = []
        for n in (2 * h + 1, 2 * h + 4, 2 * h + 8):
            g = uca(n, 0.55, np.radians(40.0))
            t = build_transform(g)
            assert t.h == h  # max_mode of a 0.55-wavelength ring, below every N / 2
            grid = np.radians(np.arange(-180.0, 180.0, 2.0))
            mapped = t.Tv @ g.steering(grid)
            ideal = vula_steering(grid, t)
            resids.append(
                np.max(np.linalg.norm(mapped - ideal, axis=0) / np.linalg.norm(ideal, axis=0))
            )
        assert resids[0] > resids[1] > resids[2]

    def test_auto_mode_clamped_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = build_transform(uca(7, 1.0))  # ring suggests h=6, needs N>12
        assert t.h == 3
        assert any("clamp" in str(w.message) for w in caught)

    def test_ring_too_small_for_any_mode(self):
        with pytest.raises(InsufficientElements):
            build_transform(uca(9, 0.1))  # max_mode 0

    def test_zero_elevation_has_no_invertible_modes(self):
        with pytest.raises(BesselNearZero):
            build_transform(uca(9, 0.55, elevation=0.0))

    def test_rejects_linear_array(self):
        with pytest.raises(WrongGeometry):
            build_transform(UniformLinearArray(n=8, spacing=0.5, wavelength=1.0))


class TestToVula:
    def test_zero_maps_to_zero(self):
        t = build_transform(uca(9, 0.55))
        assert np.allclose(to_vula(np.zeros((9, 4), complex), t), 0.0)

    def test_single_source_column_is_mapped_steering(self):
        g = uca(12, 0.5, np.radians(20.0))
        t = build_transform(g)
        theta = 0.42
        x = np.outer(g.steering(theta), [2.0 - 1j])
        out = to_vula(x, t)
        expected = (t.Tv @ g.steering(theta)) * (2.0 - 1j)
        assert np.allclose(out[:, 0], expected, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(-2, 2), beta=st.floats(-2, 2))
    def test_linearity(self, alpha, beta):
        t = build_transform(uca(9, 0.55))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
        y = rng.normal(size=(9, 3)) - 1j * rng.normal(size=(9, 3))
        lhs = to_vula(alpha * x + beta * y, t)
        rhs = alpha * to_vula(x, t) + beta * to_vula(y, t)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_prewhitened_noise_stays_white(self):
        t = build_transform(uca(9, 0.55, np.radians(40.0)))
        rng = np.random.default_rng(1)
        sigma2 = 0.5
        k = 10_000
        noise = np.sqrt(sigma2 / 2) * (
            rng.normal(size=(9, k)) + 1j * rng.normal(size=(9, k))
        )
        out = to_vula(noise, t, prewhitened=True)
        r = out @ out.conj().T / k
        assert np.max(np.abs(r - sigma2 * np.eye(t.vula_size))) < 0.05 * sigma2

    def test_dimension_mismatch(self):
        t = build_transform(uca(9, 0.55))
        with pytest.raises(DimensionMismatch):
            to_vula(np.zeros((8, 4), complex), t)


class TestVandermondeArray:
    def test_steering_shape_and_modulus(self):
        v = VandermondeArray(5)
        a = v.steering(np.array([0.1, -0.7]))
        assert a.shape == (5, 2)
        assert np.allclose(np.abs(a), 1.0)
        assert np.allclose(a[1, :] / a[0, :], np.exp(1j * np.array([0.1, -0.7])))
