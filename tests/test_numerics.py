import numpy as np
import pytest

from wsnloc.errors import (
    DegenerateLeadingCoefficient,
    NearSingular,
    NonHermitian,
    NumericOverflow,
)
from wsnloc.numerics import herm_eig, inv_sqrt_psd, poly_roots


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


class TestHermEig:
    def test_identity(self):
        w, q = herm_eig(np.eye(4))
        assert np.allclose(w, 1.0)
        assert np.allclose(q @ q.conj().T, np.eye(4))

    def test_diag_descending(self):
        w, q = herm_eig(np.diag([3.0, 1.0]))
        assert np.allclose(w, [3.0, 1.0])
        assert np.allclose(np.abs(q), np.eye(2))

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(0)
        r = random_hermitian(8, rng)
        w, q = herm_eig(r)
        resid = np.linalg.norm(r - (q * w) @ q.conj().T) / np.linalg.norm(r)
        assert resid < 1e-10
        assert np.all(np.diff(w) <= 0)

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(1)
        r = random_hermitian(6, rng)
        w, _ = herm_eig(r)
        assert np.isclose(np.sum(w), np.trace(r).real, rtol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            herm_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_entries(self, bad):
        # an overflowed sample covariance: eigh would raise LinAlgError on it
        r = np.eye(3, dtype=complex)
        r[1, 1] = bad
        with pytest.raises(NumericOverflow):
            herm_eig(r)


class TestPolyRoots:
    def test_quadratic(self):
        out = poly_roots([1.0, 0.0, -1.0])
        assert out.degree == 2
        assert np.allclose(np.sort(out.roots.real), [-1.0, 1.0])
        assert np.allclose(out.roots.imag, 0.0)

    def test_conjugate_pair_recovered(self):
        z1 = np.exp(1j * np.pi / 4)
        z2 = np.exp(-1j * np.pi / 4)
        coeffs = np.array([1.0, -(z1 + z2), z1 * z2])
        roots = np.sort_complex(poly_roots(coeffs).roots)
        assert np.allclose(roots, np.sort_complex(np.array([z1, z2])), atol=1e-10)

    def test_degenerate_leading_coefficient(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            poly_roots([0.0, 1.0, 2.0])

    def test_residual_bound_near_unit_circle(self):
        # the rooting use case: conjugate-reciprocal root pairs straddling
        # the unit circle, where |Q(root)| < 1e-8 max|coef| holds literally
        rng = np.random.default_rng(3)
        inside = rng.uniform(0.9, 0.999, size=4) * np.exp(
            2j * np.pi * rng.uniform(size=4)
        )
        roots = np.concatenate([inside, 1.0 / np.conj(inside)])
        coeffs = np.poly(roots)
        out = poly_roots(coeffs)
        resid = np.abs(np.polyval(coeffs, out.roots))
        assert np.all(resid < 1e-8 * np.max(np.abs(coeffs)))

    @pytest.mark.parametrize("degree", [8, 16, 64])
    def test_residual_bound(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        out = poly_roots(coeffs)
        assert out.roots.size == degree
        resid = np.abs(np.polyval(coeffs, out.roots))
        # residual scaled like |Q(root)| relative to coefficient size and
        # the root magnitude raised to the degree
        scale = np.max(np.abs(coeffs)) * np.maximum(np.abs(out.roots), 1.0) ** degree
        assert np.all(resid < 1e-8 * scale)


class TestInvSqrtPsd:
    def test_identity(self):
        assert np.allclose(inv_sqrt_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        x = inv_sqrt_psd(np.diag([4.0, 9.0]))
        assert np.allclose(x, np.diag([0.5, 1.0 / 3.0]))

    def test_defining_equation(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 5))
        m = a @ a.T + 5 * np.eye(5)
        x = inv_sqrt_psd(m)
        assert np.linalg.norm(x @ m @ x - np.eye(5)) < 1e-9

    def test_near_singular(self):
        with pytest.raises(NearSingular):
            inv_sqrt_psd(np.diag([1.0, 1e-16]))
