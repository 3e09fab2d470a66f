import numpy as np
import pytest

from wsnloc.errors import (
    DegenerateLeadingCoefficient,
    NonHermitian,
    NumericOverflow,
)
from wsnloc.numerics import (
    HERMITIAN_RTOL,
    _check_hermitian,
    herm_eig,
    herm_eig_stack,
    poly_roots,
)


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

    def test_stack_fails_each_matrix_as_herm_eig_does(self):
        # a matrix already failed, one not finite, one not Hermitian, and two good ones:
        # each fails with herm_eig's error or gets herm_eig's bits
        rng = np.random.default_rng(2)
        r = np.array([random_hermitian(4, rng) for _ in range(5)])
        r[1, 2, 2] = np.inf
        r[2, 0, 1] += 1.0
        marked = ValueError("failed upstream")
        w, q, failed = herm_eig_stack(r, np.array([None, None, None, marked, None], dtype=object))
        assert failed[3] is marked
        assert [type(f) for f in failed[:3]] == [type(None), NumericOverflow, NonHermitian]
        assert failed[4] is None
        for i in (1, 2, 3):
            assert np.all(np.isnan(w[i])) and np.all(np.isnan(q[i]))
        for i in (0, 4):
            w_i, q_i = herm_eig(r[i])
            assert w[i].tobytes() == w_i.tobytes()
            assert np.ascontiguousarray(q[i]).tobytes() == np.ascontiguousarray(q_i).tobytes()


class TestPolyRoots:
    def test_quadratic(self):
        roots = poly_roots([1.0, 0.0, -1.0])
        assert roots.shape == (2,)
        assert np.allclose(np.sort(roots.real), [-1.0, 1.0])
        assert np.allclose(roots.imag, 0.0)

    def test_conjugate_pair_recovered(self):
        z1 = np.exp(1j * np.pi / 4)
        z2 = np.exp(-1j * np.pi / 4)
        coeffs = np.array([1.0, -(z1 + z2), z1 * z2])
        roots = np.sort_complex(poly_roots(coeffs))
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
        roots = poly_roots(coeffs)
        resid = np.abs(np.polyval(coeffs, roots))
        assert np.all(resid < 1e-8 * np.max(np.abs(coeffs)))

    @pytest.mark.parametrize(
        "coeffs",
        [
            [2.0, -3.0, 1.0, 0.0, 0.0],  # two trailing zeros: roots at 0, appended last
            [3.0, 0.0, 0.0],  # nothing but roots at 0
            [1.5, -4.25, 0.5, 7.0],  # real
            [1, -6, 11, -6],  # integers, cast to float
            [4.0, 2.0],  # degree 1
            [1.0 + 2.0j, -0.5j, 3.0, 0.0],  # complex, one trailing zero
            np.conj(np.poly(np.exp(1j * np.linspace(-2.0, 2.0, 6)))),
        ],
    )
    def test_bits_are_numpy_roots(self, coeffs):
        got, oracle = poly_roots(coeffs), np.roots(coeffs)
        assert got.dtype == oracle.dtype and got.tobytes() == oracle.tobytes()

    def test_bits_are_numpy_roots_at_every_degree(self):
        # the companion path, against numpy.roots itself: real and complex coefficients
        # of degree 1 to 30 over twelve decades, single precision too; and each with a
        # trailing zero or as integers, which go through numpy.roots
        rng = np.random.default_rng(30)
        for degree in range(1, 31):
            for _ in range(4):
                scale = 10.0 ** rng.uniform(-6.0, 6.0, size=degree + 1)
                real = rng.normal(size=degree + 1) * scale
                inputs = [real, real + 1j * rng.normal(size=degree + 1) * scale]
                inputs += [real.astype(np.float32), np.append(real, 0.0)]
                inputs.append(np.append(rng.integers(1, 9, size=degree), rng.integers(-9, 9)))
                for coeffs in inputs:
                    got, oracle = poly_roots(coeffs), np.roots(coeffs)
                    assert got.dtype == oracle.dtype and got.tobytes() == oracle.tobytes()

    def test_rank_one_input(self):
        with pytest.raises(ValueError, match="rank-1"):
            poly_roots(np.ones((3, 3)))

    @pytest.mark.parametrize("degree", [8, 16, 64])
    def test_residual_bound(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        roots = poly_roots(coeffs)
        assert roots.size == degree
        resid = np.abs(np.polyval(coeffs, roots))
        # residual scaled like |Q(root)| relative to coefficient size and
        # the root magnitude raised to the degree
        scale = np.max(np.abs(coeffs)) * np.maximum(np.abs(roots), 1.0) ** degree
        assert np.all(resid < 1e-8 * scale)


def two_norm_verdict(m, rtol=HERMITIAN_RTOL):
    """The Hermitian check as one comparison of the skew's and the matrix's norms."""
    return not np.linalg.norm(m - m.conj().T) > rtol * max(np.linalg.norm(m), 1.0)


def check_verdict(m):
    try:
        _check_hermitian(m)
    except NonHermitian:
        return False
    return True


class TestCheckHermitian:
    def test_exact_hermitian_zero_and_nan_matrices_pass(self):
        rng = np.random.default_rng(5)
        nan = random_hermitian(4, rng)
        nan[1, 2] = np.nan
        for m in (random_hermitian(6, rng), np.zeros((3, 3)), nan, np.full((2, 2), np.nan)):
            assert check_verdict(m) and two_norm_verdict(m)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_skews_either_side_of_the_tolerance(self, scale):
        rng = np.random.default_rng(int(scale * 1000))
        h = scale * random_hermitian(5, rng)
        e = np.triu(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)), 1)
        unit = np.linalg.norm(e - e.conj().T)  # the skew of h + t e is t times this
        bound = HERMITIAN_RTOL * max(np.linalg.norm(h), 1.0) / unit
        verdicts = []
        for factor in (1.0 - 1e-6, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-6):
            m = h + factor * bound * e
            verdicts.append(two_norm_verdict(m))
            assert check_verdict(m) == verdicts[-1]
        assert verdicts[0] and not verdicts[-1]

    def test_infinite_entries_get_the_two_norm_verdict(self):
        m = np.eye(3, dtype=complex)
        m[0, 1] = np.inf
        with np.errstate(invalid="ignore"):
            assert check_verdict(m) == two_norm_verdict(m)
