import itertools
import math
import warnings

import lop_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnloc import rss
from wsnloc.channel import ChannelModel, invert_distance, path_loss
from wsnloc.errors import NumericOverflow, SingularSystem
from wsnloc.geometry import LinearSystem, build_lop_system, distance, lop_matrix
from wsnloc.rss import MAX_CONDITION, _ill_conditioned, huber_irls, huber_stack, ls_solve
from wsnloc.rss import solve_stack, wls_solve, wls_weights

ANCHORS = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
MODEL = ChannelModel(d0=1.0, eta=2.0, sigma_db=4.0, wavelength=0.3)


def noiseless_system(anchors, truth):
    return build_lop_system(anchors, [distance(a, truth) for a in anchors])


def grid_search_ls(system, lo=-50.0, hi=150.0, rounds=8, n=61):
    """Independent oracle: nested-grid minimizer of ||Ap - b||^2."""
    a, b = system
    cx, cy = 0.5 * (lo + hi), 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    best = None
    for _ in range(rounds):
        xs = np.linspace(cx - half, cx + half, n)
        ys = np.linspace(cy - half, cy + half, n)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        costs = np.sum((pts @ a.T - b) ** 2, axis=1)
        best = pts[np.argmin(costs)]
        cx, cy = best
        half *= 2.5 / (n - 1)
    return best


def huber_from(system, weights):
    return huber_irls(system, initial_weights=weights).position


class TestLsSolve:
    def test_noiseless_exact(self):
        truth = np.array([3.0, 4.0])
        anchors = ANCHORS[:3]
        assert np.allclose(ls_solve(noiseless_system(anchors, truth)), truth, atol=1e-9)

    def test_square_identity_like(self):
        system = LinearSystem(A=np.eye(2), b=np.array([7.0, -2.0]))
        assert np.allclose(ls_solve(system), [7.0, -2.0])

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=5) * 10
        system = LinearSystem(A=a, b=b)
        est = ls_solve(system)
        oracle = grid_search_ls(system)
        assert np.allclose(est, oracle, atol=1e-3)

    def test_minimality_under_perturbation(self):
        rng = np.random.default_rng(6)
        system = LinearSystem(A=rng.normal(size=(6, 2)), b=rng.normal(size=6))
        est = ls_solve(system)
        base = np.linalg.norm(system.A @ est - system.b)
        for _ in range(100):
            delta = rng.normal(size=2) * rng.uniform(1e-4, 1.0)
            assert np.linalg.norm(system.A @ (est + delta) - system.b) >= base

    def test_singular_system(self):
        system = LinearSystem(
            A=np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), b=np.array([1.0, 1.0])
        )
        with pytest.raises(SingularSystem):
            ls_solve(system)


class TestWlsWeights:
    def test_equal_distances_give_identity_scaling(self):
        w = wls_weights(MODEL, np.full(4, 50.0))
        assert np.allclose(w, w[0, 0] * np.eye(3))

    def test_equal_distance_wls_equals_ls(self):
        truth = np.array([50.0, 50.0])
        system = build_lop_system(
            ANCHORS, [distance(a, truth) + 1.5 for a in ANCHORS]
        )
        w = wls_weights(MODEL, np.full(4, 70.0))
        assert np.allclose(wls_solve(system, w), ls_solve(system), atol=1e-9)

    def test_near_anchor_weighted_harder(self):
        # Var(d^2) from the lognormal model scales like d^4, so the pair
        # row of the nearer anchor must carry strictly more weight.
        d = 20.0
        s = MODEL.sigma_db * math.log(10) / (10 * MODEL.eta)
        var = lambda x: math.exp(4 * math.log(x)) * (
            math.exp(8 * s**2) - math.exp(4 * s**2)
        )
        w = wls_weights(MODEL, np.array([d, 2 * d, 30.0]))
        assert var(2 * d) / var(d) == pytest.approx(16.0, rel=1e-9)
        assert w[0, 0] > w[1, 1]
        assert w[0, 0] == pytest.approx(1.0 / (var(d) + var(30.0)), rel=1e-9)

    def test_zero_sigma_identity_fallback(self):
        noiseless = ChannelModel(d0=1.0, eta=2.0, sigma_db=0.0, wavelength=0.3)
        assert np.allclose(wls_weights(noiseless, np.array([5.0, 9.0, 3.0])), np.eye(2))

    # a log-domain variance s^2 that underflows to 0: a std of 1e-300, or a path-loss
    # exponent of 1e300
    @pytest.mark.parametrize("sigma_db, eta", [(1e-300, 2.0), (8.0, 1e300)])
    def test_underflowing_sigma_identity_fallback(self, sigma_db, eta):
        noiseless = ChannelModel(d0=1.0, eta=eta, sigma_db=sigma_db, wavelength=0.3)
        assert np.array_equal(wls_weights(noiseless, np.array([5.0, 9.0, 3.0])), np.eye(2))

    @pytest.mark.parametrize(
        "sigma_db, eta, expected",
        [(0.0, 2.0, True), (1e-300, 2.0, True), (8.0, 1e300, True), (8e-20, 2.0, False)]
        # s^2 past the float range is shadowing, not an OverflowError
        + [(8.0, 1e-300, False), (1e300, 2.0, False)],
    )
    def test_unshadowed_is_a_zero_log_variance(self, sigma_db, eta, expected):
        model = ChannelModel(d0=1.0, eta=eta, sigma_db=sigma_db, wavelength=0.3)
        assert rss.unshadowed(model) is expected

    @pytest.mark.parametrize("sigma_db", [8e-10, 8e-20, 1e-150])
    def test_vanishing_sigma_keeps_its_digits(self, sigma_db):
        # exp(8 s^2) and exp(4 s^2) round alike, and their difference to 0: the variance
        # is d^4 (exp(8 s^2) - exp(4 s^2)), which is 4 s^2 d^4 to within s^2
        model = ChannelModel(d0=1.0, eta=2.0, sigma_db=sigma_db, wavelength=0.3)
        s2 = (sigma_db * math.log(10) / (10 * model.eta)) ** 2
        assert s2 > 0.0 and math.exp(8 * s2) == math.exp(4 * s2)
        d = np.array([5.0, 9.0, 3.0])
        expected = 1.0 / (4.0 * s2 * (d[:-1] ** 4 + d[-1] ** 4))
        assert np.diag(wls_weights(model, d)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "sigma_db, d",
        [
            (100.0, [10.0, 20.0, 30.0]),  # exp(8 s^2) overflows
            (8.0, [1e90, 20.0, 30.0]),  # d^4 overflows: a zero weight
            (8.0, [1e-90, 20.0, 1e-90]),  # d^4 underflows: an infinite weight
        ],
    )
    def test_out_of_range_variance_raises(self, sigma_db, d):
        model = ChannelModel(d0=1.0, eta=2.0, sigma_db=sigma_db, wavelength=0.3)
        with np.errstate(over="ignore", divide="ignore"), pytest.raises(NumericOverflow):
            wls_weights(model, np.array(d))


class TestWlsSolve:
    def test_identity_weights_reduce_to_ls(self):
        system = build_lop_system(ANCHORS, np.array([10.0, 90.0, 95.0, 130.0]))
        assert np.allclose(wls_solve(system, np.eye(3)), ls_solve(system), atol=1e-12)

    def test_noiseless_any_positive_diagonal_weights_exact(self):
        truth = np.array([20.0, 30.0])
        system = noiseless_system(ANCHORS, truth)
        w = np.diag(np.random.default_rng(2).uniform(0.1, 10.0, 3))
        assert np.allclose(wls_solve(system, w), truth, atol=1e-9)

    @pytest.mark.parametrize("solve", [wls_solve, huber_from], ids=["wls", "huber"])
    def test_rejects_off_diagonal_weights(self, solve):
        # symmetric and positive definite, but WLS weights are per row
        m = np.random.default_rng(2).normal(size=(3, 3))
        system = noiseless_system(ANCHORS, np.array([20.0, 30.0]))
        with pytest.raises(ValueError, match="diagonal"):
            solve(system, m @ m.T + 3 * np.eye(3))

    @pytest.mark.parametrize("solve", [wls_solve, huber_from], ids=["wls", "huber"])
    @pytest.mark.parametrize(
        "entry, message",
        [
            (math.nan, "NaN or infinite"),
            (math.inf, "NaN or infinite"),
            (-math.inf, "NaN or infinite"),
            (0.0, "positive diagonal"),
            (-1.0, "positive diagonal"),
        ],
    )
    def test_rejects_bad_weights_by_name(self, solve, entry, message):
        system = noiseless_system(ANCHORS, np.array([20.0, 30.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before any arithmetic warns
            with pytest.raises(ValueError, match=message):
                solve(system, np.diag([entry, 1.0, 1.0]))

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(1e-3, 1e3))
    def test_scaled_identity_invariance(self, c):
        system = noiseless_system(ANCHORS, np.array([15.0, 85.0, 99.0, 128.0]))
        assert np.allclose(
            wls_solve(system, c * np.eye(3)), ls_solve(system), atol=1e-8
        )


def simulate(estimator, truth, trials, sigma_db, seed, outlier=False, eta_env=None):
    """Shared mini Monte-Carlo used for the comparative estimator claims."""
    model = ChannelModel(d0=1.0, eta=2.0, sigma_db=sigma_db, wavelength=0.3)
    env = model if eta_env is None else ChannelModel(
        d0=1.0, eta=eta_env, sigma_db=sigma_db, wavelength=0.3
    )
    # near anchor last: the LOP rows difference against it
    anchors = np.array([[100.0, 0.0], [0.0, 100.0], [100.0, 100.0], [0.0, 0.0]])
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(trials):
        d_hat = np.array(
            [
                invert_distance(path_loss(distance(a, truth), env, rng), model)
                for a in anchors
            ]
        )
        if outlier:
            d_hat[0] *= 3.0
        system = build_lop_system(anchors, d_hat)
        if estimator == "ls":
            est = ls_solve(system)
        elif estimator == "wls":
            est = wls_solve(system, wls_weights(model, d_hat))
        else:
            est = huber_irls(
                system, epsilon=1.345, initial_weights=wls_weights(model, d_hat)
            ).position
        errors.append(distance(est, truth))
    return np.array(errors)


class TestHuberIrls:
    def test_noiseless_converges_immediately(self):
        truth = np.array([3.0, 4.0])
        system = noiseless_system(ANCHORS, truth)
        report = huber_irls(system)
        a, b = system
        assert report.iterations <= 2
        assert np.allclose(report.position, truth, atol=1e-9)
        assert np.linalg.norm(a @ report.position - b) < 1e-9

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.normal(size=(6, 2))
            b = rng.normal(size=6) * 5
            system = LinearSystem(A=a, b=b)
            objectives = []
            pos = ls_solve(system)
            eps = 1e-3
            for _ in range(25):
                resid = a @ pos - b
                objectives.append(np.sum(np.abs(resid)))
                w = np.diag(1.0 / (np.abs(resid) + eps))
                pos = np.linalg.solve(a.T @ w @ a, a.T @ w @ b)
            assert np.all(np.diff(objectives) <= 1e-8)

    @pytest.mark.parametrize("standardized", [False, True])
    def test_bit_identical_to_diagonal_matrix_weights(self, standardized):
        rng = np.random.default_rng(13)
        for _ in range(40):
            anchors = rng.uniform(0.0, 100.0, (int(rng.integers(3, 9)), 2))
            truth = rng.uniform(0.0, 100.0, 2)
            d = np.hypot(*(anchors - truth).T) * np.exp(rng.normal(0.0, 0.4, len(anchors)))
            system = build_lop_system(anchors, d)
            weights = wls_weights(MODEL, d) if standardized else None
            for epsilon in (1e-3, 1.345):
                report = huber_irls(system, epsilon=epsilon, initial_weights=weights)
                w = None if weights is None else np.diag(weights)
                pos, iterations = lop_oracle.huber(*system, epsilon, w)
                assert np.array_equal(report.position, pos)
                assert report.iterations == iterations

    def test_statistically_equal_to_wls_under_gaussian_noise(self):
        import scipy.stats

        truth = np.array([10.0, 15.0])
        wls_err = simulate("wls", truth, 150, 3.0, seed=21)
        hub_err = simulate("huber", truth, 150, 3.0, seed=21)
        # paired two-sided test on the per-trial errors
        stat = scipy.stats.wilcoxon(wls_err, hub_err)
        assert stat.pvalue > 0.01
        assert abs(np.mean(hub_err) / np.mean(wls_err) - 1) < 0.15

    def test_outlier_robustness_beats_ls(self):
        # pure l1 path (no WLS standardization) against a x3 range outlier;
        # enough clean lines of position that the l1 fit can discard the
        # corrupted one (with very few rows even true LAD interpolates it)
        truth = np.array([40.0, 45.0])
        model = ChannelModel(d0=1.0, eta=2.0, sigma_db=1.0, wavelength=0.3)
        anchors = np.array(
            [
                [100.0, 0.0],
                [0.0, 100.0],
                [100.0, 100.0],
                [55.0, 105.0],
                [105.0, 55.0],
                [0.0, 50.0],
                [50.0, 0.0],
                [0.0, 0.0],
            ]
        )
        rng = np.random.default_rng(33)
        ls_errs, hub_errs = [], []
        for _ in range(150):
            d_hat = np.array(
                [
                    invert_distance(path_loss(distance(a, truth), model, rng), model)
                    for a in anchors
                ]
            )
            d_hat[0] *= 3.0
            system = build_lop_system(anchors, d_hat)
            ls_errs.append(distance(ls_solve(system), truth))
            hub_errs.append(distance(huber_irls(system).position, truth))
        assert np.sqrt(np.mean(np.square(hub_errs))) < np.sqrt(
            np.mean(np.square(ls_errs))
        )


class TestComparativePerformance:
    def test_wls_beats_ls_with_heterogeneous_distances(self):
        truth = np.array([10.0, 15.0])
        ls_rmse = np.sqrt(np.mean(simulate("ls", truth, 150, 4.0, seed=8) ** 2))
        wls_rmse = np.sqrt(np.mean(simulate("wls", truth, 150, 4.0, seed=8) ** 2))
        assert wls_rmse < ls_rmse

    def test_all_estimators_exact_on_noiseless_input(self):
        truth = np.array([62.0, 37.0])
        system = noiseless_system(ANCHORS, truth)
        w = wls_weights(MODEL, np.array([distance(a, truth) for a in ANCHORS]))
        assert np.allclose(ls_solve(system), truth, atol=1e-9)
        assert np.allclose(wls_solve(system, w), truth, atol=1e-9)
        assert np.allclose(huber_irls(system).position, truth, atol=1e-9)


def matrix(kind: str, rows: int, rng) -> np.ndarray:
    """An (rows, 2) system matrix: a LOP one, a Gaussian one, or one whose columns are
    parallel to within 1e-9 to 1e-3, which puts cond(A^T A) on both sides of 1e12."""
    if kind == "lop":
        return lop_matrix(rng.uniform(0.0, 100.0, (rows + 1, 2))).A
    a = rng.normal(size=(rows, 2))
    if kind == "near-singular":
        a[:, 1] = rng.uniform(-2.0, 2.0) * a[:, 0] + 10.0 ** rng.uniform(-9, -3) * a[:, 1]
    return a


def oracle_outcome(solve):
    try:
        return solve()
    except SingularSystem as exc:
        return exc


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 6),
    rows=st.integers(2, 6),
    kind=st.sampled_from(["lop", "gaussian", "near-singular"]),
    weighted=st.booleans(),
    epsilon=st.sampled_from([1e-3, 1.345]),
)
def test_stacked_rows_equal_stacks_of_one(seed, trials, rows, kind, weighted, epsilon):
    # row t of a stack is the stack of one for row t, and what the oracle makes of that
    # system alone: the same bytes, failure class and Huber pass count
    rng = np.random.default_rng(seed)
    a = matrix(kind, rows, rng)
    b = rng.normal(0.0, 100.0, (trials, rows))
    weights = 10.0 ** rng.uniform(-3.0, 3.0, (trials, rows)) if weighted else None
    marked = np.full(trials, None, dtype=object)
    marked[rng.random(trials) < 0.2] = NumericOverflow("failed before the solve")
    with np.errstate(all="ignore"):
        pos, failed = solve_stack(a, b, weights, marked)
        h_pos, h_failed, passes = huber_stack(a, b, epsilon, weights, marked)
        for t in range(trials):
            row = slice(t, t + 1)
            w = None if weights is None else weights[row]
            one, one_failed = solve_stack(a, b[row], w, marked[row])
            assert pos[t].tobytes() == one[0].tobytes()
            assert type(failed[t]) is type(one_failed[0])
            one, one_failed, one_passes = huber_stack(a, b[row], epsilon, w, marked[row])
            assert h_pos[t].tobytes() == one[0].tobytes()
            assert type(h_failed[t]) is type(one_failed[0])
            assert passes[t] == one_passes[0]
            if marked[t] is not None:
                continue
            w = None if weights is None else weights[t]
            expected = oracle_outcome(lambda: lop_oracle.normal_solve(a, b[t], w))
            if isinstance(expected, SingularSystem):
                assert isinstance(failed[t], SingularSystem)
            else:
                assert failed[t] is None and pos[t].tobytes() == expected.tobytes()
            expected = oracle_outcome(lambda: lop_oracle.huber(a, b[t], epsilon, w))
            if isinstance(expected, SingularSystem):
                assert isinstance(h_failed[t], SingularSystem)
            else:
                assert h_failed[t] is None and h_pos[t].tobytes() == expected[0].tobytes()
                assert passes[t] == expected[1]


def rotation(angle: float) -> np.ndarray:
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


def with_condition(cond: float, rng, symmetric: bool = True) -> np.ndarray:
    """A 2x2 matrix with singular values s and s / cond, s log-uniform over 1e-100..1e100."""
    scale = 10.0 ** rng.uniform(-100.0, 100.0)
    u = rotation(rng.uniform(0.0, 2.0 * math.pi))
    v = u if symmetric else rotation(rng.uniform(0.0, 2.0 * math.pi))
    return u @ np.diag([scale, scale / cond]) @ v.T


def assert_verdicts_are_the_svds(grams: np.ndarray) -> None:
    """The closed-form verdicts, of the stack and of each matrix alone, are
    ``np.linalg.cond(g) > MAX_CONDITION``, and raise no RuntimeWarning."""
    with np.errstate(all="ignore"):
        expected = np.linalg.cond(grams) > MAX_CONDITION
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_ill_conditioned(grams), expected)
        assert [bool(_ill_conditioned(g)) for g in grams] == expected.tolist()


class TestClosedFormCondition:
    def test_log_uniform_condition_numbers(self):
        rng = np.random.default_rng(5)
        grams = np.array(
            [with_condition(10.0 ** rng.uniform(0.0, 20.0), rng, i % 2 == 0) for i in range(4000)]
        )
        assert_verdicts_are_the_svds(grams)

    def test_either_side_of_the_bound(self):
        rng = np.random.default_rng(6)
        offsets = 10.0 ** rng.uniform(-12.0, -1.0, 2000) * np.repeat([-1.0, 1.0], 1000)
        conds = MAX_CONDITION * (1.0 + offsets)
        # and either side of the margin, where the closed form decides alone
        conds = np.concatenate([conds, MAX_CONDITION * np.array([0.2, 0.25, 0.3, 3.9, 4.0, 4.1, 5.0])])
        grams = np.array([with_condition(c, rng, i % 2 == 0) for i, c in enumerate(conds)])
        assert_verdicts_are_the_svds(grams)

    def test_normal_matrices_of_near_parallel_columns(self):
        # BLAS-formed grams, weighted and not, whose two entries off the diagonal can
        # differ in the last bit
        rng = np.random.default_rng(7)
        grams = []
        for _ in range(2000):
            a = matrix("near-singular", int(rng.integers(2, 12)), rng)
            w = 10.0 ** rng.uniform(-6.0, 6.0, len(a))
            grams += [a.T @ a, np.multiply(a.T, w, order="C") @ a]
        grams = np.array(grams)
        assert np.any(grams[:, 0, 1] != grams[:, 1, 0])
        assert_verdicts_are_the_svds(grams)

    def test_singular_and_non_symmetric(self):
        grams = np.array(
            [
                np.zeros((2, 2)),
                np.ones((2, 2)),
                [[1.0, 2.0], [2.0, 4.0]],
                [[1.0, 1.0], [0.0, 0.0]],
                [[0.0, 1.0], [0.0, 0.0]],
                [[1.0, 1e-13], [0.0, 1e-13]],
                [[3.0, -7.0], [5.0, 2.0]],
                [[1e308, 1e308], [1e308, 1e308]],
                [[1e308, 0.0], [0.0, 1e308]],  # its closed-form sums overflow: NaN, so the SVD
                [[5e-324, 0.0], [0.0, 5e-324]],
                [[5e-324, 0.0], [0.0, 1.0]],
            ]
        )
        assert_verdicts_are_the_svds(grams)

    def test_non_finite_entries(self):
        values = [0.0, 1.0, -2.5, 1e308, math.inf, -math.inf]
        grams = np.array(list(itertools.product(values, repeat=4))).reshape(-1, 2, 2)
        assert_verdicts_are_the_svds(grams[~np.all(np.isfinite(grams), axis=(1, 2))])

    @pytest.mark.parametrize(
        "gram", [[[math.nan, 0.0], [0.0, 1.0]], [[1.0, math.nan], [math.nan, math.inf]]]
    )
    def test_nan_entries_raise_as_the_svd(self, gram):
        # a NaN gram fails the SVD's convergence as np.linalg.cond does
        gram = np.array(gram)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cond(gram)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                _ill_conditioned(gram)
            with pytest.raises(np.linalg.LinAlgError):
                _ill_conditioned(np.array([np.eye(2), gram]))


@pytest.mark.parametrize("rows", [2, 3, 5, 11])
def test_huber_row_stds_are_the_inverse_diagonal(rows):
    # huber_stack standardizes residuals by sqrt(1 / w), the diagonal of inv(diag(w)) bit
    # for bit; the oracle takes the LAPACK inverse
    rng = np.random.default_rng(rows)
    w = 10.0 ** rng.uniform(-12.0, 12.0, (500, rows))
    inverse = np.linalg.inv(w[:, :, None] * np.eye(rows))
    assert np.sqrt(np.diagonal(inverse, axis1=1, axis2=2)).tobytes() == np.sqrt(1.0 / w).tobytes()
    a, b = matrix("gaussian", rows, rng), rng.normal(0.0, 100.0, (20, rows))
    with np.errstate(all="ignore"):
        pos, failed, passes = huber_stack(a, b, 1.345, w[:20])
        for t in range(20):
            expected = oracle_outcome(lambda: lop_oracle.huber(a, b[t], 1.345, w[t]))
            if isinstance(expected, SingularSystem):
                assert isinstance(failed[t], SingularSystem)
            else:
                assert failed[t] is None and pos[t].tobytes() == expected[0].tobytes()
                assert passes[t] == expected[1]
