import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnloc.channel import ChannelModel, invert_distance, path_loss
from wsnloc.errors import NumericOverflow, SingularSystem
from wsnloc.geometry import LinearSystem, build_lop_system, distance
from wsnloc.rss import huber_irls, ls_solve, wls_solve, wls_weights

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

    def test_noiseless_any_spd_weights_exact(self):
        truth = np.array([20.0, 30.0])
        system = noiseless_system(ANCHORS, truth)
        rng = np.random.default_rng(2)
        m = rng.normal(size=(3, 3))
        w = m @ m.T + 3 * np.eye(3)
        assert np.allclose(wls_solve(system, w), truth, atol=1e-9)

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
        report = huber_irls(noiseless_system(ANCHORS, truth))
        assert report.iterations <= 2
        assert np.allclose(report.position, truth, atol=1e-9)
        assert report.final_residual_norm < 1e-9

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
        def reference(system, epsilon, initial_weights):
            a, b = system
            if initial_weights is None:
                pos, row_std = ls_solve(system), np.ones(a.shape[0])
            else:
                pos = wls_solve(system, initial_weights)
                row_std = np.sqrt(np.diag(np.linalg.inv(initial_weights)))
            for iterations in range(1, 51):
                resid = (a @ pos - b) / row_std
                w = np.diag(1.0 / (np.abs(resid) + epsilon) / row_std**2)
                new_pos = np.linalg.solve(a.T @ w @ a, a.T @ w @ b)
                step, pos = float(np.linalg.norm(new_pos - pos)), new_pos
                if step < 1e-6:
                    break
            return pos, iterations

        rng = np.random.default_rng(13)
        for _ in range(40):
            anchors = rng.uniform(0.0, 100.0, (int(rng.integers(3, 9)), 2))
            truth = rng.uniform(0.0, 100.0, 2)
            d = np.hypot(*(anchors - truth).T) * np.exp(rng.normal(0.0, 0.4, len(anchors)))
            system = build_lop_system(anchors, d)
            weights = wls_weights(MODEL, d) if standardized else None
            for epsilon in (1e-3, 1.345):
                report = huber_irls(system, epsilon=epsilon, initial_weights=weights)
                pos, iterations = reference(system, epsilon, weights)
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
