import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnloc.channel import (
    ChannelModel,
    free_space_path_loss,
    invert_distance,
    lognormal_sigma_d,
    measure_rss,
    path_loss,
    sigma_from_snr,
    wavelength_from_frequency,
)
from wsnloc.errors import NonPositiveDistance

LAMBDA_1GHZ = wavelength_from_frequency(1e9)


def model(sigma_db=0.0, eta=2.0, d0=1.0):
    return ChannelModel(d0=d0, eta=eta, sigma_db=sigma_db, wavelength=LAMBDA_1GHZ)


class TestFreeSpacePathLoss:
    def test_one_meter_at_1ghz(self):
        assert free_space_path_loss(1.0, model()) == pytest.approx(32.45, abs=0.01)

    def test_zero_db_distance(self):
        m = model()
        d = m.wavelength / (4 * math.pi)
        assert free_space_path_loss(d, m) == pytest.approx(0.0, abs=1e-12)

    def test_doubling_adds_6db(self):
        m = model()
        delta = free_space_path_loss(20.0, m) - free_space_path_loss(10.0, m)
        assert delta == pytest.approx(6.0206, abs=1e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveDistance):
            free_space_path_loss(0.0, model())


class TestPathLoss:
    def test_noiseless_value(self):
        rng = np.random.default_rng(0)
        pl = path_loss(10.0, model(), rng)
        assert pl == pytest.approx(32.45 + 20.0, abs=0.01)

    def test_reference_distance(self):
        m = model()
        rng = np.random.default_rng(0)
        assert path_loss(m.d0, m, rng) == pytest.approx(
            free_space_path_loss(m.d0, m), abs=1e-12
        )

    def test_shadowing_mean(self):
        m = model(sigma_db=6.0)
        rng = np.random.default_rng(42)
        n = 100_000
        samples = path_loss(np.full(n, 10.0), m, rng)
        expected = free_space_path_loss(1.0, m) + 20.0
        assert np.mean(samples) == pytest.approx(expected, abs=3 * 6.0 / math.sqrt(n))

    def test_monotone_in_distance(self):
        m = model()
        d = np.linspace(1.0, 100.0, 50)
        pl = path_loss(d, m, np.random.default_rng(0))
        assert np.all(np.diff(pl) > 0)


class TestInvertDistance:
    def test_inverts_noiseless_10m(self):
        m = model()
        assert invert_distance(52.45, m) == pytest.approx(10.0, abs=0.01)

    def test_reference_loss_gives_d0(self):
        m = model(d0=2.0)
        assert invert_distance(free_space_path_loss(2.0, m), m) == pytest.approx(2.0)

    @settings(max_examples=50, deadline=None)
    @given(d=st.floats(1.0, 1e4))
    def test_round_trip_identity(self, d):
        m = model()
        rng = np.random.default_rng(0)
        assert invert_distance(path_loss(d, m, rng), m) == pytest.approx(
            d, rel=1e-9
        )

    def test_lognormal_ratio_std(self):
        # ln(d_est/d) should be Normal with std sigma_db*ln10/(10 eta)
        m = model(sigma_db=4.0)
        rng = np.random.default_rng(3)
        n = 100_000
        d_est = invert_distance(path_loss(np.full(n, 25.0), m, rng), m)
        log_ratio = np.log(d_est / 25.0)
        expected = lognormal_sigma_d(m)
        assert np.std(log_ratio) == pytest.approx(expected, rel=0.02)
        assert np.mean(log_ratio) == pytest.approx(0.0, abs=4 * expected / math.sqrt(n))

    def test_squared_distance_variance_matches_lognormal_formula(self):
        m = model(sigma_db=3.0)
        rng = np.random.default_rng(11)
        n = 1_000_000
        d_true = 7.0
        d_est = invert_distance(path_loss(np.full(n, d_true), m, rng), m)
        s = lognormal_sigma_d(m)
        mu = math.log(d_true)
        expected = math.exp(4 * mu) * (math.exp(8 * s**2) - math.exp(4 * s**2))
        assert np.var(d_est**2) == pytest.approx(expected, rel=0.05)


class TestArrayMatchesScalar:
    """Ranging a vector of points must give exactly the values of ranging them
    one at a time: the harness ranges every anchor in one call."""

    def test_invert_distance_array_equals_scalar_calls(self):
        m = ChannelModel(1.0, 2.0, 8.0, 0.3)
        # numpy's vectorised power differs from the scalar one by an ulp here
        pinned = 73.22521507449241
        losses = np.concatenate([[pinned], np.random.default_rng(2).uniform(20.0, 140.0, 2000)])
        scalar = np.array([invert_distance(float(pl), m) for pl in losses])
        assert np.array_equal(invert_distance(losses, m), scalar)
        assert invert_distance(losses[:1], m)[0] == invert_distance(pinned, m)

    def test_path_loss_vector_equals_scalar_calls(self):
        m = model(sigma_db=6.0)
        d = np.random.default_rng(4).uniform(1.0, 200.0, 9)
        vector = path_loss(d, m, np.random.default_rng(17))
        rng = np.random.default_rng(17)
        scalar = np.array([path_loss(float(x), m, rng) for x in d])
        assert np.array_equal(vector, scalar)


class TestScenarioHelpers:
    def test_sigma_from_snr_reference(self):
        assert sigma_from_snr(0.0) == pytest.approx(8.0)
        assert sigma_from_snr(20.0) == pytest.approx(0.8)
        assert sigma_from_snr(6.0, sigma_ref_db=4.0) == pytest.approx(
            4.0 * 10 ** (-0.3)
        )

    def test_measure_rss_noiseless(self):
        m = model()
        meas = measure_rss(12.0, m, np.random.default_rng(0))
        assert meas.est_distance == pytest.approx(12.0, rel=1e-9)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(d0=0.0, eta=2.0, sigma_db=1.0, wavelength=0.3)
        with pytest.raises(ValueError):
            ChannelModel(d0=1.0, eta=2.0, sigma_db=-1.0, wavelength=0.3)
        for d0, wavelength in [(math.inf, 0.3), (1.0, math.inf), (1.0, math.nan)]:
            with pytest.raises(ValueError, match="must be finite"):
                ChannelModel(d0=d0, eta=2.0, sigma_db=1.0, wavelength=wavelength)
