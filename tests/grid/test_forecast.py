"""Tests for the carbon-intensity forecasters."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid import (
    ARForecaster,
    CarbonIntensityTrace,
    EnsembleForecaster,
    ExponentialSmoothingForecaster,
    OracleForecaster,
    PersistenceForecaster,
    SeasonalNaiveForecaster,
    SyntheticProvider,
    TraceProvider,
    forecast_skill,
)

HOUR = 3600.0
DAY = 86400.0


def sine_history(n_days=7, amplitude=100.0, mean=300.0):
    h = np.arange(n_days * 24)
    vals = mean + amplitude * np.sin(2 * np.pi * h / 24.0)
    return CarbonIntensityTrace(vals, HOUR)


class TestForecasterContract:
    @pytest.mark.parametrize("cls", [PersistenceForecaster,
                                     SeasonalNaiveForecaster,
                                     ExponentialSmoothingForecaster,
                                     ARForecaster])
    def test_predict_requires_fit(self, cls):
        with pytest.raises(RuntimeError, match="fit"):
            cls().predict(4)

    @pytest.mark.parametrize("cls", [PersistenceForecaster,
                                     SeasonalNaiveForecaster,
                                     ExponentialSmoothingForecaster,
                                     ARForecaster])
    def test_forecast_starts_at_history_end(self, cls):
        hist = sine_history()
        f = cls().fit(hist).predict(12)
        assert f.start_time == hist.end_time
        assert len(f) == 12
        assert f.step_seconds == hist.step_seconds

    @pytest.mark.parametrize("cls", [PersistenceForecaster,
                                     SeasonalNaiveForecaster,
                                     ExponentialSmoothingForecaster,
                                     ARForecaster])
    def test_forecast_nonnegative(self, cls):
        vals = np.concatenate([np.full(24, 5.0), np.full(24, 0.5)])
        hist = CarbonIntensityTrace(vals, HOUR)
        f = cls().fit(hist).predict(48)
        assert f.min() >= 0.0

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            PersistenceForecaster().fit(sine_history()).predict(0)


class TestPrefixConsistency:
    """``predict(n).values[:m] == predict(m).values`` exactly, for every
    forecaster: the carbon-backfill gate fits once per scheduling pass
    and lets every job read its own horizon off one longer forecast."""

    FORECASTERS = {
        "persistence": PersistenceForecaster,
        "seasonal-naive": SeasonalNaiveForecaster,
        "exp-smoothing": ExponentialSmoothingForecaster,
        "ar": ARForecaster,
        "ensemble": EnsembleForecaster,
    }

    @pytest.mark.parametrize("name", sorted(FORECASTERS))
    @given(vals=st.lists(st.floats(0, 1500), min_size=1, max_size=200),
           n=st.integers(1, 120), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_prefix_consistent(self, name, vals, n, data):
        m = data.draw(st.integers(1, n))
        fc = self.FORECASTERS[name]().fit(
            CarbonIntensityTrace(np.array(vals), HOUR, 3 * HOUR))
        long, short = fc.predict(n), fc.predict(m)
        np.testing.assert_array_equal(long.values[:m], short.values)
        assert short.start_time == long.start_time

    def test_oracle_prefix_consistent(self):
        p = SyntheticProvider("DE", seed=5)
        fc = OracleForecaster(p).fit(p.history(0, 7 * DAY))
        long = fc.predict(96)
        for m in (1, 13, 48, 96):
            np.testing.assert_array_equal(long.values[:m],
                                          fc.predict(m).values)

    def test_oracle_short_window_padded_with_last_value(self):
        # the provider's trace ends 5 h after the history; longer horizons
        # repeat its last sample, so every prefix still agrees
        trace = CarbonIntensityTrace(np.arange(1.0, 30.0), HOUR)
        fc = OracleForecaster(TraceProvider(trace)).fit(trace.window(0, DAY))
        long = fc.predict(12)
        np.testing.assert_array_equal(
            long.values, [25.0, 26.0, 27.0, 28.0, 29.0] + [29.0] * 7)
        for m in range(1, 13):
            np.testing.assert_array_equal(long.values[:m],
                                          fc.predict(m).values)


class TestPersistence:
    def test_repeats_last_value(self):
        hist = CarbonIntensityTrace(np.array([10.0, 20.0, 30.0]), HOUR)
        f = PersistenceForecaster().fit(hist).predict(5)
        np.testing.assert_allclose(f.values, 30.0)


class TestSeasonalNaive:
    def test_perfect_on_pure_diurnal(self):
        hist = sine_history(n_days=3)
        f = SeasonalNaiveForecaster().fit(hist).predict(24)
        expected = hist.values[-24:]
        np.testing.assert_allclose(f.values, expected)

    def test_short_history_tiles(self):
        hist = CarbonIntensityTrace(np.array([1.0, 2.0]), HOUR)
        f = SeasonalNaiveForecaster().fit(hist).predict(5)
        np.testing.assert_allclose(f.values, [1, 2, 1, 2, 1])

    @pytest.mark.parametrize("n_hist", [5, 24, 60])  # short, one, more
    @pytest.mark.parametrize("n", [1, 7, 23, 24, 25, 48, 61])
    def test_indexed_forecast_equals_tiling(self, n_hist, n):
        """Indexing the last period equals tiling it and cutting at
        ``n``, below, at and above the 24 h period, also on a history
        shorter than one period."""
        vals = np.random.default_rng(n_hist * 100 + n).uniform(50, 500, n_hist)
        fc = SeasonalNaiveForecaster().fit(CarbonIntensityTrace(vals, HOUR))
        last = vals[-min(24, n_hist):]
        tiled = np.tile(last, int(np.ceil(n / last.size)))[:n]
        got = fc._forecast_values(n)
        assert got.shape == (n,)
        np.testing.assert_array_equal(got, tiled)


class TestExponentialSmoothing:
    def test_tracks_level_shift(self):
        vals = np.concatenate([np.full(48, 100.0), np.full(48, 300.0)])
        hist = CarbonIntensityTrace(vals, HOUR)
        f = ExponentialSmoothingForecaster(alpha=0.5).fit(hist).predict(4)
        assert f.mean() > 250.0  # has adapted toward the new level

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExponentialSmoothingForecaster(alpha=0.0)
        with pytest.raises(ValueError):
            ExponentialSmoothingForecaster(gamma=1.5)


class TestAR:
    def test_beats_persistence_on_diurnal_signal(self):
        p = SyntheticProvider("ES", seed=21)
        hist = p.history(0, 14 * DAY)
        actual = p.history(14 * DAY, 16 * DAY)
        ar = ARForecaster(order=4).fit(hist).predict(48)
        pers = PersistenceForecaster().fit(hist).predict(48)
        assert forecast_skill(ar, actual)["rmse"] < \
            forecast_skill(pers, actual)["rmse"]

    def test_stable_on_short_history(self):
        hist = CarbonIntensityTrace(np.array([100.0, 110.0, 90.0]), HOUR)
        f = ARForecaster(order=5).fit(hist).predict(100)
        assert np.all(np.isfinite(f.values))
        assert f.max() < 1e4  # no explosion

    def test_order_validation(self):
        with pytest.raises(ValueError):
            ARForecaster(order=0)


class TestOracle:
    def test_oracle_is_exact(self):
        p = SyntheticProvider("DE", seed=5)
        hist = p.history(0, 7 * DAY)
        f = OracleForecaster(p).fit(hist).predict(48)
        actual = p.history(7 * DAY, 9 * DAY)
        skill = forecast_skill(f, actual)
        assert skill["mae"] == pytest.approx(0.0, abs=1e-9)


class TestForecastSkill:
    def test_metrics(self):
        a = CarbonIntensityTrace(np.array([100.0, 200.0]), HOUR)
        f = CarbonIntensityTrace(np.array([110.0, 190.0]), HOUR,
                                 start_time=0.0)
        s = forecast_skill(f, a)
        assert s["mae"] == pytest.approx(10.0)
        assert s["rmse"] == pytest.approx(10.0)
        assert s["n"] == 2

    def test_empty_traces_unconstructible(self):
        # the no-overlap guard in forecast_skill is unreachable through
        # the public API because empty traces cannot be built at all
        with pytest.raises(ValueError):
            CarbonIntensityTrace(np.array([]), HOUR)
