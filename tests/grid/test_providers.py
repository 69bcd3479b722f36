"""Tests for the carbon-intensity provider API."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid import (
    CarbonIntensityTrace,
    StaticProvider,
    SyntheticProvider,
    TraceProvider,
    generate_month,
)

HOUR = 3600.0
DAY = 86400.0


class TestStaticProvider:
    def test_lrz_hydro(self):
        p = StaticProvider(20.0, zone_code="LRZ")
        assert p.intensity_at(0.0) == 20.0
        assert p.intensity_at(1e9) == 20.0
        assert p.average_intensity_at(5.0) == 20.0

    def test_history_flat(self):
        p = StaticProvider(20.0)
        h = p.history(0, DAY)
        assert h.mean() == 20.0
        assert h.duration >= DAY

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            StaticProvider(-1.0)

    def test_rejects_empty_history(self):
        with pytest.raises(ValueError):
            StaticProvider(20.0).history(10.0, 10.0)

    def test_mean_over(self):
        assert StaticProvider(50.0).mean_over(0, HOUR) == pytest.approx(50.0)


class TestTraceProvider:
    def test_serves_trace(self):
        t = CarbonIntensityTrace(np.array([100.0, 200.0]), HOUR)
        p = TraceProvider(t)
        assert p.intensity_at(0) == 100.0
        assert p.intensity_at(HOUR) == 200.0

    def test_separate_average_trace(self):
        marg = CarbonIntensityTrace(np.array([100.0]), HOUR)
        avg = CarbonIntensityTrace(np.array([80.0]), HOUR)
        p = TraceProvider(marg, average_trace=avg)
        assert p.intensity_at(0) == 100.0
        assert p.average_intensity_at(0) == 80.0

    def test_zone_from_trace(self):
        t = CarbonIntensityTrace(np.array([1.0]), HOUR, zone="FI")
        assert TraceProvider(t).zone_code == "FI"


class TestSyntheticProvider:
    def test_first_month_matches_generate_month(self):
        p = SyntheticProvider("DE", seed=3)
        h = p.history(0, 31 * DAY)
        ref = generate_month("DE", seed=3)
        np.testing.assert_allclose(h.values, ref.values)

    def test_lazy_extension_consistent(self):
        """Asking for a late window first must not change early values."""
        p1 = SyntheticProvider("FR", seed=9)
        late_first = p1.intensity_at(60 * DAY)
        early_after = p1.intensity_at(5 * DAY)

        p2 = SyntheticProvider("FR", seed=9)
        early_first = p2.intensity_at(5 * DAY)
        late_after = p2.intensity_at(60 * DAY)

        assert early_first == early_after
        assert late_first == late_after

    def test_no_monthly_repetition(self):
        p = SyntheticProvider("DE", seed=3)
        m1 = p.history(0, 31 * DAY)
        m2 = p.history(31 * DAY, 62 * DAY)
        assert not np.allclose(m1.values, m2.values)

    def test_average_damped_toward_mean(self):
        p = SyntheticProvider("DE", seed=3, average_damping=0.5)
        mean = p.model.zone.mean_intensity_g_per_kwh
        t = 40 * HOUR
        marg = p.intensity_at(t)
        avg = p.average_intensity_at(t)
        assert abs(avg - mean) == pytest.approx(0.5 * abs(marg - mean))
        # average lies between mean and marginal
        assert min(mean, marg) - 1e-9 <= avg <= max(mean, marg) + 1e-9

    def test_rejects_negative_time(self):
        p = SyntheticProvider("DE")
        with pytest.raises(ValueError):
            p.intensity_at(-1.0)
        with pytest.raises(ValueError):
            p.history(-5.0, DAY)

    def test_rejects_bad_damping(self):
        with pytest.raises(ValueError):
            SyntheticProvider("DE", average_damping=1.5)

    def test_history_window_bounds(self):
        p = SyntheticProvider("SE", seed=0)
        h = p.history(2 * DAY, 3 * DAY)
        assert h.start_time <= 2 * DAY
        assert h.end_time >= 3 * DAY

    @given(st.lists(st.integers(0, 4 * 100 * int(DAY)).map(lambda q: q / 4),
                    min_size=1, max_size=8), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_horizon_fast_path(self, times, seed):
        """Any query order serves the same values; the horizon grows
        exactly as the day arithmetic says (the whole CHUNK_DAYS months
        covering one day past the query) and the same trace object comes
        back while a query lies inside it.  Each query is followed by
        probes on both sides of the last time the horizon covers."""
        p = SyntheticProvider("DE", seed=seed)
        chunk = SyntheticProvider.CHUNK_DAYS
        state = {"days": 0, "trace": None}

        def query(t):
            need_days = math.ceil(max(t, 1.0) / DAY) + 1
            grows = state["days"] < need_days
            if grows:
                state["days"] = math.ceil(max(need_days, chunk) / chunk) \
                    * chunk
            got = p._ensure_horizon(t)
            assert round(got.duration / DAY) == state["days"]
            assert (got is not state["trace"]) == grows
            state["trace"] = got

        for t in times:
            query(t)
            edge = (state["days"] - 1) * DAY
            query(edge)
            query(edge + 0.25)
        fresh = SyntheticProvider("DE", seed=seed)
        for t in sorted(times, reverse=True):
            assert p.intensity_at(t) == fresh.intensity_at(t)

    def test_deterministic_across_instances(self):
        a = SyntheticProvider("IT", seed=4).intensity_at(10 * DAY)
        b = SyntheticProvider("IT", seed=4).intensity_at(10 * DAY)
        assert a == b
