"""Tests for the carbon-intensity provider API."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid import (
    CarbonIntensityProvider,
    CarbonIntensityTrace,
    StaticProvider,
    SyntheticProvider,
    TraceProvider,
    generate_month,
)
from repro.grid.providers import TrailingHistory
from repro.service import CarbonService, FlakyProvider, SlowProvider

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


#: ``(t0, t1)``: ``t0`` jittered inside its hour, mostly hours 50-53,
#: and ``t1`` up to four hours later, so draws often share a sample range
#: but not their bounds; sometimes anywhere in 20 days (before or past a
#: trace's ends too)
jitter = st.floats(0.0, HOUR, exclude_max=True)
window_bounds = st.tuples(
    st.one_of(st.integers(50, 53), st.integers(0, 20 * 24)),
    jitter, st.integers(0, 3), jitter).map(
    lambda w: (w[0] * HOUR + w[1],
               w[0] * HOUR + w[1] + w[2] * HOUR + w[3] + 1.0))


def keyed_provider(kind, wrap):
    if kind == "trace":
        vals = np.random.default_rng(1).uniform(50, 500, 15 * 24)
        p = TraceProvider(CarbonIntensityTrace(vals, HOUR, 2 * DAY, "XX"))
    else:
        p = SyntheticProvider("DE", seed=4)
    return CarbonService(p) if wrap else p


class TestHistoryRange:
    """``history_range`` keys a ``history`` window without fetching it:
    equal keys promise ``==`` traces."""

    @pytest.mark.parametrize("wrap", [False, True], ids=["bare", "service"])
    @pytest.mark.parametrize("kind", ["trace", "synthetic"])
    @given(st.lists(st.tuples(window_bounds, st.booleans()),
                    min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_equal_keys_mean_equal_windows(self, kind, wrap, windows):
        """Also across a synthetic horizon extension between two calls:
        the regenerated trace keeps every sample it had."""
        p = keyed_provider(kind, wrap)
        seen = []
        for (t0, t1), extend in windows:
            if extend and kind == "synthetic":
                p.intensity_at(t1 + 40 * DAY)
            key, hist = p.history_range(t0, t1), p.history(t0, t1)
            i0, i1 = key
            assert len(hist) == i1 - i0
            for k, h in seen:
                if k == key:
                    assert h == hist
            seen.append((key, hist))

    def test_keys_name_the_window_samples(self):
        p = keyed_provider("trace", wrap=False)
        i0, i1 = p.history_range(2 * DAY + 1.5 * HOUR, 3 * DAY + 0.5 * HOUR)
        assert (i0, i1) == (1, 25)
        h = p.history(2 * DAY + 1.5 * HOUR, 3 * DAY + 0.5 * HOUR)
        assert h.start_time == 2 * DAY + HOUR
        np.testing.assert_array_equal(h.values, p.trace.values[1:25])

    def test_invalid_windows_raise_like_history(self):
        for p in (keyed_provider("trace", False),
                  keyed_provider("synthetic", False)):
            with pytest.raises(ValueError):
                p.history_range(DAY, DAY)
        with pytest.raises(ValueError):
            SyntheticProvider("DE").history_range(-1.0, DAY)

    def test_providers_that_cannot_vouch_report_none(self):
        """The base class, a constant, and the wrappers that fail or stall
        (even around a keyed provider) all mean "fetch to know"."""

        class Bare(CarbonIntensityProvider):
            def intensity_at(self, t):
                return 1.0

            def history(self, t0, t1):
                return CarbonIntensityTrace.constant(1.0, t1 - t0,
                                                     start_time=t0)

        keyed = keyed_provider("trace", wrap=False)
        for p in (Bare(), StaticProvider(20.0), FlakyProvider(keyed),
                  SlowProvider(keyed, latency_s=0.0),
                  CarbonService(FlakyProvider(keyed))):
            assert p.history_range(2 * DAY, 3 * DAY) is None
        assert keyed.history_range(2 * DAY, 3 * DAY) is not None


class Counted(CarbonIntensityProvider):
    """Forwards to ``inner`` and counts its ``history`` requests."""

    def __init__(self, inner):
        self.inner, self.requests = inner, 0

    def intensity_at(self, t):
        return self.inner.intensity_at(t)

    def history_range(self, t0, t1):
        return self.inner.history_range(t0, t1)

    def history(self, t0, t1):
        self.requests += 1
        return self.inner.history(t0, t1)


class Drifting(CarbonIntensityProvider):
    """A provider that revises its samples on :meth:`drift`, so it
    cannot key a window (``history_range`` is None)."""

    def __init__(self):
        self.trace = hourly_trace(seed=5)

    def drift(self):
        self.trace = self.trace.scale(1.25)

    def intensity_at(self, t):
        return self.trace.at(t)

    def history(self, t0, t1):
        return self.trace.window(t0, t1)


def hourly_trace(seed, days=6):
    vals = np.random.default_rng(seed).uniform(50, 500, days * 24)
    return CarbonIntensityTrace(vals, HOUR, 0.0, "XX")


def holder_providers(kind):
    """The providers one sequence of ``at`` calls picks from."""
    if kind == "synthetic":
        return [SyntheticProvider("DE", seed=4)]
    if kind == "trace":
        return [TraceProvider(hourly_trace(seed=1))]
    if kind == "static":
        return [StaticProvider(20.0)]
    if kind == "flaky":
        return [FlakyProvider(SyntheticProvider("DE", seed=4),
                              failure_rate=0.0)]
    if kind == "drifting":
        return [Drifting()]
    # equal keys for every window; the first and third share samples
    return [TraceProvider(hourly_trace(seed=1)),
            TraceProvider(hourly_trace(seed=2)),
            TraceProvider(hourly_trace(seed=1))]


class TestTrailingHistory:
    """One owner of a consumer's trailing window: it asks again only
    when the key moves or is None, and hands back one object exactly
    while the samples are unchanged."""

    @pytest.mark.parametrize("kind", ["synthetic", "trace", "static",
                                      "flaky", "drifting", "swap"])
    @given(st.lists(st.tuples(st.integers(0, 4 * 24 * 5), st.integers(0, 2),
                              st.booleans()), min_size=1, max_size=24),
           st.sampled_from([(6 * HOUR, 2 * HOUR), (DAY, 6 * HOUR),
                            (2.5 * DAY, DAY)]))
    @settings(max_examples=60, deadline=None)
    def test_contract(self, kind, steps, lengths):
        """Nondecreasing ``now`` on a quarter-hour grid, as ticks give;
        each step picks a provider (``swap``) and may revise the
        drifting one's samples before the call."""
        length_s, min_s = lengths
        providers = [Counted(p) for p in holder_providers(kind)]
        keyed = providers[0].history_range(0.0, DAY) is not None
        holder = TrailingHistory(length_s, min_s)
        last = None
        keys = []
        calls = 0
        for quarter, pick, drift in sorted(steps):
            now = quarter * 900.0
            p = providers[pick % len(providers)]
            if drift and isinstance(p.inner, Drifting):
                p.inner.drift()
            before = sum(q.requests for q in providers)
            got = holder.at(p, now)
            if now < min_s:
                assert got is None
                assert sum(q.requests for q in providers) == before
                continue
            t0 = max(0.0, now - length_s)
            fresh = p.inner.history(t0, now)
            assert got == fresh
            if last is not None:
                assert (got is last) == (last == fresh)
            last = got
            calls += 1
            keys.append((id(p), p.history_range(t0, now)))
        requests = sum(q.requests for q in providers)
        if not keyed:
            assert requests == calls
        elif kind == "swap":
            assert requests == sum(k != prev for k, prev
                                   in zip(keys, [None] + keys))
        else:
            assert requests == len(set(keys))

    def test_provider_errors_propagate_and_keep_the_held_trace(self):
        p = Counted(TraceProvider(hourly_trace(seed=1)))
        holder = TrailingHistory(DAY, 2 * HOUR)
        held = holder.at(p, DAY)

        def fails(t0, t1):
            raise ValueError("no data")

        p.history = fails
        with pytest.raises(ValueError):
            holder.at(p, 2 * DAY)
        del p.history
        assert holder.at(p, 23.5 * HOUR) is held  # the same samples
        assert p.requests == 1
