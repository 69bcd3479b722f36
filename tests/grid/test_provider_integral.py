"""``provider.integrate_intensity(t0, t1)`` against integrating the
provider's own ``history(t0, t1)`` window, the path accrual used before
providers integrated on the trace they hold.

Inside one sample bin both are one product and must be the same bits.
Across bins the full trace and the window sum different prefixes, which
can differ in the last bit or so, hence ``rel=1e-12``.  Invalid windows
must raise the same ``ValueError`` as ``history``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid import StaticProvider, SyntheticProvider, TraceProvider
from repro.grid.intensity import CarbonIntensityTrace
from repro.service import CarbonService

HOUR = 3600.0
DAY = 86400.0

#: times on a quarter-second grid, so bin membership is exact
quarters = st.integers(0, 4 * 10 ** 7).map(lambda q: q / 4.0)


def one_bin(start, step, t0, t1):
    return (math.floor((t0 - start) / step)
            == math.floor((t1 - start) / step))


def assert_matches_history(provider, t0, t1, start, step):
    """The differential check, on the provider and on a service over it."""
    for p in (provider, CarbonService(provider)):
        got = p.integrate_intensity(t0, t1)
        ref = p.history(t0, t1).integrate_intensity(t0, t1)
        if one_bin(start, step, t0, t1):
            assert got == ref
        else:
            assert got == pytest.approx(ref, rel=1e-12)


def error_of(fn):
    with pytest.raises(ValueError) as exc:
        fn()
    return str(exc.value)


def assert_same_error(provider, t0, t1):
    for p in (provider, CarbonService(provider)):
        assert error_of(lambda: p.integrate_intensity(t0, t1)) == \
            error_of(lambda: p.history(t0, t1))


class TestSyntheticProvider:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_history_across_the_horizon(self, data):
        """A provider warmed to a random horizon integrates first (so the
        integral extends the horizon when ``t1`` lies past it), then is
        checked against its own history window."""
        step = data.draw(st.sampled_from([600.0, HOUR]))
        provider = SyntheticProvider("DE", seed=data.draw(st.integers(0, 3)),
                                     step_seconds=step)
        provider.intensity_at(data.draw(st.floats(0.0, 70 * DAY)))
        covered = provider._covered_s
        shape = data.draw(st.sampled_from(["inside", "cross", "one-bin"]))
        if shape == "cross":
            t0 = covered - data.draw(st.integers(0, 4 * int(2 * DAY))) / 4.0
            t1 = covered + data.draw(st.integers(1, 4 * int(40 * DAY))) / 4.0
        elif shape == "one-bin":
            k = data.draw(st.integers(0, int(90 * DAY / step)))
            lo_q = data.draw(st.integers(0, int(4 * step) - 1))
            hi_q = data.draw(st.integers(lo_q + 1, int(4 * step)))
            t0, t1 = k * step + lo_q / 4.0, k * step + hi_q / 4.0
        else:
            t0 = data.draw(st.integers(0, int(4 * covered) - 1)) / 4.0
            t1 = min(covered, t0 + data.draw(st.integers(1, 4 * int(DAY)))
                     / 4.0)
        integral = provider.integrate_intensity(t0, t1)
        assert provider._covered_s >= t1
        assert_matches_history(provider, t0, t1, 0.0, step)
        # the extended horizon holds the values a fresh provider serves
        fresh = SyntheticProvider("DE", seed=provider.model.seed,
                                  step_seconds=step)
        assert fresh.history(t0, t1) == provider.history(t0, t1)
        assert fresh.integrate_intensity(t0, t1) == integral

    @pytest.mark.parametrize("t0,t1", [(-5.0, DAY), (DAY, DAY),
                                       (DAY, HOUR), (-2.0, -1.0)])
    def test_invalid_windows_raise_like_history(self, t0, t1):
        assert_same_error(SyntheticProvider("DE", seed=0), t0, t1)


@st.composite
def trace_and_bounds(draw):
    """A trace with a non-zero start and bounds before, inside, across
    or after it."""
    vals = draw(st.lists(st.floats(0, 2000), min_size=1, max_size=60))
    step = draw(st.sampled_from([60.0, 900.0, HOUR]))
    start = draw(st.integers(-4 * 10 ** 6, 4 * 10 ** 6)) / 4.0
    trace = CarbonIntensityTrace(np.asarray(vals), step, start)
    end = trace.end_time
    t0 = draw(st.integers(int(4 * (start - 3 * step)),
                          int(4 * (end + 3 * step)))) / 4.0
    t1 = t0 + draw(st.one_of(st.integers(1, int(4 * step)),
                             st.integers(1, int(4 * (end - start + 6 * step)))
                             )) / 4.0
    return trace, t0, t1


class TestTraceProvider:
    @given(trace_and_bounds())
    @settings(max_examples=300, deadline=None)
    def test_matches_history(self, case):
        trace, t0, t1 = case
        assert_matches_history(TraceProvider(trace), t0, t1,
                               trace.start_time, trace.step_seconds)

    @pytest.mark.parametrize("t0,t1", [(DAY, DAY), (DAY, HOUR)])
    def test_invalid_windows_raise_like_history(self, t0, t1):
        trace = CarbonIntensityTrace(np.array([100.0, 200.0]), HOUR)
        assert_same_error(TraceProvider(trace), t0, t1)


class TestStaticProvider:
    @given(st.floats(0.0, 2000.0), quarters, st.integers(1, 4 * int(DAY)))
    @settings(max_examples=100, deadline=None)
    def test_matches_history(self, intensity, t0, dt_q):
        t1 = t0 + dt_q / 4.0
        assert_matches_history(StaticProvider(intensity), t0, t1, t0, HOUR)

    @pytest.mark.parametrize("t0,t1", [(DAY, DAY), (DAY, HOUR)])
    def test_invalid_windows_raise_like_history(self, t0, t1):
        assert_same_error(StaticProvider(20.0), t0, t1)
