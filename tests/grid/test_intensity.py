"""Tests for the CarbonIntensityTrace container."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.grid import CarbonIntensityTrace

HOUR = 3600.0
DAY = 86400.0


def make(values, step=HOUR, start=0.0):
    return CarbonIntensityTrace(np.asarray(values, dtype=float), step, start)


class TestConstruction:
    def test_basic(self):
        t = make([100, 200, 300])
        assert len(t) == 3
        assert t.duration == 3 * HOUR
        assert t.end_time == 3 * HOUR

    def test_values_are_readonly(self):
        t = make([1, 2, 3])
        with pytest.raises(ValueError):
            t.values[0] = 99.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            make([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            make([100, -1])

    def test_rejects_nan_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            make([100, float("nan")])
        with pytest.raises(ValueError, match="non-finite"):
            make([100, float("inf")])

    def test_non_finite_is_reported_before_negative(self):
        """``-inf`` is both, and ``nan`` beside a negative sample: the
        finiteness check runs first, so both read "non-finite"."""
        with pytest.raises(ValueError, match="non-finite"):
            make([100, float("-inf")])
        with pytest.raises(ValueError, match="non-finite"):
            make([float("nan"), -1.0])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            CarbonIntensityTrace(np.zeros((2, 2)), HOUR)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step_seconds"):
            make([1.0], step=0.0)

    def test_constant_constructor(self):
        t = CarbonIntensityTrace.constant(20.0, DAY)  # LRZ hydro
        assert len(t) == 24
        assert t.mean() == 20.0
        assert t.std() == 0.0

    def test_from_hourly(self):
        t = CarbonIntensityTrace.from_hourly([10, 20], zone="XX")
        assert t.step_seconds == HOUR
        assert t.zone == "XX"


class TestLookup:
    def test_at_zero_order_hold(self):
        t = make([100, 200, 300])
        assert t.at(0.0) == 100.0
        assert t.at(HOUR - 1) == 100.0
        assert t.at(HOUR) == 200.0
        assert t.at(2.5 * HOUR) == 300.0

    def test_at_clamps_outside(self):
        t = make([100, 200])
        assert t.at(-5.0) == 100.0
        assert t.at(100 * HOUR) == 200.0

    def test_at_vectorized(self):
        t = make([100, 200])
        out = t.at(np.array([0.0, HOUR]))
        np.testing.assert_allclose(out, [100.0, 200.0])

    def test_window(self):
        t = make([1, 2, 3, 4])
        w = t.window(HOUR, 3 * HOUR)
        assert list(w.values) == [2.0, 3.0]
        assert w.start_time == HOUR

    def test_window_partial_bins_expand(self):
        t = make([1, 2, 3, 4])
        w = t.window(0.5 * HOUR, 1.5 * HOUR)
        # must cover [0.5h, 1.5h): samples 0 and 1
        assert list(w.values) == [1.0, 2.0]

    def test_window_rejects_empty(self):
        t = make([1, 2])
        with pytest.raises(ValueError):
            t.window(HOUR, HOUR)


class TestIntegration:
    def test_mean_over_whole(self):
        t = make([100, 300])
        assert t.mean_over(0, 2 * HOUR) == pytest.approx(200.0)

    def test_mean_over_partial_bins(self):
        t = make([100, 300])
        # half of first hour + half of second = (100+300)/2
        assert t.mean_over(0.5 * HOUR, 1.5 * HOUR) == pytest.approx(200.0)

    def test_integrate_intensity_exact(self):
        t = make([100, 200])
        # 30 min at 100 = 100 * 1800
        assert t.integrate_intensity(0, 1800) == pytest.approx(100 * 1800)

    def test_integrate_outside_clamps(self):
        t = make([100])
        # after trace end: clamp to last sample (provider semantics)
        assert t.integrate_intensity(HOUR, 2 * HOUR) == pytest.approx(100 * HOUR)

    def test_carbon_for_power(self):
        t = make([500])
        # 2 kW for 1 h at 500 g/kWh = 1000 g
        assert t.carbon_for_power(2000.0, 0, HOUR) == pytest.approx(1000.0)

    @given(st.lists(st.floats(0, 1000), min_size=1, max_size=48),
           st.floats(0.1, 48.0), st.floats(0.1, 48.0))
    @settings(max_examples=50)
    def test_integral_additivity(self, vals, a_h, b_h):
        t = make(vals)
        mid = min(a_h, b_h) * HOUR
        end = max(a_h, b_h) * HOUR + 1.0
        whole = t.integrate_intensity(0, end)
        parts = t.integrate_intensity(0, mid) + t.integrate_intensity(mid, end)
        assert whole == pytest.approx(parts, rel=1e-9, abs=1e-6)


def per_bin_integral(trace, t0, t1):
    """The per-bin overlap sum the cumulative integral replaced: the
    differential reference for :meth:`integrate_intensity`."""
    if t1 <= t0:
        return 0.0
    step = trace.step_seconds
    i0 = int(np.floor((t0 - trace.start_time) / step))
    i1 = int(np.ceil((t1 - trace.start_time) / step))
    idx = np.arange(i0, i1)
    starts = trace.start_time + idx * step
    overlaps = np.minimum(starts + step, t1) - np.maximum(starts, t0)
    overlaps = np.clip(overlaps, 0.0, None)
    vals = trace.values[np.clip(idx, 0, len(trace) - 1)]
    return float(np.dot(vals, overlaps))


#: times on a quarter-second grid, so ``t - start`` and every bin edge are
#: exact and the two formulas differ only in how they sum
quarter_s = st.integers(-4 * 10 ** 6, 4 * 10 ** 6).map(lambda q: q / 4.0)


@st.composite
def trace_and_bounds(draw):
    """A trace with a non-zero start plus a bound pair of one shape:
    before the start, after the end, inside one bin, on bin edges, or
    anywhere around the trace."""
    vals = draw(st.lists(st.floats(0, 2000), min_size=1, max_size=60))
    step = draw(st.sampled_from([1.0, 60.0, 900.0, 3600.0, 86400.0]))
    start = draw(quarter_s.filter(lambda s: s != 0.0))
    trace = make(vals, step=step, start=start)
    end = trace.end_time
    shape = draw(st.sampled_from(
        ["before", "after", "one-bin", "edges", "anywhere"]))
    if shape == "before":
        t0 = start - draw(st.integers(1, 4 * 10 ** 6)) / 4.0
        t1 = draw(st.sampled_from([start, t0 + 0.25, end + step / 2]))
    elif shape == "after":
        t0 = draw(st.sampled_from([end, end - step / 2, end + 0.25]))
        t1 = t0 + draw(st.integers(1, 4 * 10 ** 6)) / 4.0
    elif shape == "one-bin":
        k = draw(st.integers(0, len(vals) - 1))
        lo_q = draw(st.integers(0, int(step * 4) - 1))
        hi_q = draw(st.integers(lo_q + 1, int(step * 4)))
        t0 = start + k * step + lo_q / 4.0
        t1 = start + k * step + hi_q / 4.0
    elif shape == "edges":
        k0 = draw(st.integers(-3, len(vals) + 3))
        k1 = draw(st.integers(k0, len(vals) + 4))
        t0, t1 = start + k0 * step, start + k1 * step
    else:
        span = int((end - start + 2 * step) * 4)
        t0 = start - step + draw(st.integers(0, span)) / 4.0
        t1 = start - step + draw(st.integers(0, span)) / 4.0
    return trace, t0, t1


class TestCumulativeIntegral:
    """The O(1) prefix-sum integral against the per-bin formula."""

    @given(trace_and_bounds())
    @settings(max_examples=400, deadline=None)
    def test_matches_per_bin_formula(self, case):
        trace, t0, t1 = case
        assert trace.integrate_intensity(t0, t1) == pytest.approx(
            per_bin_integral(trace, t0, t1), rel=1e-12)

    @given(st.lists(trace_and_bounds(), min_size=1, max_size=12),
           trace_and_bounds())
    @settings(max_examples=100, deadline=None)
    def test_array_bounds_match_scalar_loop(self, cases, traced):
        trace = traced[0]
        t0 = np.array([c[1] for c in cases])
        t1 = np.array([c[2] for c in cases])
        got = trace.integrate_intensity(t0, t1)
        loop = [trace.integrate_intensity(a, b) for a, b in zip(t0, t1)]
        assert got.shape == t0.shape
        np.testing.assert_array_equal(got, loop)  # same arithmetic
        for g, a, b in zip(got, t0, t1):
            assert g == pytest.approx(per_bin_integral(trace, a, b),
                                      rel=1e-12)

    def test_before_start_holds_first_sample(self):
        t = make([100, 200], start=5 * HOUR)
        assert t.integrate_intensity(3 * HOUR, 4 * HOUR) == 100 * HOUR
        # straddling the start: one hour held before, half an hour inside
        assert t.integrate_intensity(4 * HOUR, 5.5 * HOUR) == pytest.approx(
            100 * HOUR + 100 * HOUR / 2)

    def test_empty_and_reversed_intervals_are_zero(self):
        t = make([100, 200])
        assert t.integrate_intensity(HOUR, HOUR) == 0.0
        assert t.integrate_intensity(2 * HOUR, HOUR) == 0.0
        np.testing.assert_array_equal(
            t.integrate_intensity(np.array([HOUR, 2 * HOUR]),
                                  np.array([HOUR, HOUR])), [0.0, 0.0])

    def test_mean_over_arrays(self):
        t = make([100, 300, 200])
        starts = np.array([0.0, HOUR, 0.5 * HOUR])
        means = t.mean_over(starts, starts + HOUR)
        np.testing.assert_allclose(means, [100.0, 300.0, 200.0])
        assert t.mean_over(0.5 * HOUR, 1.5 * HOUR) == means[2]

    def test_mean_over_arrays_rejects_empty(self):
        t = make([100, 300])
        with pytest.raises(ValueError, match="empty"):
            t.mean_over(np.array([0.0, HOUR]), np.array([HOUR, HOUR]))

    def test_long_trace_keeps_precision(self):
        # a month of minutes on a coal-heavy grid, then a green day: the
        # prefix reaches ~1e9 g/kWh*s while a green window integrates to
        # ~1e4, so a plain prefix difference would keep only ~5 digits
        rng = np.random.default_rng(3)
        t = make(np.concatenate([rng.uniform(600, 900, 30 * 1440),
                                 rng.uniform(5, 20, 1440)]), step=60.0)
        for k in (5, 20_000, 43_500, 44_000):
            a, b = k * 60.0 + 7.5, k * 60.0 + 610.25
            assert t.integrate_intensity(a, b) == pytest.approx(
                per_bin_integral(t, a, b), rel=1e-12)

    def test_cumulative_integral_is_lazy(self):
        t = make([100, 200])
        assert "_cum" not in vars(t)
        t.integrate_intensity(0.0, 1.5 * HOUR)
        assert "_cum" in vars(t)


def clamped_integral(trace, t0, t1):
    """The array integral with every bound clamped to the trace and the
    out-of-trace terms always added: the reference for the in-range path
    of :meth:`_integrate_array`, which skips both."""
    vals, start, step = trace.values, trace.start_time, trace.step_seconds
    last = vals.size - 1
    end = start + vals.size * step
    hi, lo = trace._cumulative()
    total = (np.maximum(np.minimum(t1, start) - t0, 0.0) * vals[0]
             + np.maximum(t1 - np.maximum(t0, end), 0.0) * vals[last])
    a = np.minimum(np.maximum(t0, start), end)
    b = np.maximum(np.minimum(np.maximum(t1, start), end), a)
    i = np.minimum(((a - start) / step).astype(np.int64), last)
    j = np.minimum(((b - start) / step).astype(np.int64), last)
    jm1 = j - 1
    vi = vals[i]
    inner = np.where(
        i == j,
        (b - a) * vi,
        (start + i * step + step - a) * vi
        + (hi[jm1] - hi[i]) + (lo[jm1] - lo[i])
        + (b - (start + j * step)) * vals[j])
    return total + inner


@st.composite
def trace_and_bound_arrays(draw):
    """A trace whose samples are often zero, plus bound arrays that all
    lie inside it with ``t1 >= t0`` (the in-range path), or that mix
    bounds inside, straddling either end, wholly outside and reversed;
    as 1-D pairs or as the gate's 2-D slot grid."""
    vals = draw(st.lists(st.one_of(st.just(0.0), st.floats(0, 2000)),
                         min_size=1, max_size=40))
    step = draw(st.sampled_from([1.0, 900.0, 3600.0]))
    start = draw(quarter_s)
    trace = make(vals, step=step, start=start)
    span_q = int(len(vals) * step * 4)
    inside = st.integers(0, span_q).map(lambda q: start + q / 4.0)
    anywhere = st.integers(-span_q - 40, 2 * span_q + 40).map(
        lambda q: start + q / 4.0)
    kind = draw(st.sampled_from(["inside", "mixed", "grid"]))
    if kind == "grid":  # slot starts on the grid, one row per runtime
        n = draw(st.integers(1, len(vals)))
        starts = start + np.arange(n) * step
        runtimes = np.array(draw(st.lists(
            st.integers(1, span_q).map(lambda q: q / 4.0),
            min_size=1, max_size=4)))
        return trace, starts, starts + runtimes[:, None]
    pairs = draw(st.lists(st.tuples(inside, inside) if kind == "inside"
                          else st.tuples(anywhere, anywhere),
                          min_size=1, max_size=12))
    if kind == "inside":
        pairs = [(min(p), max(p)) for p in pairs]
    return (trace, np.array([a for a, _ in pairs]),
            np.array([b for _, b in pairs]))


class TestInRangeIntegral:
    """``_integrate_array`` against the clamped formula it replaced, by
    bits: the in-range path leaves out only terms that are ``+0.0`` times
    a sample and clamps that are the identity."""

    @given(trace_and_bound_arrays())
    @settings(max_examples=500, deadline=None)
    def test_matches_clamped_formula_bit_for_bit(self, case):
        trace, t0, t1 = case
        got = trace.integrate_intensity(t0, t1)
        ref = clamped_integral(trace, t0, t1)
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    def test_in_range_bounds_take_the_short_path(self, monkeypatch):
        """In-range bounds make no ``np.maximum`` call (the clamps and
        the outside terms are skipped); one bound outside brings them
        back, with the outside term in the result."""
        calls = []
        maximum = np.maximum

        def counted(*args):
            calls.append(args)
            return maximum(*args)

        monkeypatch.setattr(np, "maximum", counted)
        t = make([100.0, 300.0, 200.0], start=HOUR)
        inside = t.integrate_intensity(np.array([HOUR, 1.5 * HOUR]),
                                       np.array([4 * HOUR, 2 * HOUR]))
        assert not calls
        assert inside.tolist() == [600 * HOUR, 50 * HOUR]
        straddle = t.integrate_intensity(np.array([0.0]), np.array([2 * HOUR]))
        assert calls
        assert straddle.tolist() == [200 * HOUR]

    def test_zero_d_bounds_give_a_scalar_like_the_general_path(self):
        t = make([100.0, 300.0])
        for a, b in ((0.5 * HOUR, HOUR), (-HOUR, HOUR)):  # inside, straddle
            got = t.integrate_intensity(np.array(a), np.array(b))
            ref = clamped_integral(t, np.array(a), np.array(b))
            assert type(got) is type(ref) and got == ref


def clip_window(trace, t0, t1):
    """``(start_time, values)`` of ``trace.window(t0, t1)`` by the array
    ``np.floor``/``np.clip`` bin bounds it used before: the reference for
    its scalar ``math`` bounds."""
    i0 = int(np.clip(np.floor((t0 - trace.start_time) / trace.step_seconds),
                     0, len(trace) - 1))
    i1 = int(np.clip(np.ceil((t1 - trace.start_time) / trace.step_seconds),
                     i0 + 1, len(trace)))
    return trace.start_time + i0 * trace.step_seconds, trace.values[i0:i1]


class TestWindowBounds:
    @given(trace_and_bounds(), st.floats(-1e3, 1e3), st.floats(0.0, 1e3))
    @settings(max_examples=400, deadline=None)
    def test_matches_clip_formula(self, case, jitter, extra):
        """Random bounds, also wholly before or after the trace, off the
        quarter-second grid, and a zero ``t0`` on a late trace."""
        trace, t0, t1 = case
        for a, b in ((t0, t1), (t1, t0), (t0 + jitter, t0 + jitter + extra),
                     (0.0, trace.start_time + jitter)):
            if b <= a:
                continue
            w = trace.window(a, b)
            start, values = clip_window(trace, a, b)
            assert w.start_time == start
            np.testing.assert_array_equal(w.values, values)
            assert w.step_seconds == trace.step_seconds


def fresh_window(trace, t0, t1):
    """``trace.window(t0, t1)`` on a fresh copy of ``trace``."""
    copy = CarbonIntensityTrace(trace.values, trace.step_seconds,
                                trace.start_time, trace.zone)
    return copy.window(t0, t1)


class TestWindowMemo:
    """``window`` is a plain slice: each call returns a new trace with
    the samples of its range, and none is kept on the instance (the
    trailing-window reuse lives in ``TrailingHistory``)."""

    @pytest.mark.parametrize("dt0, dt1", [(-HOUR, 0.0), (HOUR, 0.0),
                                          (0.0, -HOUR), (0.0, HOUR)])
    def test_moving_either_end_a_bin_is_a_new_object(self, dt0, dt1):
        trace = make(np.arange(48.0) + 100.0, start=HOUR)
        t0, t1 = 5.25 * HOUR, 9.5 * HOUR
        w = trace.window(t0, t1)
        moved = trace.window(t0 + dt0, t1 + dt1)
        assert moved is not w
        assert moved != w
        assert moved == fresh_window(trace, t0 + dt0, t1 + dt1)
        assert trace.window(t0, t1) is not w  # a new object on every call
        assert trace.window(t0, t1) == w

    @given(trace_and_bounds(),
           st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.01, 3.0)),
                    min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_sequence_matches_unmemoized_slices(self, case, moves):
        """Any sequence of requests: each window has the values, start,
        step and zone of the slice of a fresh copy."""
        trace, t0, _ = case
        for shift, length in moves:
            a = t0 + shift * trace.step_seconds
            b = a + length * trace.step_seconds
            w = trace.window(a, b)
            ref = fresh_window(trace, a, b)
            assert w.start_time == ref.start_time
            assert w.step_seconds == ref.step_seconds
            assert w.zone == ref.zone
            np.testing.assert_array_equal(w.values, ref.values)

    def test_memo_takes_no_part_in_equality_or_repr(self):
        trace = make([100, 200, 300])
        trace.window(0.0, 2 * HOUR)
        assert trace == make([100, 200, 300])
        assert "_window" not in repr(trace)

    def test_equality_by_identity_skips_the_value_compare(self,
                                                          monkeypatch):
        trace = make([100, 200, 300])
        w = trace.window(0.0, HOUR)

        def no_compare(*_args):
            raise AssertionError("identical traces compared by value")

        monkeypatch.setattr(np, "array_equal", no_compare)
        assert w == w
        assert not w != w
        with pytest.raises(AssertionError, match="by value"):
            _ = w == make([100])


class TestIndexAt:
    @given(trace_and_bounds(), st.floats(-1e6, 1e6))
    @settings(max_examples=400, deadline=None)
    def test_scalar_matches_clip_formula(self, case, jitter):
        """The scalar ``math`` index equals the array ``np.floor`` /
        ``np.clip`` one, for times before, inside and after the trace."""
        trace, t0, t1 = case
        times = [t0, t1, t0 + jitter, trace.start_time, trace.end_time,
                 int(t1)]
        for t in times:
            ref = int(np.clip(np.floor((np.float64(t) - trace.start_time)
                                       / trace.step_seconds),
                              0, len(trace) - 1))
            assert trace._index_at(t) == ref
            assert trace.at(t) == trace.values[ref]
            assert type(trace.at(t)) is float
        np.testing.assert_array_equal(
            trace._index_at(np.array(times, dtype=float)),
            [trace._index_at(t) for t in times])


class TestEquality:
    def test_equal_traces(self):
        a = make([100, 200], start=10.0)
        assert a == make([100, 200], start=10.0)
        assert not a != make([100, 200], start=10.0)

    def test_field_differences(self):
        a = make([100, 200])
        assert a != make([100, 201])
        assert a != make([100, 200, 300])
        assert a != make([100, 200], step=60.0)
        assert a != make([100, 200], start=1.0)
        assert a != CarbonIntensityTrace(a.values, HOUR, 0.0, zone="DE")
        assert a != "not a trace"

    def test_built_prefix_sum_ignored(self):
        a = make([100, 200, 300], start=-HOUR)
        a.integrate_intensity(-HOUR, 0.5 * HOUR)
        assert a == make([100, 200, 300], start=-HOUR)
        assert "_cum" not in repr(a)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(make([100]))


class TestTransforms:
    def test_daily_means(self):
        vals = [100.0] * 24 + [200.0] * 24
        t = make(vals)
        np.testing.assert_allclose(t.daily_means(), [100.0, 200.0])

    def test_daily_means_partial_day(self):
        vals = [100.0] * 24 + [300.0] * 12
        t = make(vals)
        np.testing.assert_allclose(t.daily_means(), [100.0, 300.0])

    def test_resample_upsample(self):
        t = make([100, 200])
        up = t.resample(HOUR / 2)
        assert len(up) == 4
        assert list(up.values) == [100, 100, 200, 200]

    def test_resample_downsample_preserves_mean(self):
        t = make([100, 200, 300, 400])
        down = t.resample(2 * HOUR)
        np.testing.assert_allclose(down.values, [150.0, 350.0])
        assert down.mean() == pytest.approx(t.mean())

    def test_resample_identity(self):
        t = make([1, 2])
        assert t.resample(HOUR) is t

    def test_resample_rejects_noninteger_ratio(self):
        t = make([1, 2])
        with pytest.raises(ValueError):
            t.resample(HOUR / 1.5)

    def test_scale(self):
        t = make([100])
        assert t.scale(0.5).values[0] == 50.0
        with pytest.raises(ValueError):
            t.scale(-1.0)

    def test_shift(self):
        t = make([100])
        assert t.shift(10.0).start_time == 10.0
        np.testing.assert_array_equal(t.shift(10.0).values, t.values)

    def test_concat(self):
        a = make([1, 2])
        b = make([3], start=2 * HOUR)
        c = a.concat(b)
        assert list(c.values) == [1, 2, 3]
        with pytest.raises(ValueError, match="different steps"):
            a.concat(make([1], step=60.0))

    def test_statistics(self):
        t = make([100, 200, 300, 400])
        assert t.min() == 100
        assert t.max() == 400
        assert t.percentile(50) == pytest.approx(250.0)


#: samples that stress the rule: ties, both zeros, heavy tails
SAMPLES = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, 250.0]),
              st.floats(0.0, 1e3, allow_nan=False),
              st.floats(0.0, 1e300, allow_nan=False)),
    min_size=1, max_size=400)
#: percentiles at and near both ends, integers, and anything between
QS = st.one_of(st.sampled_from([0.0, 100.0, 50.0, np.nextafter(0.0, 1.0),
                                np.nextafter(100.0, 0.0), 1e-300]),
               st.integers(0, 100), st.floats(0.0, 100.0))


class TestPercentile:
    """``percentile`` is numpy's ``"linear"`` rule from one sort, equal to
    ``np.percentile`` by ``==``."""

    @given(values=SAMPLES, qs=st.lists(QS, min_size=1, max_size=4))
    @example(values=[7.0], qs=[0.0, 37.5, 100.0])
    @example(values=[250.0, 250.0, 1.0, 250.0], qs=[0.0, 40.0, 100.0])
    @example(values=[-0.0, 0.0, -0.0], qs=[0.0, 50.0, 75.0, 100.0])
    @example(values=[0.31183145201048545, 0.42332644897257565],
             qs=[82.77025938204417])
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy(self, values, qs):
        t = make(values)
        assert t.percentile(qs) == tuple(np.percentile(values, qs))
        for q in qs:
            assert t.percentile(q) == np.percentile(values, q)

    def test_upper_branch_of_the_blend(self):
        """For weights ``g >= 0.5`` numpy blends down from the upper
        neighbour, which can round differently from blending up."""
        a, b = 0.31183145201048545, 0.42332644897257565
        g = 82.77025938204417 / 100
        assert a + (b - a) * g != b - (b - a) * (1 - g)
        assert make([b, a]).percentile(82.77025938204417) \
            == b - (b - a) * (1 - g)

    def test_one_sample_and_shapes(self):
        t = make([300.0])
        assert t.percentile(0) == t.percentile(100) == 300.0
        assert isinstance(t.percentile(50), float)
        assert make([1.0, 3.0]).percentile([50, 100]) == (2.0, 3.0)

    @pytest.mark.parametrize("q", [-1e-9, 100.000001, float("nan")])
    def test_rejects_out_of_range(self, q):
        with pytest.raises(ValueError, match="range"):
            make([1.0, 2.0]).percentile(q)
        with pytest.raises(ValueError, match="range"):
            make([1.0, 2.0]).percentile([50.0, q])
