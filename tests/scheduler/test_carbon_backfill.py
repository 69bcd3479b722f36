"""Tests for the carbon-aware backfill plugin (§3.3)."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from repro.grid import CarbonIntensityTrace, SyntheticProvider
from repro.grid.forecast import (
    OracleForecaster,
    PersistenceForecaster,
    SeasonalNaiveForecaster,
)
from repro.scheduler import CarbonBackfillPolicy, EasyBackfillPolicy, RJMS
from repro.scheduler.rjms import SchedulingContext
from repro.simulator import Cluster, Job, WorkloadConfig, WorkloadGenerator
from tests.grid.test_intensity import per_bin_integral

HOUR = 3600.0
DAY = 86400.0


@pytest.fixture
def light_workload():
    """Unsaturated load so the scheduler has freedom to shift jobs."""
    cfg = WorkloadConfig(n_jobs=80, mean_interarrival_s=4000.0,
                         max_nodes_log2=3, runtime_median_s=2 * HOUR,
                         runtime_sigma=0.8)
    return WorkloadGenerator(cfg, seed=3).generate()


def run(node_power_model, jobs, policy, zone="ES", seed=7):
    cluster = Cluster(16, node_power_model, idle_power_off=True)
    provider = SyntheticProvider(zone, seed=seed)
    return RJMS(cluster, copy.deepcopy(jobs), policy,
                provider=provider).run()


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            CarbonBackfillPolicy(max_delay_s=-1.0)
        with pytest.raises(ValueError):
            CarbonBackfillPolicy(min_saving_fraction=1.0)
        with pytest.raises(ValueError):
            CarbonBackfillPolicy(history_s=0.0)


class TestBehaviour:
    def test_all_jobs_complete(self, node_power_model, light_workload):
        result = run(node_power_model, light_workload,
                     CarbonBackfillPolicy(max_delay_s=DAY))
        assert len(result.completed_jobs) == len(light_workload)

    def test_saves_carbon_vs_easy(self, node_power_model, light_workload):
        """The §3.3 headline: green-period placement cuts carbon."""
        base = run(node_power_model, light_workload, EasyBackfillPolicy())
        carbon = run(node_power_model, light_workload,
                     CarbonBackfillPolicy(max_delay_s=DAY,
                                          min_saving_fraction=0.03))
        assert carbon.total_carbon_kg < base.total_carbon_kg * 0.99

    def test_oracle_bounds_realistic_forecast(self, node_power_model,
                                              light_workload):
        """Forecast-quality ablation: oracle >= seasonal-naive savings."""
        base = run(node_power_model, light_workload, EasyBackfillPolicy())
        sn = run(node_power_model, light_workload,
                 CarbonBackfillPolicy(max_delay_s=DAY,
                                      min_saving_fraction=0.03))
        oracle = run(node_power_model, light_workload,
                     CarbonBackfillPolicy(
                         forecaster=OracleForecaster(
                             SyntheticProvider("ES", seed=7)),
                         max_delay_s=DAY, min_saving_fraction=0.03))
        assert oracle.total_carbon_kg <= sn.total_carbon_kg + 1e-6
        assert oracle.total_carbon_kg < base.total_carbon_kg

    def test_persistence_forecast_never_holds(self, node_power_model,
                                              light_workload):
        """A flat forecast shows no better window, so the policy
        degenerates to plain EASY — an important sanity property."""
        base = run(node_power_model, light_workload, EasyBackfillPolicy())
        pers = run(node_power_model, light_workload,
                   CarbonBackfillPolicy(forecaster=PersistenceForecaster(),
                                        max_delay_s=DAY))
        assert pers.total_carbon_kg == pytest.approx(
            base.total_carbon_kg, rel=1e-6)
        assert pers.mean_wait_s == pytest.approx(base.mean_wait_s, abs=1.0)

    def test_bounded_delay_no_starvation(self, node_power_model,
                                         light_workload):
        max_delay = 6 * HOUR
        result = run(node_power_model, light_workload,
                     CarbonBackfillPolicy(max_delay_s=max_delay))
        base = run(node_power_model, light_workload, EasyBackfillPolicy())
        base_waits = {j.job_id: j.wait_time for j in base.jobs}
        for j in result.jobs:
            # wait grows by at most the delay bound (+ one tick slack)
            assert j.wait_time <= base_waits[j.job_id] + max_delay + 1800.0

    def test_holding_costs_wait_time(self, node_power_model,
                                     light_workload):
        """Carbon savings are bought with queue delay — report honestly."""
        base = run(node_power_model, light_workload, EasyBackfillPolicy())
        carbon = run(node_power_model, light_workload,
                     CarbonBackfillPolicy(max_delay_s=DAY,
                                          min_saving_fraction=0.03))
        assert carbon.mean_wait_s > base.mean_wait_s


def per_bin_mean(trace, t0, t1):
    """Mean intensity over [t0, t1) by the per-bin overlap sum."""
    return per_bin_integral(trace, t0, t1) / (t1 - t0)


def slot_loop_holds(forecast, slack, runtime, min_saving_fraction):
    """The gate's verdict by the scalar slot loop it replaced."""
    now_mean = per_bin_mean(forecast, forecast.start_time,
                            forecast.start_time + runtime)
    step = forecast.step_seconds
    best = now_mean
    for k in range(1, int(slack // step) + 1):
        s = forecast.start_time + k * step
        e = min(s + runtime, forecast.end_time)
        if e <= s:
            break
        best = min(best, per_bin_mean(forecast, s, e))
    if now_mean <= 0:
        return False
    return (now_mean - best) / now_mean >= min_saving_fraction


def gate_batch(rng):
    """A random gate batch: step, saving fraction, ``(slack, runtime)``
    windows and the samples its forecasts are cut from."""
    step = float(rng.choice([900.0, HOUR]))
    frac = float(rng.choice([0.0, 0.01, 0.03, 0.05, 0.2, 0.5]))
    windows = [(float(rng.uniform(0.1, 30.0)) * HOUR,
                float(rng.uniform(0.25, 20.0)) * HOUR)
               for _ in range(int(rng.integers(1, 9)))]
    steps = max(horizon_steps(w, step) for w in windows)
    hours = np.arange(steps + int(rng.integers(0, 30))) * step / HOUR
    values = np.clip(300 + 150 * np.sin(2 * np.pi * hours / 24)
                     + rng.normal(0, 40, hours.size), 0, None)
    if rng.random() < 0.1:
        values[:] = 250.0  # flat: nothing to gain
    start = float(rng.integers(1, 400)) * step
    return step, frac, windows, steps, values, start


def horizon_steps(window, step):
    """Forecast samples one job's window needs, as the policy sizes them."""
    return int(np.ceil(sum(window) / step)) + 1


class TestGate:
    def test_array_gate_matches_slot_loop(self):
        """One 2-D ``mean_over`` call scores a batch of jobs: every row's
        verdict is the slot loop's, and its now and best means are the
        bits of scoring that job alone on its own forecast, whether the
        batch's forecast is its own horizon or a longer one."""
        rng = np.random.default_rng(11)
        held = scored = 0
        while scored < 400:
            step, frac, windows, steps, values, start = gate_batch(rng)
            policy = CarbonBackfillPolicy(min_saving_fraction=frac)
            jobs = [SimpleNamespace(job_id=k) for k in range(len(windows))]
            alone = []
            for w in windows:
                own = CarbonIntensityTrace(
                    values[:horizon_steps(w, step)], step, start)
                now_mean, best = policy._score(own, [w])
                alone.append((own, now_mean[0], best[0]))
            for forecast in (CarbonIntensityTrace(values[:steps], step, start),
                             CarbonIntensityTrace(values, step, start)):
                now_means, bests = policy._score(forecast, windows)
                held_ids = policy._held(
                    dict(enumerate(zip(now_means, bests))), jobs)
                for k, (own, now_mean, best) in enumerate(alone):
                    assert (now_means[k], bests[k]) == (now_mean, best)
                    assert (k in held_ids) == slot_loop_holds(
                        own, *windows[k], frac)
            held += len(held_ids)
            scored += len(windows)
        assert 0 < held < scored

    def test_one_forecast_per_pass(self, node_power_model, light_workload):
        """At most one fit per ``schedule()``, also in passes where holds
        trigger the reduced second inner pass.  A pass requests history
        only when the provider's range key moved, so every request is a
        new window and the fits number the requests; passes that forecast
        on an unchanged range make no request at all."""

        class CountingForecaster(SeasonalNaiveForecaster):
            fits = 0

            def fit(self, history):
                CountingForecaster.fits += 1
                return super().fit(history)

        policy = CarbonBackfillPolicy(CountingForecaster(), max_delay_s=DAY,
                                      min_saving_fraction=0.03)
        inner_schedule = policy._inner.schedule
        inner_calls = []

        def counted_inner(ctx):
            inner_calls[-1] += 1
            return inner_schedule(ctx)

        policy._inner.schedule = counted_inner
        forecast = policy._forecast
        forecasts = []  # forecasts per pass

        def counted_forecast(ctx, horizon_s):
            forecasts[-1] += 1
            return forecast(ctx, horizon_s)

        policy._forecast = counted_forecast
        schedule = policy.schedule
        windows = []  # each pass's history traces
        fits_per_pass = []

        def counted(ctx):
            history = ctx.provider.history
            before = CountingForecaster.fits
            inner_calls.append(0)
            forecasts.append(0)
            windows.append([])

            def recorded(t0, t1):
                windows[-1].append(history(t0, t1))
                return windows[-1][-1]

            ctx.provider.history = recorded
            try:
                out = schedule(ctx)
            finally:
                del ctx.provider.history
            fits_per_pass.append(CountingForecaster.fits - before)
            return out

        policy.schedule = counted
        result = run(node_power_model, light_workload, policy)
        assert len(result.completed_jobs) == len(light_workload)
        assert max(fits_per_pass) == 1
        assert max(forecasts) == 1
        assert inner_calls.count(2) > 0  # holds ran the second pass
        last, requests = None, 0
        for fits, traces in zip(fits_per_pass, windows):
            assert len(traces) <= 1  # one history request per pass
            for trace in traces:
                assert trace != last  # every request is a new window
                last = trace
            assert fits == len(traces)
            requests += len(traces)
        assert CountingForecaster.fits == requests > 0
        quiet = sum(n == 1 and not traces
                    for n, traces in zip(forecasts, windows))
        assert quiet > 0  # forecasting passes that made no request


class TestHistoryKey:
    """The gate requests a history window only when the provider's
    ``history_range`` key is None or has moved."""

    @staticmethod
    def simulate(node_power_model, jobs, keyed):
        """One light-workload run; returns the result, the fits and the
        sample range of every history request."""
        fits, ranges = [], []

        class CountingForecaster(SeasonalNaiveForecaster):
            def fit(self, history):
                fits.append(history)
                return super().fit(history)

        provider = SyntheticProvider("ES", seed=7)
        history = provider.history

        def recorded(t0, t1):
            ranges.append(SyntheticProvider.history_range(provider, t0, t1))
            return history(t0, t1)

        provider.history = recorded
        if not keyed:
            provider.history_range = lambda t0, t1: None
        policy = CarbonBackfillPolicy(CountingForecaster(), max_delay_s=DAY,
                                      min_saving_fraction=0.03)
        cluster = Cluster(16, node_power_model, idle_power_off=True)
        result = RJMS(cluster, copy.deepcopy(jobs), policy,
                      provider=provider).run()
        return result, len(fits), ranges

    def test_forced_none_key_changes_no_bit(self, node_power_model,
                                            light_workload):
        """The same provider with its key forced to None fetches every
        forecasting pass's window, and the run is the same to the bit:
        job times, per-job and total energy and carbon, and the fits."""
        keyed, keyed_fits, keyed_ranges = self.simulate(
            node_power_model, light_workload, keyed=True)
        plain, plain_fits, plain_ranges = self.simulate(
            node_power_model, light_workload, keyed=False)

        def bits(result):
            return ([(j.job_id, j.start_time, j.end_time)
                     for j in result.jobs],
                    [(jid, a.energy_kwh.hex(), a.carbon_g.hex())
                     for jid, a in sorted(result.accounts.items())],
                    result.total_energy_kwh.hex(),
                    result.total_carbon_kg.hex())

        assert bits(keyed) == bits(plain)
        assert keyed_fits == plain_fits > 0
        # with keys, one request per distinct range; without, every pass
        # that forecasts asks again
        assert len(keyed_ranges) == len(set(keyed_ranges)) \
            == len(set(plain_ranges)) < len(plain_ranges)

    def test_a_key_holds_only_for_its_provider(self):
        """Two providers with equal keys for one window but different
        samples: the gate fetches from the second, not reusing the
        first's history."""
        policy = CarbonBackfillPolicy()
        now = 8 * DAY + 0.25 * HOUR
        forecasts = []
        for seed in (1, 2, 1):
            provider = SyntheticProvider("ES", seed=seed)
            ctx = SchedulingContext(now=now, pending=[], cluster=None,
                                    provider=provider, running=[],
                                    expected_end={})
            forecasts.append(policy._forecast(ctx, 6 * HOUR))
            assert policy.forecaster.history == provider.history(
                now - policy.history_s, now)
        assert forecasts[0] != forecasts[1] and forecasts[0] == forecasts[2]


def trending_forecast(rng, n=72, start=40 * HOUR):
    """A noisy diurnal forecast that falls over time, so a window's best
    slot is often its last one."""
    hours = np.arange(n)
    values = (300 + 150 * np.sin(2 * np.pi * hours / 24) - 3 * hours
              + rng.normal(0, 40, n))
    return CarbonIntensityTrace(np.clip(values, 0, None), HOUR, start)


def slot_means_score(forecast, windows):
    """Now and best means of each ``(slack, runtime)`` window by scalar
    ``mean_over`` calls on the slots ``start + k * step`` within the
    slack (scalar and array bounds share their arithmetic)."""
    step = forecast.step_seconds
    now_means, best_means = [], []
    for slack, runtime in windows:
        means = [forecast.mean_over(s, s + runtime)
                 for s in (forecast.start_time + k * step
                           for k in range(int(slack // step) + 1))]
        now_means.append(means[0])
        best_means.append(min(means))
    return now_means, best_means


class TestScoreRows:
    """``_score`` keeps one row of slot means per runtime while the
    forecast is the same object; every result has the bits of a fresh
    policy's ``_score`` and of the scalar slot means."""

    def test_sequence_reuses_rows_and_matches_fresh_policy(self,
                                                           monkeypatch):
        shapes = []
        mean_over = CarbonIntensityTrace.mean_over

        def counted(trace, t0, t1):
            shapes.append(np.shape(t1))
            return mean_over(trace, t0, t1)

        monkeypatch.setattr(CarbonIntensityTrace, "mean_over", counted)
        rng = np.random.default_rng(2)
        first, second = trending_forecast(rng), trending_forecast(rng)
        twin = CarbonIntensityTrace(second.values, HOUR, second.start_time)
        steps = [
            # rows for 3 h and 5 h runtimes, 11 slots each
            (first, [(10.5 * HOUR, 3 * HOUR), (6.2 * HOUR, 5 * HOUR)],
             [(2, 11)]),
            # shrinking slacks: both rows are long enough
            (first, [(9.7 * HOUR, 3 * HOUR), (5.1 * HOUR, 5 * HOUR)], []),
            # repeated runtimes and one new one, asked for twice
            (first, [(9.0 * HOUR, 3 * HOUR), (4.0 * HOUR, 2.5 * HOUR),
                     (8.0 * HOUR, 2.5 * HOUR), (3.0 * HOUR, 5 * HOUR)],
             [(1, 9)]),
            # a slack longer than the 3 h row: only that row is redone
            (first, [(20.0 * HOUR, 3 * HOUR), (2.0 * HOUR, 5 * HOUR)],
             [(1, 21)]),
            # a new forecast object drops every row, even an equal one
            (second, [(9.0 * HOUR, 3 * HOUR), (4.0 * HOUR, 2.5 * HOUR)],
             [(2, 10)]),
            (twin, [(9.0 * HOUR, 3 * HOUR), (4.0 * HOUR, 2.5 * HOUR)],
             [(2, 10)]),
        ]
        policy = CarbonBackfillPolicy()
        for forecast, windows, expected_calls in steps:
            shapes.clear()
            got = policy._score(forecast, windows)
            assert shapes == expected_calls
            assert got == CarbonBackfillPolicy()._score(forecast, windows) \
                == slot_means_score(forecast, windows)

    def test_random_sequences_match_fresh_policy(self):
        rng = np.random.default_rng(5)
        reused = 0
        for _ in range(60):
            policy = CarbonBackfillPolicy()
            forecast = trending_forecast(rng)
            runtimes = [float(r) for r in rng.uniform(0.25, 12, 4) * HOUR]
            for _ in range(8):
                roll = rng.random()
                if roll < 0.1:
                    forecast = trending_forecast(rng)
                elif roll < 0.2:
                    forecast = CarbonIntensityTrace(
                        forecast.values, HOUR, forecast.start_time)
                reused += forecast is policy._rows_for
                windows = [(float(rng.uniform(0.1, 30)) * HOUR,
                            runtimes[int(rng.integers(0, 4))])
                           for _ in range(int(rng.integers(1, 6)))]
                assert policy._score(forecast, windows) == \
                    CarbonBackfillPolicy()._score(forecast, windows) == \
                    slot_means_score(forecast, windows)
        assert reused > 200


class TestBatchShape:
    """A pass scores every pending job the gate may hold in one
    ``_score`` call, right after the forecast, and both holding checks
    read that batch: one 2-D ``mean_over`` call when the pass has a new
    forecast or a row is missing or too short, none when the kept rows
    cover every window."""

    def test_mean_over_calls_per_pass(self, node_power_model, monkeypatch):
        shapes = []
        mean_over = CarbonIntensityTrace.mean_over

        def counted(trace, t0, t1):
            shapes.append(np.shape(t1))
            return mean_over(trace, t0, t1)

        monkeypatch.setattr(CarbonIntensityTrace, "mean_over", counted)
        policy = CarbonBackfillPolicy(min_saving_fraction=0.0)  # holds all
        score = policy._score
        scores = []

        def counted_score(forecast, windows):
            scores.append(len(windows))
            return score(forecast, windows)

        policy._score = counted_score
        provider = SyntheticProvider("ES", seed=7)
        cluster = Cluster(16, node_power_model, idle_power_off=True)
        now = 3 * DAY + 0.5 * HOUR

        def job(job_id, waited_h, runtime_h, nodes=1):
            return Job(job_id=job_id, submit_time=now - waited_h * HOUR,
                       nodes_requested=nodes,
                       runtime_estimate=runtime_h * HOUR,
                       work_seconds=runtime_h * HOUR)

        def schedule(at, *jobs):
            shapes.clear()
            scores.clear()
            ctx = SchedulingContext(now=at, pending=list(jobs),
                                    cluster=cluster, provider=provider,
                                    running=[], expected_end={})
            started = [d.job.job_id for d in policy.schedule(ctx)]
            return started, shapes[:], scores[:]

        # slack 10 h on 3 h, 8 h on 10 h; 600 s is too short to hold
        a, h, short = job(1, 2, 3), job(2, 4, 10), job(3, 0, 600 / HOUR)
        # 15 nodes: blocked behind a and h until the gate holds them
        wide = job(4, 2, 6, nodes=15)
        # a new forecast: one batch of 11 slots on three runtimes; the
        # second inner pass offers the wide job, scored in that batch
        assert schedule(now, a, h, wide, short) == ([3], [(3, 11)], [3])
        forecast = policy._rows_for
        # the kept rows cover every window: no integral at all
        assert schedule(now, a, h, wide, short) == ([3], [], [3])
        # a missing runtime (5 h, slack 8 h), on the same forecast
        b = job(5, 4, 5)
        assert schedule(now, a, h, b, short) == ([3], [(1, 9)], [3])
        assert policy._rows_for is forecast
        # a 3 h job with 12 h of slack: the 3 h row is too short
        c = job(6, 0, 3)
        assert schedule(now, a, h, b, c, short) == ([3], [(1, 13)], [4])
        assert policy._rows_for is forecast
        assert schedule(now, c, b, h, a, short) == ([3], [], [4])
        # two hours on the history has moved: a new forecast
        assert schedule(now + 2 * HOUR, a, h, b, c, short) == \
            ([3], [(3, 11)], [4])
        assert policy._rows_for is not forecast
        # no job the gate may hold: no forecast, no batch
        assert schedule(now + 2 * HOUR, short) == ([3], [], [])
