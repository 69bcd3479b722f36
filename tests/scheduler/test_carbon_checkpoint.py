"""Tests for the carbon-aware checkpoint/restart manager (§3.3)."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from repro.grid import (
    CarbonIntensityProvider,
    CarbonIntensityTrace,
    SyntheticProvider,
)
from repro.powerstack import LinearScalingPolicy, SiteController
from repro.scheduler import CarbonCheckpointPolicy, EasyBackfillPolicy, RJMS
from repro.simulator import (
    CheckpointModel,
    Cluster,
    WorkloadConfig,
    WorkloadGenerator,
)

HOUR = 3600.0
DAY = 86400.0


@pytest.fixture
def suspendable_workload():
    cfg = WorkloadConfig(n_jobs=60, mean_interarrival_s=5000.0,
                         max_nodes_log2=3, runtime_median_s=4 * HOUR,
                         runtime_sigma=0.7, suspendable_fraction=1.0)
    return WorkloadGenerator(cfg, seed=5).generate()


def run(node_power_model, jobs, managers=(), zone="DE", **rjms_kw):
    cluster = Cluster(16, node_power_model, idle_power_off=True)
    provider = SyntheticProvider(zone, seed=9)
    rjms = RJMS(cluster, copy.deepcopy(jobs), EasyBackfillPolicy(),
                provider=provider, **rjms_kw)
    for m in managers:
        rjms.register_manager(m)
    return rjms.run()


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            CarbonCheckpointPolicy(suspend_percentile=50.0,
                                   resume_percentile=80.0)
        with pytest.raises(ValueError):
            CarbonCheckpointPolicy(max_suspensions_per_job=0)
        with pytest.raises(ValueError):
            CarbonCheckpointPolicy(history_s=-1.0)


class TestBehaviour:
    def test_all_jobs_complete_despite_suspensions(self, node_power_model,
                                                   suspendable_workload):
        result = run(node_power_model, suspendable_workload,
                     managers=[CarbonCheckpointPolicy()])
        assert len(result.completed_jobs) == len(suspendable_workload)

    def test_suspensions_happen(self, node_power_model,
                                suspendable_workload):
        result = run(node_power_model, suspendable_workload,
                     managers=[CarbonCheckpointPolicy()])
        assert sum(j.n_suspensions for j in result.jobs) > 0

    def test_saves_carbon_vs_no_checkpointing(self, node_power_model,
                                              suspendable_workload):
        """Suspending through red periods cuts carbon (§3.3)."""
        base = run(node_power_model, suspendable_workload)
        ckpt = run(node_power_model, suspendable_workload,
                   managers=[CarbonCheckpointPolicy()])
        assert ckpt.total_carbon_kg < base.total_carbon_kg

    def test_suspension_churn_capped(self, node_power_model,
                                     suspendable_workload):
        cap = 2
        result = run(node_power_model, suspendable_workload,
                     managers=[CarbonCheckpointPolicy(
                         max_suspensions_per_job=cap)])
        assert all(j.n_suspensions <= cap for j in result.jobs)

    def test_stretch_bounded(self, node_power_model, suspendable_workload):
        max_susp = 6 * HOUR
        result = run(node_power_model, suspendable_workload,
                     managers=[CarbonCheckpointPolicy(
                         max_suspended_s=max_susp)])
        # forced resume is best-effort (it still needs free nodes), so
        # the bound carries generous scheduling slack; without the
        # stretch limit suspensions can last arbitrarily long
        for j in result.jobs:
            if j.n_suspensions:
                assert j.suspended_seconds <= \
                    j.n_suspensions * (max_susp + 24 * HOUR)

    def test_expensive_checkpoints_suppress_suspension(self,
                                                       node_power_model,
                                                       suspendable_workload):
        pricey = CheckpointModel(state_gb_per_node=4000.0,
                                 write_bw_gb_s=0.2, read_bw_gb_s=0.4)
        result = run(node_power_model, suspendable_workload,
                     managers=[CarbonCheckpointPolicy()],
                     checkpoint_model=pricey)
        cheap = run(node_power_model, suspendable_workload,
                    managers=[CarbonCheckpointPolicy()])
        assert sum(j.n_suspensions for j in result.jobs) <= \
            sum(j.n_suspensions for j in cheap.jobs)


class TestThresholdReuse:
    """Thresholds are recomputed only when the history window changes."""

    def test_every_tick_equals_fresh_percentiles(self, node_power_model):
        """A managed-site-shaped run: 16 idle-on nodes, a PowerStack site
        controller and checkpointing on a fully suspendable queue."""
        cfg = WorkloadConfig(n_jobs=120, mean_interarrival_s=3000.0,
                             max_nodes_log2=3, runtime_median_s=3 * HOUR,
                             runtime_sigma=0.6, suspendable_fraction=1.0)
        jobs = WorkloadGenerator(cfg, seed=1).generate()
        cluster = Cluster(16, node_power_model)
        rjms = RJMS(cluster, jobs, EasyBackfillPolicy(),
                    provider=SyntheticProvider("DE", seed=23),
                    checkpoint_model=CheckpointModel(state_gb_per_node=8.0,
                                                     write_bw_gb_s=1.0,
                                                     read_bw_gb_s=2.0))
        peak = node_power_model.peak_watts
        idle = node_power_model.idle_watts
        rjms.register_manager(SiteController(
            LinearScalingPolicy(7 * peak + 9 * idle, 15 * peak + idle,
                                350.0, 490.0), cluster))
        policy = CarbonCheckpointPolicy()
        rjms.register_manager(policy)
        thresholds = policy._thresholds
        windows = []

        def checked(r):
            got = thresholds(r)
            t0 = max(0.0, r.now - policy.history_s)
            if got is None:
                assert r.now - t0 < 6 * HOUR
                return got
            hist = r.provider.history(t0, r.now)
            assert got == (hist.percentile(policy.suspend_percentile),
                           hist.percentile(policy.resume_percentile))
            windows.append(hist)
            return got

        policy._thresholds = checked
        result = rjms.run()
        assert len(result.completed_jobs) == len(jobs)
        assert sum(j.n_suspensions for j in result.jobs) > 0
        changes = sum(w != prev for w, prev in zip(windows, [None] + windows))
        assert 1 < changes < len(windows)  # ticks shared windows

    def test_changed_window_values_recompute(self):
        """A provider whose window values change between two calls at the
        same time gets fresh thresholds, not the cached pair: it inherits
        the ``None`` range key, so every tick requests its window."""
        rng = np.random.default_rng(4)

        class Stub(CarbonIntensityProvider):
            values = rng.uniform(100, 500, 168)

            def intensity_at(self, t):
                return float(self.values[-1])

            def history(self, t0, t1):
                return CarbonIntensityTrace(self.values, HOUR, 0.0)

        provider = Stub()
        assert provider.history_range(0.0, 7 * DAY) is None
        rjms = SimpleNamespace(now=7 * DAY, provider=provider)
        policy = CarbonCheckpointPolicy()

        def fresh():
            return (float(np.percentile(provider.values, 80.0)),
                    float(np.percentile(provider.values, 50.0)))

        first = policy._thresholds(rjms)
        assert first == fresh()
        provider.values = provider.values * 0.5 + 40.0
        second = policy._thresholds(rjms)
        assert second == fresh() != first
        assert policy._thresholds(rjms) == second
