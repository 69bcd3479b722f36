"""Differential oracle: running-job accrual against the accrual it replaced.

:class:`ReferenceRJMS` keeps the previous accounting: each step walks
every ``JobAccount`` ever created and integrates each live one over its
own ``provider.history`` window, at the draw a fresh scan of the job's
nodes gives, and the cluster's carbon is summed over its power segments
after the run.  Its cluster keeps nothing: every power, job-draw and
node-count query scans afresh.  The RJMS must give the same
bits: job start and end times, power segments, total energy and carbon,
and every account's energy and carbon.
"""

import collections
import dataclasses

import pytest

from repro import units
from repro.grid import SyntheticProvider
from repro.powerstack import LinearScalingPolicy, SiteController
from repro.scheduler import (
    RJMS,
    CarbonBackfillPolicy,
    CarbonCheckpointPolicy,
    EasyBackfillPolicy,
    FCFSPolicy,
    MalleabilityManager,
    MoldableEasyBackfillPolicy,
)
from repro.simulator import (
    Cluster,
    ComponentPowerModel,
    FailureInjector,
    NodePowerModel,
    WorkloadConfig,
    WorkloadGenerator,
)

HOUR_S = units.SECONDS_PER_HOUR
PM = NodePowerModel(cpus=(ComponentPowerModel("cpu", 50.0, 240.0),) * 2)


class ScanCluster(Cluster):
    """A cluster that rescans its nodes for every power, job-draw and
    node count."""

    def current_power(self) -> float:
        return self._scan_power()

    def job_power(self, job_id: int) -> float:
        return sum(nd.current_power() for nd in self.nodes_of_job(job_id))

    @property
    def n_free(self) -> int:
        return self._scan_free()

    @property
    def n_busy(self) -> int:
        return self._scan_busy()


class ReferenceRJMS(RJMS):
    """The RJMS with its previous, all-accounts accrual."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._last_update = {}

    def _accrue_all(self) -> None:
        now = self.now
        self.cluster.accrue(now)
        for jid, acc in self.accounts.items():
            last = self._last_update[jid]
            watts = self.cluster.job_power(jid)
            if watts > 0 and now > last:
                dt = now - last
                acc.energy_kwh += watts * dt \
                    / units.SECONDS_PER_HOUR / units.WATTS_PER_KW
                trace = self.provider.history(last, now)
                acc.carbon_g += trace.carbon_for_power(watts, last, now)
            self._last_update[jid] = now

    def _start_job(self, job, n_nodes: int) -> None:
        super()._start_job(job, n_nodes)
        self._last_update[job.job_id] = self.now

    def run(self, until=None, max_events=10_000_000):
        result = super().run(until, max_events)
        total_g = 0.0
        for t0, t1, watts in self.cluster.power_segments():
            if watts > 0:
                trace = self.provider.history(t0, t1)
                total_g += trace.carbon_for_power(watts, t0, t1)
        return dataclasses.replace(
            result, total_carbon_kg=total_g / units.GRAMS_PER_KG)


def jobs_for(seed, n_jobs=24, offset=0.0, **cfg):
    cfg.setdefault("max_nodes_log2", 3)
    config = WorkloadConfig(n_jobs=n_jobs, mean_interarrival_s=2500.0,
                            runtime_median_s=2 * HOUR_S, **cfg)
    jobs = WorkloadGenerator(config, seed=seed).generate()
    return [dataclasses.replace(j, submit_time=j.submit_time + offset)
            for j in jobs]


def count_calls(rjms, names):
    """Count calls the managers make to the RJMS's ``names`` methods."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in names:
        setattr(rjms, name, counted(name, getattr(rjms, name)))
    return calls


# Each scenario builds one simulation with the given RJMS and cluster
# classes and returns it with a check that the run exercised the path.

def fcfs(rjms_cls, cluster):
    rjms = rjms_cls(cluster, jobs_for(3), FCFSPolicy(),
                    provider=SyntheticProvider("DE", seed=3))
    return rjms, lambda: True


def easy(rjms_cls, cluster):
    rjms = rjms_cls(cluster, jobs_for(4), EasyBackfillPolicy(),
                    provider=SyntheticProvider("ES", seed=4))
    return rjms, lambda: True


def moldable_resizes(rjms_cls, cluster):
    jobs = jobs_for(5, malleable_fraction=0.7)
    rjms = rjms_cls(cluster, jobs,
                    MoldableEasyBackfillPolicy(min_start_fraction=0.25),
                    provider=SyntheticProvider("DE", seed=5))
    high, low = 8 * PM.peak_watts, 3 * PM.peak_watts
    rjms.register_manager(MalleabilityManager(
        lambda t: high if int(t // (6 * HOUR_S)) % 2 == 0 else low))
    calls = count_calls(rjms, ("resize_job",))
    return rjms, lambda: calls["resize_job"] > 0


def carbon_backfill(rjms_cls, cluster):
    rjms = rjms_cls(cluster, jobs_for(6),
                    CarbonBackfillPolicy(max_delay_s=12 * HOUR_S),
                    provider=SyntheticProvider("ES", seed=6))
    return rjms, lambda: True


def checkpointing(rjms_cls, cluster):
    rjms = rjms_cls(cluster, jobs_for(7, suspendable_fraction=1.0),
                    EasyBackfillPolicy(),
                    provider=SyntheticProvider("DE", seed=7))
    rjms.register_manager(CarbonCheckpointPolicy())
    calls = count_calls(rjms, ("suspend_job", "resume_job"))
    return rjms, lambda: calls["suspend_job"] > 0 and calls["resume_job"] > 0


def site_caps(rjms_cls, cluster):
    rjms = rjms_cls(cluster, jobs_for(8), EasyBackfillPolicy(),
                    provider=SyntheticProvider("DE", seed=8))
    n = cluster.n_nodes
    half_busy = n // 2 * (PM.peak_watts + PM.idle_watts)
    policy = LinearScalingPolicy(half_busy, n * PM.peak_watts, 350.0, 490.0)
    rjms.register_manager(SiteController(policy, cluster))
    calls = count_calls(rjms, ("set_job_cap",))
    return rjms, lambda: calls["set_job_cap"] > 0


def failures(rjms_cls, cluster):
    rjms = rjms_cls(cluster, jobs_for(9), EasyBackfillPolicy(),
                    provider=SyntheticProvider("FR", seed=9))
    injector = FailureInjector(mtbf_seconds=30 * HOUR_S, repair_seconds=HOUR_S,
                               seed=2, max_failures=8)
    rjms.register_manager(injector)
    return rjms, lambda: len(injector.failures) > 0


def late_start(rjms_cls, cluster):
    start = 5 * HOUR_S
    rjms = rjms_cls(cluster, jobs_for(10, offset=start), EasyBackfillPolicy(),
                    provider=SyntheticProvider("DE", seed=10),
                    start_time=start)
    # the cluster integrates from 0, so the run's first segment is the
    # one before its start time
    return rjms, lambda: cluster.power_segments()[0][0] == 0.0 \
        and cluster.power_segments()[0][1] >= start


SCENARIOS = [fcfs, easy, moldable_resizes, carbon_backfill, checkpointing,
             site_caps, failures, late_start]


def job_times(jobs):
    return [(j.job_id, j.start_time, j.end_time, j.state) for j in jobs]


@pytest.mark.parametrize("idle_power_off", [False, True],
                         ids=["idle-on", "idle-off"])
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_accrual_matches_reference_bit_for_bit(scenario, idle_power_off):
    cluster = Cluster(12, PM, idle_power_off=idle_power_off)
    rjms, exercised = scenario(RJMS, cluster)
    new = rjms.run()
    assert exercised(), f"{scenario.__name__} did not exercise its path"
    cluster.check_invariants()

    ref_cluster = ScanCluster(12, PM, idle_power_off=idle_power_off)
    ref = scenario(ReferenceRJMS, ref_cluster)[0].run()

    assert job_times(new.jobs) == job_times(ref.jobs)
    assert cluster.power_segments() == ref_cluster.power_segments()
    assert new.total_energy_kwh == ref.total_energy_kwh
    assert new.total_carbon_kg == ref.total_carbon_kg
    assert new.total_carbon_kg > 0
    assert new.accounts.keys() == ref.accounts.keys()
    for jid, acc in new.accounts.items():
        ref_acc = ref.accounts[jid]
        assert (acc.energy_kwh, acc.carbon_g) == \
            (ref_acc.energy_kwh, ref_acc.carbon_g), f"job {jid}"
