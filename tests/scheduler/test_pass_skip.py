"""Differential oracle: a scheduling pass with nothing pending is skipped.

:class:`AlwaysPassRJMS` keeps the previous scheduling pass, which asked
the policy even with an empty queue.  The RJMS returns at once instead;
it must give the same bits: job start and end times, power segments,
total energy and carbon, and every account's energy and carbon, under
the scenarios of the accrual oracle (FCFS, EASY, moldable resizes,
carbon backfill, checkpoint suspend/resume, PowerStack caps, node
failures and a late start).  Each policy is also asked directly with
nothing pending: it starts nothing and keeps its state.
"""

import pytest

from repro.scheduler import RJMS
from repro.scheduler.rjms import SchedulingContext
from repro.simulator import Cluster
from tests.scheduler.test_accrual_differential import (
    HOUR_S,
    PM,
    SCENARIOS,
    carbon_backfill,
    easy,
    fcfs,
    job_times,
    moldable_resizes,
)


class AlwaysPassRJMS(RJMS):
    """The RJMS with its previous, always-asking scheduling pass."""

    empty_passes = 0

    def _schedule_pass(self) -> None:
        self.empty_passes += not self.pending
        ctx = SchedulingContext(
            now=self.now,
            pending=self.queues.order(self.pending),
            cluster=self.cluster,
            provider=self.provider,
            running=list(self.running.values()),
            expected_end=self._expected_ends(),
        )
        decisions = self.policy.schedule(ctx)
        need = 0
        for d in decisions:
            assert d.job in self.pending
            need += d.n_nodes
        assert need <= self.cluster.n_free
        for d in decisions:
            self._start_job(d.job, d.n_nodes)
        if decisions:
            for mgr in self._managers:
                hook = getattr(mgr, "on_jobs_started", None)
                if hook is not None:
                    hook(self)


@pytest.mark.parametrize("idle_power_off", [False, True],
                         ids=["idle-on", "idle-off"])
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_skipped_passes_change_nothing(scenario, idle_power_off):
    cluster = Cluster(12, PM, idle_power_off=idle_power_off)
    rjms, exercised = scenario(RJMS, cluster)
    new = rjms.run()
    assert exercised(), f"{scenario.__name__} did not exercise its path"

    ref_cluster = Cluster(12, PM, idle_power_off=idle_power_off)
    ref_rjms = scenario(AlwaysPassRJMS, ref_cluster)[0]
    ref = ref_rjms.run()
    assert ref_rjms.empty_passes > 0  # the skip was taken

    assert job_times(new.jobs) == job_times(ref.jobs)
    assert cluster.power_segments() == ref_cluster.power_segments()
    assert new.total_energy_kwh == ref.total_energy_kwh
    assert new.total_carbon_kg == ref.total_carbon_kg
    assert new.accounts.keys() == ref.accounts.keys()
    for jid, acc in new.accounts.items():
        ref_acc = ref.accounts[jid]
        assert (acc.energy_kwh, acc.carbon_g) == \
            (ref_acc.energy_kwh, ref_acc.carbon_g), f"job {jid}"


def snapshot(policy):
    """The policy's attributes, with dict attributes copied shallowly."""
    return {k: (dict(v) if isinstance(v, dict) else v)
            for k, v in vars(policy).items()}


@pytest.mark.parametrize("scenario", [fcfs, easy, moldable_resizes,
                                      carbon_backfill],
                         ids=lambda s: s.__name__)
def test_policy_starts_nothing_with_nothing_pending(scenario):
    """Mid-run, with jobs running and (for the gate) a fitted forecast
    and score rows held, an empty queue gets ``[]`` and leaves every
    attribute of the policy as it was, object for object."""
    rjms = scenario(RJMS, Cluster(12, PM))[0]
    rjms.run(until=30 * HOUR_S)
    assert rjms.running
    policy = rjms.policy
    if scenario is carbon_backfill:
        assert policy._fitted is not None and policy._rows
    before = snapshot(policy)
    ctx = SchedulingContext(
        now=rjms.now, pending=[], cluster=rjms.cluster,
        provider=rjms.provider, running=list(rjms.running.values()),
        expected_end=rjms._expected_ends())
    assert policy.schedule(ctx) == []
    after = snapshot(policy)
    assert after.keys() == before.keys()
    for key, value in before.items():
        if isinstance(value, dict):
            assert after[key].keys() == value.keys(), key
            assert all(after[key][k] is v for k, v in value.items()), key
        else:
            assert after[key] is value, key
