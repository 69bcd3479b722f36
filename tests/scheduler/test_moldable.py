"""Tests for the moldable EASY backfill policy (§3.2 taxonomy)."""

import pytest

from repro.scheduler import (
    RJMS,
    MalleabilityManager,
    MoldableEasyBackfillPolicy,
)
from repro.simulator import Cluster, Job, JobKind, JobState, SpeedupModel

HOUR = 3600.0


def rigid(job_id, submit, nodes, work):
    return Job(job_id=job_id, submit_time=submit, nodes_requested=nodes,
               runtime_estimate=work * 1.5, work_seconds=work)


def moldable(job_id, submit, nodes, work, min_nodes=1):
    return Job(job_id=job_id, submit_time=submit, nodes_requested=nodes,
               runtime_estimate=work * 3, work_seconds=work,
               kind=JobKind.MOLDABLE, min_nodes=min_nodes,
               max_nodes=nodes, speedup=SpeedupModel(1.0))


class TestMolding:
    def test_blocked_moldable_head_starts_small(self, node_power_model):
        """A moldable job that would block starts on the free nodes."""
        jobs = [rigid(1, 0.0, 6, 4 * HOUR),
                moldable(2, 60.0, 8, 2 * HOUR)]
        # fraction 0.25 -> floor 2 nodes, matching the 2 free ones
        rjms = RJMS(Cluster(8, node_power_model), jobs,
                    MoldableEasyBackfillPolicy(min_start_fraction=0.25))
        rjms.run()
        # job 2 started long before job 1's 4h completion
        assert jobs[1].start_time < HOUR
        # ...on the 2 free nodes
        assert jobs[1].state is JobState.COMPLETED

    def test_rigid_head_still_blocks(self, node_power_model):
        jobs = [rigid(1, 0.0, 6, 2 * HOUR),
                rigid(2, 60.0, 8, HOUR)]
        rjms = RJMS(Cluster(8, node_power_model), jobs,
                    MoldableEasyBackfillPolicy())
        rjms.run()
        assert jobs[1].start_time >= 2 * HOUR - 60.0

    def test_min_start_fraction_respected(self, node_power_model):
        """With min_start_fraction=1.0 molding is disabled entirely."""
        jobs = [rigid(1, 0.0, 6, 2 * HOUR),
                moldable(2, 60.0, 8, HOUR)]
        strict = MoldableEasyBackfillPolicy(min_start_fraction=1.0)
        rjms = RJMS(Cluster(8, node_power_model), jobs, strict)
        rjms.run()
        assert jobs[1].start_time >= 2 * HOUR - 60.0

    def test_min_nodes_respected(self, node_power_model):
        """A moldable job whose min_nodes exceed the free nodes waits."""
        jobs = [rigid(1, 0.0, 6, 2 * HOUR),
                moldable(2, 60.0, 8, HOUR, min_nodes=4)]
        rjms = RJMS(Cluster(8, node_power_model), jobs,
                    MoldableEasyBackfillPolicy(min_start_fraction=0.1))
        rjms.run()
        # only 2 nodes free < min_nodes 4 -> had to wait for job 1
        assert jobs[1].start_time >= 2 * HOUR - 60.0

    def test_molded_job_runs_longer(self, node_power_model):
        """Molding trades start time against run time (fewer nodes)."""
        jobs = [rigid(1, 0.0, 6, 4 * HOUR),
                moldable(2, 60.0, 8, 2 * HOUR)]
        rjms = RJMS(Cluster(8, node_power_model), jobs,
                    MoldableEasyBackfillPolicy(min_start_fraction=0.25))
        rjms.run()
        started_on = 2  # the free nodes
        # perfect-scaling job on 2 of 8 requested nodes runs 4x longer
        runtime = jobs[1].end_time - jobs[1].start_time
        assert runtime == pytest.approx(2 * HOUR * 8 / started_on,
                                        rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            MoldableEasyBackfillPolicy(min_start_fraction=0.0)


class TestMoldThenGrow:
    def test_malleable_started_small_grows_later(self, node_power_model):
        """The §3.2 full story: mold at start, grow when nodes free up."""
        grow_mgr = MalleabilityManager(
            budget_watts=8 * node_power_model.peak_watts)
        blocker = rigid(1, 0.0, 6, 2 * HOUR)
        flexible = Job(job_id=2, submit_time=60.0, nodes_requested=8,
                       runtime_estimate=30 * HOUR, work_seconds=8 * HOUR,
                       kind=JobKind.MALLEABLE, min_nodes=1, max_nodes=8,
                       speedup=SpeedupModel(0.99))
        rjms = RJMS(Cluster(8, node_power_model), [blocker, flexible],
                    MoldableEasyBackfillPolicy(min_start_fraction=0.25))
        rjms.register_manager(grow_mgr)
        rjms.run()
        assert flexible.start_time < HOUR          # molded start
        assert flexible.state is JobState.COMPLETED
        # it ended while holding more nodes than it started with —
        # wall time shorter than the molded-2-nodes lower bound
        molded_runtime_bound = 8 * HOUR * 8 / 2 * 0.9
        assert (flexible.end_time - flexible.start_time) \
            < molded_runtime_bound
