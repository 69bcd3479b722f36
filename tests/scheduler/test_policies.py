"""Tests for FCFS and EASY backfill scheduling policies."""

import pytest

from repro.scheduler import RJMS, EasyBackfillPolicy, FCFSPolicy
from repro.scheduler.backfill import head_reservation
from repro.scheduler.rjms import SchedulingContext
from repro.simulator import Cluster, Job

HOUR = 3600.0


def job(job_id, submit, nodes, work, estimate=None):
    return Job(job_id=job_id, submit_time=submit, nodes_requested=nodes,
               runtime_estimate=estimate if estimate else work,
               work_seconds=work)


class TestFCFS:
    def test_strict_order_blocks(self, node_power_model):
        """A wide head job blocks a small later job under FCFS.

        All three jobs route to the same queue (>= 3 nodes), so queue
        priority does not reorder them.
        """
        jobs = [
            job(1, 0.0, 8, 2 * HOUR),     # occupies everything
            job(2, 0.0, 8, HOUR),         # head blocker (needs all nodes)
            job(3, 0.0, 3, HOUR),         # small job behind the blocker
        ]
        rjms = RJMS(Cluster(8, node_power_model), jobs, FCFSPolicy())
        rjms.run()
        # FCFS: job 3 must NOT start before job 2
        assert jobs[2].start_time >= jobs[1].start_time

    def test_all_jobs_complete(self, node_power_model, small_workload):
        rjms = RJMS(Cluster(8, node_power_model), small_workload,
                    FCFSPolicy())
        result = rjms.run()
        assert len(result.completed_jobs) == len(small_workload)


class TestEasyBackfill:
    def test_backfills_small_job(self, node_power_model):
        """EASY lets the small job overtake the blocked head."""
        jobs = [
            job(1, 0.0, 8, 2 * HOUR),
            job(2, 60.0, 8, HOUR),
            job(3, 120.0, 1, HOUR),  # fits in the head's shadow
        ]
        rjms = RJMS(Cluster(8, node_power_model), jobs,
                    EasyBackfillPolicy())
        rjms.run()
        assert jobs[2].start_time < jobs[1].start_time

    def test_never_delays_head_job(self, node_power_model):
        """The backfilled job must not push the head's start."""
        jobs = [
            job(1, 0.0, 8, 2 * HOUR, estimate=2 * HOUR),
            job(2, 60.0, 8, HOUR, estimate=HOUR),
            # long narrow job would delay the head if allowed to start:
            job(3, 120.0, 1, 10 * HOUR, estimate=10 * HOUR),
        ]
        rjms = RJMS(Cluster(8, node_power_model), jobs,
                    EasyBackfillPolicy())
        rjms.run()
        # head (job 2) starts when job 1 ends, undelayed
        assert jobs[1].start_time == pytest.approx(2 * HOUR, abs=5.0)

    def test_beats_fcfs_on_wait(self, node_power_model, small_workload):
        import copy

        r_fcfs = RJMS(Cluster(8, node_power_model),
                      copy.deepcopy(small_workload), FCFSPolicy()).run()
        r_easy = RJMS(Cluster(8, node_power_model),
                      copy.deepcopy(small_workload),
                      EasyBackfillPolicy()).run()
        assert r_easy.mean_wait_s <= r_fcfs.mean_wait_s + 1.0

    def test_all_complete(self, node_power_model, small_workload):
        result = RJMS(Cluster(8, node_power_model), small_workload,
                      EasyBackfillPolicy()).run()
        assert len(result.completed_jobs) == len(small_workload)


class TestHeadReservation:
    def _ctx(self, cluster, running, expected_end, now=0.0):
        return SchedulingContext(now=now, pending=[], cluster=cluster,
                                 provider=None, running=running,
                                 expected_end=expected_end)

    def test_immediate_when_fits(self, node_power_model):
        cluster = Cluster(8, node_power_model)
        head = job(1, 0.0, 4, HOUR)
        shadow, spare = head_reservation(
            self._ctx(cluster, [], {}), head, free_now=8)
        assert shadow == 0.0
        assert spare == 4

    def test_waits_for_release(self, node_power_model):
        cluster = Cluster(8, node_power_model)
        r1 = job(10, 0.0, 6, HOUR)
        r1.start(0.0, 6)
        cluster.allocate(10, 6, 0.9)
        head = job(1, 0.0, 6, HOUR)
        shadow, spare = head_reservation(
            self._ctx(cluster, [r1], {10: HOUR}), head, free_now=2)
        assert shadow == HOUR
        assert spare == 2  # 8 free at shadow - 6 needed

    def test_unreachable_reservation(self, node_power_model):
        cluster = Cluster(8, node_power_model)
        head = job(1, 0.0, 8, HOUR)
        # nothing running but only 4 free (suspended jobs hold nothing)
        shadow, spare = head_reservation(
            self._ctx(cluster, [], {}), head, free_now=4)
        assert shadow == float("inf")
