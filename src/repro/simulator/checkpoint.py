"""Checkpoint/restart cost model (§3.3).

Carbon-aware checkpointing "can suspend the execution of the job during
high carbon periods and resume execution when the intensity is low" —
but checkpointing is not free: writing distributed state to the parallel
filesystem takes time (and energy), and so does restoring it.  Whether
suspension pays off is exactly the trade-off the E11 bench sweeps.

The cost model is the standard one: checkpoint time = per-node state
size / per-node effective PFS bandwidth, plus a fixed coordination
overhead; restore is symmetric with its own bandwidth (reads usually
faster than writes).  During a checkpoint/restore the job's nodes are
busy (drawing power) but make no progress.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulator.jobs import Job
from repro import units

__all__ = ["CheckpointModel"]


@dataclass(frozen=True)
class CheckpointModel:
    """Cost model for suspend/resume of a job.

    Parameters
    ----------
    state_gb_per_node:
        Application state volume to persist, per node.
    write_bw_gb_s / read_bw_gb_s:
        Effective per-node bandwidth to the parallel filesystem
        (contention-adjusted).
    fixed_overhead_s:
        Coordination cost (quiesce, barrier, metadata) per operation.
    """

    state_gb_per_node: float = 32.0
    write_bw_gb_s: float = 1.0
    read_bw_gb_s: float = 2.0
    fixed_overhead_s: float = 30.0

    def __post_init__(self) -> None:
        if self.state_gb_per_node < 0:
            raise ValueError("state size must be non-negative")
        if self.write_bw_gb_s <= 0 or self.read_bw_gb_s <= 0:
            raise ValueError("bandwidths must be positive")
        if self.fixed_overhead_s < 0:
            raise ValueError("overhead must be non-negative")

    def checkpoint_seconds(self, job: Job) -> float:
        """Wall time to checkpoint ``job`` (independent of node count:
        every node writes its own state in parallel)."""
        return self.fixed_overhead_s + self.state_gb_per_node / self.write_bw_gb_s

    def restore_seconds(self, job: Job) -> float:
        """Wall time to restore ``job`` on resume."""
        return self.fixed_overhead_s + self.state_gb_per_node / self.read_bw_gb_s

    def round_trip_seconds(self, job: Job) -> float:
        """Total overhead of one suspend/resume cycle."""
        return self.checkpoint_seconds(job) + self.restore_seconds(job)

    def worthwhile(self, job: Job, high_ci: float, low_ci: float,
                   suspend_duration_s: float, node_power_w: float) -> bool:
        """First-order test: does suspending save carbon at all?

        Compares carbon saved by shifting the suspended work from
        ``high_ci`` to ``low_ci`` against the carbon of the extra
        checkpoint/restore node-time.  The scheduler uses this as a
        cheap pre-filter before committing to a suspension.
        """
        if suspend_duration_s <= 0:
            return False
        if high_ci <= low_ci:
            return False
        kwh_shifted = (node_power_w * job.nodes_requested
                       * suspend_duration_s / units.JOULES_PER_KWH)
        saved_g = kwh_shifted * (high_ci - low_ci)
        kwh_overhead = (node_power_w * job.nodes_requested
                        * self.round_trip_seconds(job) / units.JOULES_PER_KWH)
        cost_g = kwh_overhead * high_ci
        return saved_g > cost_g
