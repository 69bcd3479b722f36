"""Multi-queue configuration (§3.4).

"A common strategy employed by most HPC centers for efficient system
management involves configuring multiple queues within the underlying
RJMS software ... characterized by varying job scheduling priorities,
constraints on the number of permissible nodes per job, and maximum job
run times."

:class:`QueueSet` routes a job to the first queue whose limits admit it
(queues ordered from most to least restrictive, the usual site layout),
and supplies the priority key the RJMS keeps the pending queue ordered by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.simulator.jobs import Job
from repro import units

__all__ = ["QueueConfig", "QueueSet", "DEFAULT_QUEUES"]


@dataclass(frozen=True)
class QueueConfig:
    """One RJMS queue/partition.

    Higher ``priority`` schedules earlier.  ``max_nodes`` and
    ``max_walltime_s`` are admission limits.
    """

    name: str
    priority: int
    max_nodes: int
    max_walltime_s: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("queue needs a name")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        if self.max_walltime_s <= 0:
            raise ValueError("max_walltime must be positive")

    def admits(self, job: Job) -> bool:
        """Whether the job fits this queue's limits."""
        return (job.nodes_requested <= self.max_nodes
                and job.runtime_estimate <= self.max_walltime_s)


#: A typical three-queue site layout (test / general / large).
DEFAULT_QUEUES: Tuple[QueueConfig, ...] = (
    QueueConfig("test", priority=100, max_nodes=2, max_walltime_s=2 * units.SECONDS_PER_HOUR),
    QueueConfig("general", priority=50, max_nodes=64,
                max_walltime_s=48 * units.SECONDS_PER_HOUR),
    QueueConfig("large", priority=10, max_nodes=4096,
                max_walltime_s=96 * units.SECONDS_PER_HOUR),
)


class QueueSet:
    """Routes jobs to queues and orders the pending list.

    Jobs are ordered by (queue priority desc, submit time asc, id asc) —
    the deterministic total order every policy in this package assumes.
    The RJMS keeps its pending list in this order by inserting each job
    at its :meth:`sort_key` place; :meth:`order` sorts a whole list and
    stays as the reference that order is checked against (as
    ``tests/scheduler/test_pass_skip.py`` does).
    """

    def __init__(self, queues: Tuple[QueueConfig, ...] = DEFAULT_QUEUES) -> None:
        if not queues:
            raise ValueError("need at least one queue")
        names = [q.name for q in queues]
        if len(set(names)) != len(names):
            raise ValueError("duplicate queue names")
        self.queues = tuple(queues)

    def route(self, job: Job) -> QueueConfig:
        """First admitting queue in declaration order; raises if none."""
        for q in self.queues:
            if q.admits(job):
                return q
        raise ValueError(
            f"job {job.job_id} ({job.nodes_requested} nodes, "
            f"{job.runtime_estimate:.0f}s) fits no queue")

    def sort_key(self, job: Job):
        """Key for ordering the pending queue (lower sorts first)."""
        return (-self.route(job).priority, job.submit_time, job.job_id)

    def order(self, jobs: List[Job]) -> List[Job]:
        """Jobs sorted into scheduling order."""
        return sorted(jobs, key=self.sort_key)
