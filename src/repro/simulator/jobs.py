"""Job model: rigid, moldable, and malleable jobs with exact progress.

Terminology follows the paper (§3.2) and Feitelson's classic taxonomy:

* **rigid** — node count fixed by the user at submission;
* **moldable** — the scheduler picks the node count at start, then it is
  fixed;
* **malleable** — "node assignments are agnostic and dynamically
  changeable at runtime" — the §3.2 enabler.

A job carries *work*, measured in reference-node-seconds: the runtime it
would need on its requested allocation at full speed.  While running, it
makes progress at ``rate = resize_factor * perf_factor`` where
``resize_factor`` comes from the speedup curve (Amdahl) relative to the
requested allocation and ``perf_factor`` from the node power cap.  The
progress integrator is exact for piecewise-constant rates: every event
that changes the rate first banks the progress accrued since the last
change (:meth:`Job.advance_to`), then changes the rate.

Jobs also model the §3.4 over-allocation pathology: ``nodes_used`` may
be smaller than ``nodes_requested``, in which case the surplus nodes
burn power without contributing work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["JobState", "JobKind", "SpeedupModel", "Job"]


class JobState(enum.Enum):
    """Lifecycle of a job in the RJMS."""

    PENDING = "pending"
    RUNNING = "running"
    SUSPENDED = "suspended"
    COMPLETED = "completed"
    CANCELLED = "cancelled"


class JobKind(enum.Enum):
    """Feitelson taxonomy subset used by the paper."""

    RIGID = "rigid"
    MOLDABLE = "moldable"
    MALLEABLE = "malleable"


@dataclass(frozen=True)
class SpeedupModel:
    """Amdahl-style strong-scaling curve.

    ``speedup(n) = 1 / ((1-p) + p/n)`` with parallel fraction ``p``.
    ``p = 1`` is perfect scaling (embarrassingly parallel); typical HPC
    applications sit at 0.95-0.999.
    """

    parallel_fraction: float = 0.98

    def __post_init__(self) -> None:
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ValueError("parallel_fraction must be in [0, 1]")

    def speedup(self, n_nodes: int) -> float:
        """Speedup on ``n_nodes`` relative to one node."""
        if n_nodes < 1:
            raise ValueError("need at least one node")
        p = self.parallel_fraction
        return 1.0 / ((1.0 - p) + p / n_nodes)

    def efficiency(self, n_nodes: int) -> float:
        """Parallel efficiency (speedup / nodes)."""
        return self.speedup(n_nodes) / n_nodes

    def resize_factor(self, n_now: int, n_ref: int) -> float:
        """Progress-rate ratio of running on ``n_now`` vs ``n_ref`` nodes."""
        return self.speedup(n_now) / self.speedup(n_ref)


@dataclass
class Job:
    """One batch job.

    Parameters
    ----------
    job_id:
        Unique identifier.
    submit_time:
        Arrival time at the RJMS (seconds).
    nodes_requested:
        Allocation size the user asked for.
    runtime_estimate:
        The user's walltime estimate (seconds) — what backfilling trusts.
    work_seconds:
        True compute demand: runtime on ``nodes_used`` of the requested
        allocation at full speed. Usually < runtime_estimate (users pad).
    kind:
        Rigid / moldable / malleable.
    min_nodes / max_nodes:
        Resize bounds for moldable/malleable jobs.
    nodes_used:
        Nodes that actually contribute work (§3.4 over-allocation:
        ``nodes_used <= nodes_requested``; the rest idle-burn).
    utilization:
        CPU/GPU utilization of the working nodes (drives power).
    suspendable:
        Whether carbon-aware checkpointing (§3.3) may suspend it.
    project / user:
        Accounting identifiers (§3.4).
    """

    job_id: int
    submit_time: float
    nodes_requested: int
    runtime_estimate: float
    work_seconds: float
    kind: JobKind = JobKind.RIGID
    speedup: SpeedupModel = field(default_factory=SpeedupModel)
    min_nodes: int = 0
    max_nodes: int = 0
    nodes_used: int = 0
    utilization: float = 0.85
    suspendable: bool = False
    project: str = "default"
    user: str = "user0"

    # dynamic state
    state: JobState = field(default=JobState.PENDING, init=False)
    nodes_allocated: int = field(default=0, init=False)
    start_time: Optional[float] = field(default=None, init=False)
    end_time: Optional[float] = field(default=None, init=False)
    remaining_work: float = field(default=0.0, init=False)
    current_rate: float = field(default=0.0, init=False)
    last_progress_time: float = field(default=0.0, init=False)
    perf_factor: float = field(default=1.0, init=False)
    n_suspensions: int = field(default=0, init=False)
    suspended_seconds: float = field(default=0.0, init=False)
    n_restarts: int = field(default=0, init=False)
    suspended_since: Optional[float] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.nodes_requested < 1:
            raise ValueError("jobs need at least one node")
        if self.runtime_estimate <= 0 or self.work_seconds <= 0:
            raise ValueError("runtime estimate and work must be positive")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError("utilization must be in (0, 1]")
        if self.min_nodes == 0:
            self.min_nodes = (self.nodes_requested
                              if self.kind is JobKind.RIGID else 1)
        if self.max_nodes == 0:
            self.max_nodes = self.nodes_requested
        if not 1 <= self.min_nodes <= self.max_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        if self.kind is JobKind.RIGID and (
                self.min_nodes != self.nodes_requested
                or self.max_nodes != self.nodes_requested):
            raise ValueError("rigid jobs cannot have resize bounds")
        if self.nodes_used == 0:
            self.nodes_used = self.nodes_requested
        if not 1 <= self.nodes_used <= self.nodes_requested:
            raise ValueError("nodes_used must be in [1, nodes_requested]")
        self.remaining_work = self.work_seconds

    # -- derived ---------------------------------------------------------------

    @property
    def is_malleable(self) -> bool:
        return self.kind is JobKind.MALLEABLE

    @property
    def wait_time(self) -> float:
        """Queue wait (start - submit); raises if not yet started."""
        if self.start_time is None:
            raise ValueError(f"job {self.job_id} has not started")
        return self.start_time - self.submit_time

    @property
    def turnaround(self) -> float:
        if self.end_time is None:
            raise ValueError(f"job {self.job_id} has not finished")
        return self.end_time - self.submit_time

    def rate_for(self, n_nodes: int, perf_factor: float) -> float:
        """Progress rate on ``n_nodes`` working nodes at ``perf_factor``.

        Rate 1.0 = reference speed (requested working set, uncapped).
        Malleable jobs use every node they are given (that is the point
        of malleability); rigid jobs cap useful nodes at ``nodes_used``
        — the §3.4 over-allocation pathology where surplus nodes burn
        power without contributing progress.
        """
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if self.is_malleable:
            return self.speedup.resize_factor(
                n_nodes, self.nodes_requested) * perf_factor
        working = min(n_nodes, self.nodes_used)
        return self.speedup.resize_factor(working, self.nodes_used) * perf_factor

    # -- progress integrator ------------------------------------------------------

    def advance_to(self, now: float) -> None:
        """Bank progress accrued since the last rate change."""
        if self.state is not JobState.RUNNING:
            self.last_progress_time = now
            return
        dt = now - self.last_progress_time
        if dt < -1e-9:
            raise ValueError("time went backwards")
        self.remaining_work = max(0.0, self.remaining_work
                                  - dt * self.current_rate)
        self.last_progress_time = now

    def eta(self, now: float) -> float:
        """Absolute completion time at the current rate (inf if stalled)."""
        if self.state is not JobState.RUNNING:
            return float("inf")
        pending = max(0.0, self.remaining_work
                      - (now - self.last_progress_time) * self.current_rate)
        if self.current_rate <= 0:
            return float("inf") if pending > 0 else now
        return now + pending / self.current_rate

    # -- state transitions ---------------------------------------------------------

    def start(self, now: float, n_nodes: int, perf_factor: float = 1.0) -> None:
        """PENDING -> RUNNING on ``n_nodes``."""
        if self.state is not JobState.PENDING:
            raise ValueError(f"job {self.job_id} cannot start from {self.state}")
        if not self.min_nodes <= n_nodes <= self.max_nodes:
            raise ValueError(
                f"allocation {n_nodes} outside [{self.min_nodes}, {self.max_nodes}]")
        self.state = JobState.RUNNING
        self.nodes_allocated = n_nodes
        self.start_time = now
        self.last_progress_time = now
        self.perf_factor = perf_factor
        self.current_rate = self.rate_for(n_nodes, perf_factor)

    def set_perf_factor(self, now: float, perf_factor: float) -> None:
        """Change the power-cap performance factor (banks progress first)."""
        if not 0.0 <= perf_factor <= 1.0:
            raise ValueError("perf_factor must be in [0, 1]")
        self.advance_to(now)
        self.perf_factor = perf_factor
        if self.state is JobState.RUNNING:
            self.current_rate = self.rate_for(self.nodes_allocated, perf_factor)

    def resize(self, now: float, n_nodes: int) -> None:
        """Malleable resize (banks progress first)."""
        if not self.is_malleable:
            raise ValueError(f"job {self.job_id} is not malleable")
        if self.state is not JobState.RUNNING:
            raise ValueError("can only resize a running job")
        if not self.min_nodes <= n_nodes <= self.max_nodes:
            raise ValueError(
                f"resize {n_nodes} outside [{self.min_nodes}, {self.max_nodes}]")
        self.advance_to(now)
        self.nodes_allocated = n_nodes
        self.current_rate = self.rate_for(n_nodes, self.perf_factor)

    def suspend(self, now: float) -> None:
        """RUNNING -> SUSPENDED (checkpoint already taken by the caller)."""
        if self.state is not JobState.RUNNING:
            raise ValueError(f"cannot suspend job in state {self.state}")
        if not self.suspendable:
            raise ValueError(f"job {self.job_id} is not suspendable")
        self.advance_to(now)
        self.state = JobState.SUSPENDED
        self.current_rate = 0.0
        self.nodes_allocated = 0
        self.n_suspensions += 1
        self.suspended_since = now

    def resume(self, now: float, n_nodes: int,
               perf_factor: float = 1.0) -> None:
        """SUSPENDED -> RUNNING."""
        if self.state is not JobState.SUSPENDED:
            raise ValueError(f"cannot resume job in state {self.state}")
        if not self.min_nodes <= n_nodes <= self.max_nodes:
            raise ValueError("resume allocation outside bounds")
        if self.suspended_since is not None:
            self.suspended_seconds += now - self.suspended_since
            self.suspended_since = None
        self.state = JobState.RUNNING
        self.nodes_allocated = n_nodes
        self.last_progress_time = now
        self.perf_factor = perf_factor
        self.current_rate = self.rate_for(n_nodes, perf_factor)

    def complete(self, now: float) -> None:
        """RUNNING -> COMPLETED; requires the work to actually be done."""
        if self.state is not JobState.RUNNING:
            raise ValueError(f"cannot complete job in state {self.state}")
        self.advance_to(now)
        if self.remaining_work > 1e-6:
            raise ValueError(
                f"job {self.job_id} has {self.remaining_work:.1f}s work left")
        self.state = JobState.COMPLETED
        self.end_time = now
        self.current_rate = 0.0
        self.nodes_allocated = 0

    def requeue(self, now: float, lose_progress: bool = True) -> None:
        """RUNNING -> PENDING after a node failure killed the job.

        ``lose_progress`` models whether the application checkpoints on
        its own: a plain MPI job restarts from scratch; a self-
        checkpointing one resumes from its banked progress.
        """
        if self.state is not JobState.RUNNING:
            raise ValueError(f"cannot requeue job in state {self.state}")
        self.advance_to(now)
        if lose_progress:
            self.remaining_work = self.work_seconds
        self.state = JobState.PENDING
        self.nodes_allocated = 0
        self.current_rate = 0.0
        self.n_restarts += 1

    def cancel(self, now: float) -> None:
        """Any live state -> CANCELLED."""
        if self.state in (JobState.COMPLETED, JobState.CANCELLED):
            raise ValueError(f"job already {self.state}")
        self.advance_to(now)
        self.state = JobState.CANCELLED
        self.end_time = now
        self.current_rate = 0.0
        self.nodes_allocated = 0
