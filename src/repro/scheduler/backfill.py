"""EASY backfilling — the standard production scheduling baseline.

EASY (Extensible Argonne Scheduling sYstem) semantics: start jobs in
order while they fit; when the head job does not fit, compute its
*reservation* (the earliest time enough nodes will be free, assuming
running jobs end at their user estimates), then allow later jobs to
jump ahead only if they cannot delay that reservation — either they
finish before the reservation time, or they use only nodes the head job
will not need ("spare" nodes).

This is the carbon-blind workhorse of SLURM-like RJMS software and the
baseline the carbon-aware plugin (§3.3) extends.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.scheduler.rjms import SchedulerPolicy, SchedulingContext, StartDecision
from repro.simulator.jobs import Job, JobKind

__all__ = ["EasyBackfillPolicy", "MoldableEasyBackfillPolicy",
           "head_reservation"]


def head_reservation(ctx: SchedulingContext, head: Job,
                     free_now: int) -> Tuple[float, int]:
    """(shadow_time, spare_nodes) for the head job.

    ``shadow_time`` is when the head job can start, assuming running
    jobs release their nodes at their expected ends; ``spare_nodes`` is
    how many nodes remain free at that moment beyond the head's need.
    """
    need = head.nodes_requested - free_now
    if need <= 0:
        return ctx.now, free_now - head.nodes_requested
    # accumulate releases in expected-end order
    releases = sorted(
        ((ctx.expected_end[j.job_id], j.nodes_allocated) for j in ctx.running),
        key=lambda r: r[0])
    avail = free_now
    for end_time, nodes in releases:
        avail += nodes
        if avail >= head.nodes_requested:
            return end_time, avail - head.nodes_requested
    # running jobs alone can never free enough (suspended jobs hold no
    # nodes, so this can happen transiently); fall back to "far future"
    return float("inf"), 0


class EasyBackfillPolicy(SchedulerPolicy):
    """EASY backfill: aggressive, but never delays the head job."""

    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        decisions: List[StartDecision] = []
        free = ctx.cluster.n_free
        queue = list(ctx.pending)

        # Phase 1: start in order while jobs fit.
        while queue and queue[0].nodes_requested <= free:
            job = queue.pop(0)
            decisions.append(StartDecision(job, job.nodes_requested))
            free -= job.nodes_requested
        # Phase 2: backfill behind the blocked head.
        decisions.extend(self.backfill(ctx, queue, free))
        return decisions

    def backfill(self, ctx: SchedulingContext, queue: List[Job],
                 free: int) -> List[StartDecision]:
        """Starts for the jobs behind the blocked head ``queue[0]`` that
        fit in ``free`` nodes and cannot delay the head's reservation."""
        decisions: List[StartDecision] = []
        if not queue:
            return decisions
        head = queue[0]
        shadow, spare = head_reservation(ctx, head, free)
        for job in queue[1:]:
            if job.nodes_requested > free:
                continue
            fits_time = ctx.now + job.runtime_estimate <= shadow
            fits_spare = job.nodes_requested <= spare
            if fits_time or fits_spare:
                decisions.append(StartDecision(job, job.nodes_requested))
                free -= job.nodes_requested
                if not fits_time:
                    spare -= job.nodes_requested
        return decisions


class MoldableEasyBackfillPolicy(EasyBackfillPolicy):
    """EASY backfill that *molds* blocked resizable jobs (§3.2).

    When the head job does not fit at its requested size but is moldable
    or malleable and at least ``min_start_fraction`` of its request (and
    its ``min_nodes``) is free, it starts small instead of blocking the
    queue.  A malleable job started small is later grown by the
    :class:`~repro.scheduler.malleable.MalleabilityManager`; a moldable
    one keeps the molded size — the Feitelson taxonomy distinction.
    """

    #: tells the RJMS this policy can start resizable jobs below
    #: their requested size (affects the deadlock pre-check)
    can_mold = True

    def __init__(self, min_start_fraction: float = 0.5) -> None:
        if not 0.0 < min_start_fraction <= 1.0:
            raise ValueError("min_start_fraction must be in (0, 1]")
        self.min_start_fraction = float(min_start_fraction)

    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        decisions: List[StartDecision] = []
        free = ctx.cluster.n_free
        queue = list(ctx.pending)

        while queue:
            job = queue[0]
            if job.nodes_requested <= free:
                queue.pop(0)
                decisions.append(StartDecision(job, job.nodes_requested))
                free -= job.nodes_requested
                continue
            # blocked head: try molding it down
            moldable = job.kind in (JobKind.MOLDABLE, JobKind.MALLEABLE)
            floor = max(job.min_nodes,
                        int(job.nodes_requested * self.min_start_fraction))
            if moldable and 1 <= floor <= free:
                queue.pop(0)
                n = min(free, job.nodes_requested)
                decisions.append(StartDecision(job, n))
                free -= n
                continue
            break  # truly blocked: fall through to backfill

        decisions.extend(self.backfill(ctx, queue, free))
        return decisions
