"""Carbon-aware checkpoint/restart manager (§3.3).

"For long-running HPC jobs, carbon-aware checkpoint and restore
strategies should be developed.  These strategies can suspend the
execution of the job during high carbon periods and resume execution
when the intensity is low."

This manager runs on the RJMS tick.  Each tick it classifies the current
intensity against trailing-history percentiles (computed once per
distinct history window, not once per tick, from one sort of its samples
by :meth:`~repro.grid.intensity.CarbonIntensityTrace.percentile`, which
follows numpy's ``"linear"`` rule bit for bit, on the window its
:class:`~repro.grid.providers.TrailingHistory` holds):

* above the ``suspend_percentile`` -> suspend suspendable running jobs
  (largest allocations first — most carbon moved per checkpoint), if
  the first-order :meth:`~repro.simulator.checkpoint.CheckpointModel.worthwhile`
  test passes and the job has not exceeded its suspension budget;
* below the ``resume_percentile`` -> resume suspended jobs while nodes
  are free (FIFO by suspension time).

Guards against pathological churn: a per-job cap on suspensions, a
minimum remaining-work threshold (no point checkpointing a nearly done
job), and a maximum total suspended time per job (bounded stretch).
"""

from __future__ import annotations

from typing import Dict

from repro.grid.intensity import CarbonIntensityTrace
from repro.grid.providers import TrailingHistory
from repro.scheduler.rjms import RJMS
from repro.simulator.jobs import Job, JobState
from repro import units

__all__ = ["CarbonCheckpointPolicy"]


class CarbonCheckpointPolicy:
    """Tick-driven suspend/resume manager (register with the RJMS).

    Parameters
    ----------
    suspend_percentile / resume_percentile:
        Intensity percentiles (of trailing history) that trigger
        suspension / resumption. Hysteresis requires
        ``resume_percentile < suspend_percentile``.
    history_s:
        Trailing window used for the percentile baseline.
    max_suspensions_per_job:
        Per-job churn cap.
    min_remaining_s:
        Do not suspend jobs with less remaining work than this.
    max_suspended_s:
        Do not keep a job suspended beyond this total (stretch bound);
        when exceeded the job resumes at the next opportunity regardless
        of intensity.
    """

    def __init__(self, suspend_percentile: float = 80.0,
                 resume_percentile: float = 50.0,
                 history_s: float = 7 * units.SECONDS_PER_DAY,
                 max_suspensions_per_job: int = 4,
                 min_remaining_s: float = 1800.0,
                 max_suspended_s: float = 24 * units.SECONDS_PER_HOUR) -> None:
        if not 0 < resume_percentile < suspend_percentile < 100:
            raise ValueError(
                "need 0 < resume_percentile < suspend_percentile < 100")
        if history_s <= 0 or min_remaining_s < 0 or max_suspended_s <= 0:
            raise ValueError("invalid window/threshold parameters")
        if max_suspensions_per_job < 1:
            raise ValueError("max_suspensions_per_job must be >= 1")
        self.suspend_percentile = float(suspend_percentile)
        self.resume_percentile = float(resume_percentile)
        self.history_s = float(history_s)
        self.max_suspensions_per_job = int(max_suspensions_per_job)
        self.min_remaining_s = float(min_remaining_s)
        self.max_suspended_s = float(max_suspended_s)
        #: suspension order for FIFO resume
        self._suspend_seq: Dict[int, int] = {}
        self._seq = 0
        self._history = TrailingHistory(self.history_s,
                                        6 * units.SECONDS_PER_HOUR)
        #: the last history window and its (suspend, resume) thresholds
        self._last: tuple[CarbonIntensityTrace,
                          tuple[float, float]] | None = None

    # -- intensity classification ------------------------------------------------

    def _thresholds(self, rjms: RJMS) -> tuple[float, float] | None:
        """``(suspend_above, resume_below)`` percentiles of the trailing
        history, both from one :meth:`CarbonIntensityTrace.percentile`
        call (one sort); recomputed only when the history object changes
        (the window moves in whole samples, not every tick)."""
        hist = self._history.at(rjms.provider, rjms.now)
        if hist is None:
            return None  # not enough history
        if self._last is None or self._last[0] is not hist:
            self._last = (hist, hist.percentile(
                (self.suspend_percentile, self.resume_percentile)))
        return self._last[1]

    # -- manager hook -------------------------------------------------------------

    def on_tick(self, rjms: RJMS) -> None:
        th = self._thresholds(rjms)
        if th is None:
            return
        suspend_above, resume_below = th
        ci_now = rjms.provider.intensity_at(rjms.now)

        # 1) forced resumes (stretch bound) and green resumes
        for job in sorted(rjms.suspended.values(),
                          key=lambda j: self._suspend_seq.get(j.job_id, 0)):
            overdue = self._time_suspended(rjms, job) >= self.max_suspended_s
            if (ci_now <= resume_below or overdue) \
                    and rjms.cluster.n_free >= job.nodes_requested:
                rjms.resume_job(job)

        # 2) suspensions during red periods
        if ci_now < suspend_above:
            return
        node_power = rjms.cluster.power_model.peak_watts
        candidates = [
            j for j in rjms.running.values()
            if j.suspendable
            and j.state is JobState.RUNNING
            and not rjms.in_phase(j)
            and j.n_suspensions < self.max_suspensions_per_job
            and j.remaining_work >= self.min_remaining_s
        ]
        candidates.sort(key=lambda j: -j.nodes_allocated)
        for job in candidates:
            expected_green_wait = self._expected_wait(rjms)
            if rjms.checkpoint_model.worthwhile(
                    job, high_ci=ci_now, low_ci=resume_below,
                    suspend_duration_s=expected_green_wait,
                    node_power_w=node_power):
                rjms.suspend_job(job)
                self._seq += 1
                self._suspend_seq[job.job_id] = self._seq

    def _expected_wait(self, rjms: RJMS) -> float:
        """Crude expected suspension length: half a day (one CI cycle)."""
        return 12 * units.SECONDS_PER_HOUR

    @staticmethod
    def _time_suspended(rjms: RJMS, job: Job) -> float:
        if job.suspended_since is None:
            return 0.0
        return rjms.now - job.suspended_since
