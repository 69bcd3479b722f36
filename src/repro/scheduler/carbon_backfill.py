"""Carbon-aware backfill plugin (§3.3).

"Combined with forecasting techniques that leverage historical carbon
intensity data, these plugins can intelligently backfill submitted jobs
with suitable execution times during green periods."

The policy wraps EASY backfill with a *carbon gate*: a job that could
start now is **held** if (a) the present moment is carbon-expensive
relative to the forecast over the job's feasible start window, and
(b) holding it cannot push it past its delay bound.  Concretely, for
each startable job the policy compares the forecast mean intensity over
``[s0, s0 + runtime]`` against the best achievable mean over start slots
``s0 + k * step`` within the slack window; it holds the job when
starting later saves at least ``min_saving_fraction``.  ``s0`` is where
the forecast starts: the end of the trailing history window, which the
provider rounds up to the first sample boundary at or after now.

Each scheduling pass needs one forecast, on trailing history, far enough
for every pending job.  The forecaster is fit only when that history
differs from the last one it was fit on; otherwise the last forecast is
reused (a prediction depends only on the fitted history, and a longer
one only appends samples).  The slot means of a runtime depend only on
the forecast, so they are kept as one row per runtime until the forecast
object changes; the rows a pass lacks are computed in one 2-D
``mean_over`` call.

Starvation safety: a job whose accumulated wait exceeds ``max_delay_s``
bypasses the gate unconditionally, so the policy degrades to plain EASY
under persistent red skies.  The head job's reservation logic is
untouched — holding is only ever applied to jobs that would *start*,
never to the backfill-window computation, so held capacity is available
to later non-held jobs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.grid.forecast import Forecaster, SeasonalNaiveForecaster
from repro.grid.intensity import CarbonIntensityTrace
from repro.scheduler.backfill import EasyBackfillPolicy
from repro.scheduler.rjms import SchedulerPolicy, SchedulingContext, StartDecision
from repro.simulator.jobs import Job
from repro import units

__all__ = ["CarbonBackfillPolicy"]


class CarbonBackfillPolicy(SchedulerPolicy):
    """EASY backfill with a forecast-driven green-period gate.

    Parameters
    ----------
    forecaster:
        Any :class:`~repro.grid.forecast.Forecaster`; fit on trailing
        history once each pass that has a job to gate. Defaults to
        seasonal-naive (the strong cheap baseline). Pass an oracle for
        the upper bound ablation.
    max_delay_s:
        Hard bound on added queue delay per job (default 12 h).
    min_saving_fraction:
        Hold a job only if the forecast promises at least this relative
        carbon saving (default 5%) — avoids churn on flat signals.
    history_s:
        Length of trailing history used to fit the forecaster.
    min_job_seconds:
        Jobs shorter than this are never held (they cannot exploit a
        green window; churn costs more than it saves).
    """

    def __init__(self, forecaster: Optional[Forecaster] = None,
                 max_delay_s: float = 12 * units.SECONDS_PER_HOUR,
                 min_saving_fraction: float = 0.05,
                 history_s: float = 7 * units.SECONDS_PER_DAY,
                 min_job_seconds: float = 900.0) -> None:
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        if not 0.0 <= min_saving_fraction < 1.0:
            raise ValueError("min_saving_fraction must be in [0, 1)")
        if history_s <= 0:
            raise ValueError("history_s must be positive")
        self.forecaster = forecaster or SeasonalNaiveForecaster()
        self.max_delay_s = float(max_delay_s)
        self.min_saving_fraction = float(min_saving_fraction)
        self.history_s = float(history_s)
        self.min_job_seconds = float(min_job_seconds)
        self._inner = EasyBackfillPolicy()
        #: the last history the forecaster was fit on, and its forecast
        self._fitted: Optional[Tuple[CarbonIntensityTrace,
                                     CarbonIntensityTrace]] = None
        #: slot means per job runtime on the forecast ``_rows_for``:
        #: ``row[k]`` is the mean over ``[s_k, s_k + runtime)``,
        #: ``s_k = start_time + k * step``
        self._rows: Dict[float, np.ndarray] = {}
        self._rows_for: Optional[CarbonIntensityTrace] = None

    # -- carbon gate -----------------------------------------------------------

    def _window(self, ctx: SchedulingContext,
                job: Job) -> Optional[Tuple[float, float]]:
        """``(slack, runtime)`` of a job the gate may hold; None if it must start."""
        slack = self.max_delay_s - (ctx.now - job.submit_time)
        if slack <= 0:
            return None  # starvation guard: start it
        runtime = min(job.runtime_estimate, job.work_seconds * 2)
        if runtime < self.min_job_seconds:
            return None
        return slack, runtime

    def _forecast(self, ctx: SchedulingContext,
                  horizon_s: float) -> Optional[CarbonIntensityTrace]:
        """Forecast of at least ``horizon`` past the end of the trailing
        history; None if infeasible.

        The history window ends at the first sample boundary at or after
        ``now`` (the provider rounds its end up), so the forecast starts
        there, not at ``now``.  Fits only when the trailing history
        differs from the last fitted one.  While it is equal, the last
        forecast (and its cached cumulative integral) is returned as is,
        or predicted further if it is too short.
        """
        t0 = max(0.0, ctx.now - self.history_s)
        if ctx.now - t0 < 2 * units.SECONDS_PER_HOUR:
            return None  # not enough history to say anything
        try:
            history = ctx.provider.history(t0, ctx.now)
        except ValueError:
            return None
        steps = max(1, int(np.ceil(horizon_s / history.step_seconds)) + 1)
        last = self._fitted
        if last is not None and last[0] == history:
            if len(last[1]) >= steps:
                return last[1]
            history = last[0]
        # refit unless the forecaster still holds this very trace (it
        # does, unless another caller shares and refit it)
        if last is None or self.forecaster.history is not history:
            self.forecaster.fit(history)
        forecast = self.forecaster.predict(steps)
        self._fitted = (history, forecast)
        return forecast

    def _score(self, forecast: CarbonIntensityTrace,
               windows: Sequence[Tuple[float, float]]
               ) -> Tuple[List[float], List[float]]:
        """Forecast means of each ``(slack, runtime)`` window's job started
        in the forecast's first slot and at its best start slot within its
        slack.

        Slots lie on the grid ``s_k = forecast.start_time + k * step``,
        which starts at the first sample boundary at or after now (see
        :meth:`_forecast`).  A job's now-mean is its runtime's ``row[0]``
        and its best mean the minimum of the row's first
        ``slack // step + 1`` entries.  Rows are kept per runtime while
        ``forecast`` is the same object; rows missing or too short for a
        window are computed together in one 2-D ``mean_over`` call.  That
        call is elementwise, so every mean has the bits of scoring its
        job alone.  ``forecast`` must reach past ``s_0 + slack + runtime``
        of every window, as :meth:`_forecast` guarantees.
        """
        if forecast is not self._rows_for:
            self._rows_for, self._rows = forecast, {}
        rows = self._rows
        step = forecast.step_seconds
        n_slots = [int(slack // step) + 1 for slack, _ in windows]
        missing: Dict[float, int] = {}  # runtime -> slots it needs
        for n, (_, runtime) in zip(n_slots, windows):
            row = rows.get(runtime)
            if (row is None or row.size < n) and missing.get(runtime, 0) < n:
                missing[runtime] = n
        if missing:
            starts = forecast.start_time \
                + np.arange(max(missing.values())) * step
            runtimes = np.fromiter(missing, np.float64, len(missing))
            rows.update(zip(missing, forecast.mean_over(
                starts, starts + runtimes[:, None])))
        now_means, best_means = [], []
        for n, (_, runtime) in zip(n_slots, windows):
            row = rows[runtime]
            now_means.append(row.item(0))
            best_means.append(row[:n].min().item())
        return now_means, best_means

    def _held(self, forecast: CarbonIntensityTrace, jobs: Iterable[Job],
              windows: Dict[int, Tuple[float, float]]) -> Set[int]:
        """Ids of the ``jobs`` whose start the gate delays: those whose best
        slot promises at least ``min_saving_fraction`` below starting now."""
        ids = [j.job_id for j in jobs if j.job_id in windows]
        if not ids:
            return set()
        now_means, best_means = self._score(forecast,
                                            [windows[i] for i in ids])
        return {i for i, now_mean, best in zip(ids, now_means, best_means)
                if now_mean > 0
                and (now_mean - best) / now_mean >= self.min_saving_fraction}

    # -- policy ------------------------------------------------------------------

    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        base = self._inner.schedule(ctx)
        if not base:
            return base
        if all(self._window(ctx, d.job) is None for d in base):
            return base
        # One forecast for the pass, long enough for every job either
        # inner pass may offer; prefix consistency makes it exact.
        windows = {j.job_id: w for j in ctx.pending
                   if (w := self._window(ctx, j)) is not None}
        forecast = self._forecast(ctx, max(map(sum, windows.values())))
        if forecast is None:
            return base
        held_ids = self._held(forecast, (d.job for d in base), windows)
        if not held_ids:
            return base
        # Holding freed nodes: rerun the inner policy on the reduced
        # queue so non-held jobs may use the capacity (single fixpoint
        # iteration; holding decisions are sticky within this pass).
        reduced = SchedulingContext(
            now=ctx.now,
            pending=[j for j in ctx.pending if j.job_id not in held_ids],
            cluster=ctx.cluster,
            provider=ctx.provider,
            running=ctx.running,
            expected_end=ctx.expected_end,
        )
        second = self._inner.schedule(reduced)
        offered = {d.job.job_id for d in base}
        held_ids = self._held(forecast, (d.job for d in second
                                         if d.job.job_id not in offered),
                              windows)
        return [d for d in second if d.job.job_id not in held_ids]
