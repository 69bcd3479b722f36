"""Sweep executor with serial-parity guarantees and a crash-safe harness.

This is the package's one sweep function, behind the ``repro sweep``
and ``repro obs trace`` CLIs and every E-bench grid.  It evaluates
``scenario(**params)`` over a parameter grid in one dispatch loop —
serial in-process, or across a ``ProcessPoolExecutor`` — and merges the
results back in canonical grid order.

Determinism contract (DESIGN.md §5d):

1. **Canonical order** — rows are merged by cell index in
   ``itertools.product`` order, never by completion order.
2. **Index-keyed seeds** — with ``base_seed`` set, each cell receives
   ``derive_seed(base_seed, cell_index)``; seeds are a pure function of
   grid position, so the worker count cannot leak into results.
3. **No harness randomness** — the OS may schedule cells on workers in
   any order without observable effect.

Consequently ``run_sweep(..., workers=k)`` produces rows bit-identical
to ``workers=1`` for every ``k`` (pinned by ``tests/parallel``).

The serial in-process path engages when ``workers`` resolves to 1, when
the grid has a single cell (a pool cannot help), or when the scenario or
its parameters cannot be pickled (closures, lambdas, bound locals);
``SweepStats.mode``/``fallback_reason`` record which.  Failing cells are
captured as :class:`~repro.analysis.sweep.CellFailure` — in non-strict
mode they land on ``result.failures`` while every other cell still
runs (the pool is not poisoned); in strict mode the lowest-index
failure is re-raised as :exc:`~repro.analysis.sweep.SweepCellError`
naming the offending parameters.

Every cell goes out as its own batch, on every path.  The robustness
keywords (``journal_path``/``resume``/``cell_timeout_s``/``retries``/
``chaos``, DESIGN.md §5f) switch on optional parts of that one loop:
an fsync'd journal, retry, watchdog and chaos faults.  Worker-death
recovery is always on: the pool path brackets each cell with start
markers, so a SIGKILL costs at most the cells in flight, and the cell
caught mid-run is retried or quarantined as ``killed`` instead of the
sweep dying with ``BrokenProcessPool``.
"""

from __future__ import annotations

import inspect
import os
import pickle
import shutil
import tempfile
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.analysis.sweep import (
    CellFailure,
    CellQuarantine,
    SweepCellError,
    SweepResult,
    SweepStats,
)
from repro.parallel.grid import expand_grid
from repro.parallel.seeds import derive_seed

__all__ = ["run_sweep"]

#: how `_run_cell` participates in tracing: "off" (the zero-overhead
#: default), "inline" (serial path: spans go straight to the enabled
#: process tracer), or "capture" (pool worker: spans are drained after
#: the cell and shipped back inside its outcome)
_TRACE_OFF, _TRACE_INLINE, _TRACE_CAPTURE = "off", "inline", "capture"

#: floor/ceiling for the watchdog poll period, as a fraction of the
#: cell timeout (poll often enough to catch a hang promptly, never so
#: often that polling itself costs)
_MAX_POLL_S = 0.05
_POLL_TIMEOUT_FRACTION = 0.25


@dataclass
class Outcome:
    """One evaluated attempt of one cell, as the worker side reports it."""

    index: int
    elapsed_s: float
    metrics: Optional[Dict[str, Any]] = None
    error: Optional[BaseException] = None
    traceback_text: str = ""
    #: spans recorded around the cell (pool workers only; serially they
    #: land on the live tracer directly)
    spans: List[dict] = field(default_factory=list)


def _portable_error(error: BaseException,
                    tb_text: str = "") -> BaseException:
    """The exception itself if it survives pickling, else a stand-in.

    Worker exceptions cross a process boundary; an unpicklable one
    (e.g. carrying an open handle) must not take the whole sweep down
    with a ``PicklingError``, so it degrades to a ``RuntimeError``
    carrying the original type name and message — plus, when
    ``tb_text`` is given, the worker-side traceback as a ``__notes__``
    entry (notes live in the instance dict, so they pickle with the
    stand-in and ``CellFailure`` diagnostics keep the real stack
    instead of a bare repr).
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        stand_in = RuntimeError(f"{type(error).__name__}: {error}")
        if tb_text:
            stand_in.add_note(
                "original worker traceback:\n" + tb_text.rstrip())
        return stand_in


def _touch(path: str) -> None:
    with open(path, "w", encoding="utf-8"):
        pass


def _run_cell(scenario: Callable[..., Mapping[str, float]],
              index: int,
              params: Dict[str, Any],
              tracing: str = _TRACE_OFF,
              chaos: Optional[Any] = None,
              attempt: int = 1,
              marker: Optional[str] = None) -> Outcome:
    """Evaluate one attempt of one cell; the worker side of a dispatch.

    Must stay module-level (pickled by reference into pool workers).

    With ``tracing="capture"`` (pool workers) the process tracer is
    enabled, pre-existing spans are discarded (fork copies the parent's
    buffer), and the cell's spans — the ``sweep.cell`` wrapper plus
    whatever the scenario opened inside it — are drained into the
    outcome so the parent can merge one coherent timeline.

    The plan's cell-level ``chaos`` faults fire here, on the worker side
    of the process boundary, before the scenario runs — a ``raise``
    fault is indistinguishable from a scenario exception, a
    ``kill_worker`` fault from a real node loss.  With ``marker`` the
    cell is bracketed by start/finish marker files.
    """
    tracer = obs.get_tracer()
    if tracing == _TRACE_CAPTURE:
        tracer.enable()
        tracer.worker = f"worker-{os.getpid()}"
        tracer.drain()  # drop spans inherited via fork
    if marker is not None:
        _touch(marker)
    t0 = time.perf_counter()
    try:
        if chaos is not None:
            chaos.apply_in_worker(index, attempt)
        if tracing == _TRACE_OFF:
            metrics = dict(scenario(**params))
        else:
            with obs.span("sweep.cell", attrs={"cell_index": index}):
                metrics = dict(scenario(**params))
    except Exception as error:  # cell fault, not harness fault
        tb_text = traceback.format_exc()
        outcome = Outcome(index, time.perf_counter() - t0, None,
                          _portable_error(error, tb_text), tb_text)
    else:
        outcome = Outcome(index, time.perf_counter() - t0, metrics)
    if tracing == _TRACE_CAPTURE:
        outcome.spans = [s.to_dict() for s in tracer.drain()]
    if marker is not None:
        _touch(marker + ".done")
    return outcome


def _pool_obstacle(scenario: Callable[..., Any],
                   cells: Sequence[Dict[str, Any]]) -> Optional[str]:
    """Why the process pool cannot be used, or ``None`` if it can."""
    try:
        pickle.dumps(scenario)
    except Exception:
        return ("scenario is not picklable (closure, lambda, or "
                "locally-defined callable) — ran serially in-process")
    try:
        pickle.dumps(list(cells))
    except Exception:
        return "grid values are not picklable — ran serially in-process"
    return None


def _check_seed_param(scenario: Callable[..., Any]) -> None:
    """Fail early if the scenario cannot accept the injected seed."""
    try:
        sig = inspect.signature(scenario)
    except (TypeError, ValueError):  # builtins, C callables: trust caller
        return
    params = sig.parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD
           for p in params.values()):
        return
    p = params.get("seed")
    if p is None or p.kind is inspect.Parameter.POSITIONAL_ONLY:
        raise ValueError(
            f"base_seed given but scenario {scenario!r} does not accept "
            "a 'seed' keyword argument")


def _merge(names: List[str],
           cells: Sequence[Dict[str, Any]],
           outcomes: List[Outcome],
           metric_names: Optional[Sequence[str]]) -> SweepResult:
    """Fold per-cell outcomes, in cell order, into a SweepResult."""
    resolved: Optional[List[str]] = (list(metric_names)
                                     if metric_names else None)
    result = SweepResult(param_names=names, metric_names=[])
    for o in outcomes:
        if o.error is not None:
            result.failures.append(CellFailure(
                index=o.index, params=dict(cells[o.index]),
                error=o.error, traceback_text=o.traceback_text))
            continue
        assert o.metrics is not None
        if resolved is None:  # first *successful* cell fixes the schema
            resolved = sorted(o.metrics)
        missing = set(resolved) - set(o.metrics)
        if missing:
            raise ValueError(
                f"scenario omitted metrics {sorted(missing)}")
        row = dict(cells[o.index])
        row.update({m: o.metrics[m] for m in resolved})
        result.rows.append(row)
    result.metric_names = resolved or []
    return result


@dataclass
class _Dispatch:
    """The sweep's one dispatch loop, serial or pooled, and its state.
    Every cell attempt is its own dispatch, and every harvested
    :class:`Outcome` goes through :meth:`settle`."""

    scenario: Callable[..., Mapping[str, float]]
    cells: Sequence[Dict[str, Any]]
    params: Sequence[Dict[str, Any]]
    strict: bool
    tracing: str
    retries: int
    cell_timeout_s: Optional[float]
    chaos: Optional[Any]
    journal: Optional[Any] = None
    #: cell attempts still to run: (cell index, attempt)
    pending: Deque[Tuple[int, int]] = field(
        default_factory=deque)
    #: final outcome per cell (replayed, ok, or retries exhausted)
    outcomes: Dict[int, Outcome] = field(default_factory=dict)
    quarantine: Dict[int, CellQuarantine] = field(default_factory=dict)
    #: final-attempt time of every cell this invocation executed
    times: Dict[int, float] = field(default_factory=dict)
    n_retried: int = 0
    n_submitted: int = 0

    def open_journal(self, path: Any, resume: bool, names: List[str],
                     base_seed: Optional[int]) -> int:
        """Open the run's journal and adopt the outcomes it replays."""
        from repro.chaos import journal as wal

        header = wal.make_header(len(self.cells),
                                 wal.grid_hash(names, self.cells),
                                 self.scenario, base_seed)
        self.journal, records = wal.SweepJournal.for_run(path, header,
                                                         resume=resume)
        for index, rec in records.items():
            if rec.get("params_hash") != wal.params_hash(self.params[index]):
                raise wal.JournalError(
                    f"journal cell #{index} was computed with different "
                    "parameters; refusing to replay it")
            # replayed spans are not re-adopted: they belong to the run
            # that recorded them, not to this timeline
            self.outcomes[index] = Outcome(
                index, float(rec.get("elapsed_s", 0.0)),
                rec.get("metrics", {}))
        if records:
            obs.metrics().counter("sweep.journal_replayed_total").inc(
                len(records))
        return len(records)

    def queue(self, index: int, attempt: int) -> None:
        """Queue one cell's attempt, counting the chaos faults it will
        fire.  A free requeue resubmits the same attempt without coming
        back here, so injections are counted once."""
        self.pending.append((index, attempt))
        for f in self.chaos.cell_faults(index, attempt) if self.chaos else ():
            obs.metrics().counter("chaos.faults_injected_total",
                                  labels={"kind": f.kind}).inc()
            with obs.span("chaos.inject",
                          attrs={"kind": f.kind, "cell_index": index,
                                 "attempt": attempt}):
                pass

    def retry(self, index: int, attempt: int) -> bool:
        """Queue the next attempt if budget remains; False when spent."""
        if attempt > self.retries:
            return False
        self.n_retried += 1
        obs.metrics().counter("sweep.cells_retried_total").inc()
        self.queue(index, attempt + 1)
        return True

    def settle(self, o: Outcome, attempt: int) -> bool:
        """Record one harvested attempt as ok, retry, or exhausted;
        True when it was the cell's final failure."""
        self.times[o.index] = o.elapsed_s
        if o.error is None:
            if self.journal is not None:
                self.journal.record_cell(
                    o.index, self.params[o.index], "ok",
                    metrics=o.metrics, elapsed_s=o.elapsed_s,
                    attempt=attempt, spans=o.spans)
            self.outcomes[o.index] = o
            fired = ({f.kind for a in range(1, attempt + 1)
                      for f in self.chaos.cell_faults(o.index, a)}
                     if self.chaos else set())
            for kind in sorted(fired):
                obs.metrics().counter("chaos.faults_recovered_total",
                                      labels={"kind": kind}).inc()
            if attempt > 1:
                obs.metrics().counter("sweep.cells_recovered_total").inc()
            return False
        if self.journal is not None:
            self.journal.record_cell(
                o.index, self.params[o.index], "failed",
                elapsed_s=o.elapsed_s, attempt=attempt,
                error=f"{type(o.error).__name__}: {o.error}",
                traceback_text=o.traceback_text)
        if self.retry(o.index, attempt):
            return False
        # the failure outcome becomes an ordinary CellFailure
        self.outcomes[o.index] = o
        return True

    def quarantine_cell(self, index: int, status: str, attempt: int,
                        detail: str) -> None:
        # the lost attempt delivered no timing
        self.times[index] = 0.0
        self.quarantine[index] = CellQuarantine(
            index=index, params=dict(self.cells[index]), status=status,
            attempts=attempt, detail=detail)
        obs.metrics().counter("sweep.cells_quarantined_total",
                              labels={"status": status}).inc()
        if self.journal is not None:
            self.journal.record_quarantine(
                index, self.params[index], status, attempt, detail)

    def run_serial(self) -> None:
        """In-process loop.  A single process can neither kill its own
        hung cell nor survive killing itself, so ``run_sweep`` rejects
        the watchdog and kill-worker faults before routing here.  Strict
        mode stops at the first final failure, the one it will raise."""
        while self.pending:
            index, attempt = self.pending.popleft()
            o = _run_cell(self.scenario, index, self.params[index],
                          self.tracing, self.chaos, attempt)
            if self.settle(o, attempt) and self.strict:
                return

    def run_pool(self, workers: int) -> None:
        """Pool loop: one pool per round, respawned after a worker death
        or a watchdog kill, until every cell is resolved."""
        marker_dir = tempfile.mkdtemp(prefix="repro-sweep-started-")
        try:
            while self.pending:
                self._pool_round(workers, marker_dir)
        finally:
            shutil.rmtree(marker_dir, ignore_errors=True)

    def _pool_round(self, workers: int, marker_dir: str) -> None:
        timeout_s = self.cell_timeout_s
        poll_s = (None if timeout_s is None
                  else min(_MAX_POLL_S, timeout_s * _POLL_TIMEOUT_FRACTION))
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(self.pending)))
        #: future -> (cell index, attempt, its start-marker path)
        in_flight: Dict[Future, Tuple[int, int, str]] = {}
        running_since: Dict[Future, float] = {}

        def submit_pending() -> bool:
            """Submit every pending attempt; False if the pool is broken.
            Markers are named per submission, so a cell requeued free
            never inherits a stale start marker from its last try."""
            while self.pending:
                index, attempt = self.pending.popleft()
                marker = os.path.join(marker_dir, str(self.n_submitted))
                try:
                    fut = pool.submit(
                        _run_cell, self.scenario, index, self.params[index],
                        self.tracing, self.chaos, attempt, marker)
                except (BrokenProcessPool, RuntimeError):
                    self.pending.append((index, attempt))
                    return False
                self.n_submitted += 1
                in_flight[fut] = (index, attempt, marker)
            return True

        def harvest(fut: Future) -> bool:
            """Settle one finished future; True if its pool had died.

            A dead worker fails *every* outstanding future wholesale,
            so only the cell caught mid-execution — started, never
            finished; a chaos kill fires after the start marker — is
            charged an attempt.  Queued bystanders and
            finished-but-undelivered cells requeue free, uncharged
            (cells are deterministic, so recomputing a lost result is
            bit-identical)."""
            index, attempt, marker = in_flight.pop(fut)
            running_since.pop(fut, None)
            try:
                outcome = fut.result(timeout=0)
            except BrokenProcessPool:
                if (os.path.exists(marker)
                        and not os.path.exists(marker + ".done")):
                    with obs.span("chaos.worker_death",
                                  attrs={"cell_index": index}):
                        pass
                    if not self.retry(index, attempt):
                        self.quarantine_cell(
                            index, "killed", attempt,
                            "worker process died (BrokenProcessPool)")
                else:
                    self.pending.append((index, attempt))
                return True
            except (CancelledError, FuturesTimeoutError):
                self.pending.append((index, attempt))
                return False
            self.settle(outcome, attempt)
            return False

        try:
            broken = not submit_pending()
            while in_flight and not broken:
                done, _ = wait(set(in_flight), timeout=poll_s,
                               return_when=FIRST_COMPLETED)
                for fut in done:
                    broken = harvest(fut) or broken
                if not broken:
                    broken = not submit_pending()  # retries go out now
                if broken or timeout_s is None:
                    continue
                # ``fut.running()`` over-reports (true from the moment an
                # item enters the call queue), so the watchdog clock
                # starts only once the start marker proves a worker
                # actually began the cell
                now_s = time.perf_counter()
                for fut, (_, _, marker) in in_flight.items():
                    if fut not in running_since and os.path.exists(marker):
                        running_since[fut] = now_s
                victim = min(running_since, key=running_since.__getitem__,
                             default=None)
                if (victim is None
                        or now_s - running_since[victim] <= timeout_s):
                    continue
                # -- watchdog: quarantine the longest-overdue cell ----------
                index, attempt, _ = in_flight.pop(victim)
                self.quarantine_cell(index, "timed_out", attempt,
                                     f"exceeded cell_timeout_s={timeout_s:g}")
                obs.metrics().counter("sweep.worker_deaths_total").inc()
                with obs.span("chaos.watchdog_kill",
                              attrs={"cell_index": index}):
                    pass
                # harvest bystanders that finished between the wait()
                # and now: their results are real, and discarding them
                # would re-run the cells and duplicate their journal
                # records; innocents still in flight requeue with no
                # attempt charged — the harness, not the cell, is
                # killing their worker
                for fut in [f for f in in_flight if f.done()]:
                    harvest(fut)
                for index, attempt, _ in in_flight.values():
                    self.pending.append((index, attempt))
                in_flight.clear()
                for proc in list(getattr(pool, "_processes", {}).values()):
                    proc.kill()
            # classify whatever the dead pool still owed us
            for fut in list(in_flight):
                harvest(fut)
            if broken:
                obs.metrics().counter("sweep.worker_deaths_total").inc()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def run_sweep(scenario: Callable[..., Mapping[str, float]],
              grid: Mapping[str, Sequence[Any]],
              metric_names: Optional[Sequence[str]] = None,
              *,
              workers: Optional[int] = 1,
              strict: bool = True,
              base_seed: Optional[int] = None,
              journal_path: Optional[str] = None,
              resume: bool = False,
              cell_timeout_s: Optional[float] = None,
              retries: int = 0,
              chaos: Optional[Any] = None) -> SweepResult:
    """Evaluate ``scenario`` over ``grid``, optionally across processes.

    ``scenario(**params)`` must return a mapping of metric name ->
    value; metric names are taken from the first successful row unless
    given, and parameter order follows the grid's key order.
    ``workers=1`` (the default) runs serially in-process; ``workers=N``
    shards the grid across a process pool, and ``workers=None`` or
    ``0`` sizes the pool to the machine.  Non-strict runs collect
    failing cells on ``result.failures``; strict runs raise
    :exc:`~repro.analysis.sweep.SweepCellError`.  With ``base_seed``
    each cell also receives ``seed=derive_seed(base_seed, index)``.
    With :mod:`repro.obs` tracing enabled every cell is wrapped in a
    ``sweep.cell`` span, pool spans included; tracing never changes
    the rows.

    Every cell goes out as its own dispatch, and a worker killed
    mid-cell costs that cell an attempt (quarantined as ``killed`` once
    ``retries`` is spent) rather than the sweep.  The robustness
    keywords (``journal_path``/``resume``/``cell_timeout_s``/
    ``retries``/``chaos``) add an fsync'd journal, watchdog, retry and
    chaos faults to the same loop, so their rows cannot drift from
    plain rows.
    """
    if workers is None or workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0 or None, got {workers}")
    if resume and journal_path is None:
        raise ValueError("resume=True needs journal_path: the journal "
                         "is what a resumed run replays")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if cell_timeout_s is not None and cell_timeout_s <= 0:
        raise ValueError(
            f"cell_timeout_s must be positive, got {cell_timeout_s}")
    names, cells = expand_grid(grid)
    if base_seed is not None:
        _check_seed_param(scenario)

    def call_params(index: int) -> Dict[str, Any]:
        p = dict(cells[index])
        if base_seed is not None:
            p["seed"] = derive_seed(base_seed, index)
        return p

    params = [call_params(i) for i in range(len(cells))]

    mode = "process-pool" if workers > 1 else "serial"
    fallback_reason: Optional[str] = None
    if workers > 1:
        if len(cells) == 1:
            mode, fallback_reason = "serial-fallback", (
                "single-cell grid — a pool cannot help")
        else:
            obstacle = _pool_obstacle(scenario, params)
            if obstacle is not None:
                mode, fallback_reason = "serial-fallback", obstacle
    pooled = mode == "process-pool"

    if not pooled:
        # journal/resume/retry/raise-faults all work in-process, but a
        # single process can neither kill its own hung cell nor
        # survive killing itself
        why = fallback_reason or f"workers={workers} runs in-process"
        if cell_timeout_s is not None:
            raise ValueError(
                f"cell_timeout_s needs a process pool ({why}); the "
                "watchdog cannot kill a hung cell in its own process")
        if chaos is not None and getattr(chaos, "has_kill_faults",
                                         False):
            raise ValueError(
                f"kill_worker chaos faults need a process pool ({why}); "
                "SIGKILLing the only process would kill the sweep")

    tracer = obs.get_tracer()
    if not tracer.enabled:
        tracing = _TRACE_OFF
    elif pooled:
        tracing = _TRACE_CAPTURE
    else:
        tracing = _TRACE_INLINE

    t0 = time.perf_counter()
    with obs.span("sweep.run", attrs={"n_cells": len(cells),
                                      "workers": workers, "mode": mode}):
        run = _Dispatch(scenario, cells, params, strict, tracing,
                        retries, cell_timeout_s, chaos)
        n_replayed = (run.open_journal(journal_path, resume, names,
                                       base_seed)
                      if journal_path is not None else 0)
        for i in range(len(cells)):
            if i not in run.outcomes:
                run.queue(i, 1)
        try:
            if pooled:
                run.run_pool(workers)
            else:
                run.run_serial()
        finally:
            if run.journal is not None:
                run.journal.close()
        outcomes = [run.outcomes[i] for i in sorted(run.outcomes)]
        if tracing == _TRACE_CAPTURE:
            # one merged timeline: adopt worker spans in cell order
            for o in outcomes:
                tracer.adopt(o.spans)
    wall_s = time.perf_counter() - t0

    result = _merge(names, cells, outcomes, metric_names)
    result.quarantined = [run.quarantine[i] for i in sorted(run.quarantine)]
    result.stats = SweepStats(
        n_cells=len(cells), n_dispatches=run.n_submitted if pooled else 1,
        workers=workers, mode=mode, wall_s=wall_s,
        cell_times_s=[run.times[i] for i in sorted(run.times)],
        fallback_reason=fallback_reason, n_replayed=n_replayed,
        n_executed=len(run.times), n_retried=run.n_retried,
        journal_path=(str(journal_path) if journal_path is not None
                      else None))
    if strict and result.failures:
        first = min(result.failures, key=lambda fl: fl.index)
        raise SweepCellError(first) from first.error
    return result
