"""Measuring runs: end-to-end metrics untraced, per-layer metrics traced.

An untraced run simulates pool entries back to back for ``seconds``
(whole sweeps, for ``sweep``), the reference entry first, and checks
every simulation's outputs against ``golden.json``.  Its times are host
seconds scaled to the reference host speed by the samples of
``hostspeed.py``: around and during every simulation and its builds,
around every sweep (a sample during one would compete with its pool
workers for the CPUs).  A traced run attaches the probes of
``layers.py`` to one pool entry and repeats it for ``seconds`` (at least
twice); its count metrics must repeat exactly across passes.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Tuple

import hostspeed
import layers
from repro import obs
from repro.parallel.executor import run_sweep
from repro.parallel.grid import expand_grid
from repro.parallel.seeds import derive_seed
from workloads import (
    POOL,
    SWEEP_CELL_JOBS,
    SWEEP_GRID,
    SWEEP_WORKERS,
    Outcome,
    Workload,
    outcome_of,
    run_order,
    sweep_cell,
)

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")

#: builds timed after each simulation; ``setup_s`` is their median
SETUP_BUILDS = 5
#: relative tolerance of the golden energy and carbon totals: prefix
#: sums or reordered accumulation may change rounding, not results
REL_TOL = 1e-6


class Tally:
    """Jobs attempted and failed: a job that does not complete fails, and
    so does every job of a simulation or cell whose outputs drift."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.drifted = 0

    def add(self, n_jobs: int, completed: int, ok: bool) -> None:
        self.attempted += n_jobs
        if ok:
            self.failed += n_jobs - completed
        else:
            self.failed += n_jobs
            self.drifted += 1


def load_golden(workload: str) -> dict:
    """Golden outputs by pool entry; without them no simulation can be
    checked, so every one counts as drifted."""
    try:
        with open(GOLDEN) as f:
            return json.load(f)["workloads"][workload]
    except (OSError, KeyError, ValueError) as exc:
        print(f"perfbench: no golden outputs for {workload}: {exc!r}",
              file=sys.stderr)
        return {}


def _matches(golden, completed: int, digest: str, energy_kwh: float,
             carbon_kg: float) -> bool:
    return (golden is not None
            and golden["completed"] == completed
            and golden["digest"] == digest
            and math.isclose(energy_kwh, golden["energy_kwh"],
                             rel_tol=REL_TOL)
            and math.isclose(carbon_kg, golden["carbon_kg"],
                             rel_tol=REL_TOL))


def _check(tally: Tally, golden, out: Outcome) -> None:
    tally.add(out.n_jobs, out.completed,
              _matches(golden, out.completed, out.digest, out.energy_kwh,
                       out.carbon_kg))


def _peak_rss_mb(workers: int = 0) -> float:
    """This process's peak RSS plus ``workers`` times the largest reaped
    child's, in MiB: for a sweep, the peak with every pool worker at the
    largest one's size.  Pages a forked worker shares copy-on-write with
    this process count twice, so the figure errs high, never low."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * kids) / 1024.0


# -- in-process workloads ------------------------------------------------------------


def _run_one(wl: Workload, wseed: int, golden: dict, tally: Tally,
             clock=time.perf_counter) -> Tuple[float, Outcome]:
    """Build and run one simulation untraced: (run seconds, outcome)."""
    sim = wl.build(wseed)
    gc.collect()
    t0 = clock()
    result = sim.rjms.run()
    run_s = clock() - t0
    out = outcome_of(result)
    _check(tally, golden.get(str(wseed)), out)
    return run_s, out


def _time_builds(wl: Workload, wseeds: List[int], clock) -> List[float]:
    times = []
    for wseed in wseeds:
        gc.collect()
        t0 = clock()
        wl.build(wseed)
        times.append(clock() - t0)
    return times


def measure_sims(wl: Workload, seed: int, seconds: float, golden: dict):
    order = run_order(seed)
    tally = Tally()
    wl.build(order[1])  # first-call costs belong to imports, not set-up
    rates, builds, scales, completed, reference = [], [], [], 0, None
    start = time.perf_counter()
    i = 0
    while reference is None or time.perf_counter() - start < seconds:
        with hostspeed.Meter() as meter:
            t_run, out = _run_one(wl, order[i % len(order)], golden,
                                  tally, meter.clock)
            # set-up samples spread over the run, as the host's speed
            # drifts
            times = _time_builds(wl, [order[(i + k) % len(order)]
                                      for k in range(1, SETUP_BUILDS + 1)],
                                 meter.clock)
        k = meter.scale()
        rates.append(out.completed / (t_run * k))
        builds += [t * k for t in times]
        scales.append(k)
        completed += out.completed
        if reference is None:
            reference = out
        i += 1
    metrics = {
        "jobs_per_s": statistics.median(rates),
        "setup_s": statistics.median(builds),
        "peak_rss_mb": _peak_rss_mb(),
        "carbon_kg": reference.carbon_kg,
        "mean_wait_h": reference.mean_wait_h,
    }
    return metrics, tally, (f"{i} simulations, {completed} jobs completed, "
                            f"{_scale_note(scales)}")


def _scale_note(scales: List[float]) -> str:
    return (f"reference seconds per host second {min(scales):.3f}-"
            f"{max(scales):.3f} (median {statistics.median(scales):.3f})")


def trace_sims(wl: Workload, seed: int, seconds: float, golden: dict):
    wseed = run_order(seed)[1]
    tally = Tally()
    wl.build(wseed)
    untraced_s, _ = _run_one(wl, wseed, golden, tally)
    passes, times, summary = [], [], None
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        sim = wl.build(wseed)
        gc.collect()
        with obs.scope() as tracer:
            obs.reset()
            t0 = time.perf_counter()
            result = layers.run_traced(sim.rjms, sim.managers)
            times.append(time.perf_counter() - t0)
            summary = layers.summarize(tracer.drain())
        _check(tally, golden.get(str(wseed)), outcome_of(result))
        m = layers.layer_metrics(summary)
        m.update({"sweep.cells": 0, "sweep.cell_busy_s": 0.0,
                  "sweep.overhead_s": 0.0, "sweep.efficiency": 0.0})
        passes.append(m)
    metrics = _fold_passes(passes)
    metrics["sweep.robust_wall_ratio"] = 0.0
    metrics["trace.overhead_ratio"] = statistics.median(times) / untraced_s
    return metrics, tally, summary, len(passes)


def _fold_passes(passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Counts from the first pass (which every pass must repeat); times
    as the median over passes."""
    first = passes[0]
    for k, p in enumerate(passes[1:], start=2):
        differ = [m for m in layers.COUNT_METRICS if p[m] != first[m]]
        if differ:
            sys.exit("perfbench: traced counts do not repeat: pass "
                     f"{k} differs from pass 1 on " + ", ".join(
                         f"{m} ({first[m]} vs {p[m]})" for m in differ))
    return {m: (first[m] if m in layers.COUNT_METRICS
                else statistics.median(p[m] for p in passes))
            for m in first}


# -- sweep ----------------------------------------------------------------------------


def _hex48(digest48: float) -> str:
    return format(int(digest48), "012x")


def _sweep_once(base_seed: int, golden: dict, tally: Tally, **kwargs):
    t0 = time.perf_counter()
    res = run_sweep(sweep_cell, SWEEP_GRID, workers=SWEEP_WORKERS,
                    base_seed=base_seed, strict=False, **kwargs)
    wall = time.perf_counter() - t0
    _, cells = expand_grid(SWEEP_GRID)
    index = {(c["max_delay_h"], c["min_saving"]): i
             for i, c in enumerate(cells)}
    goldens = golden.get(str(base_seed)) or [None] * len(cells)
    for row in res.rows:
        g = goldens[index[(row["max_delay_h"], row["min_saving"])]]
        completed = int(row["completed"])
        tally.add(int(row["n_jobs"]), completed, _matches(
            g, completed, _hex48(row["digest48"]), row["energy_kwh"],
            row["carbon_kg"]))
    for _ in res.failures:
        tally.add(SWEEP_CELL_JOBS, 0, False)
    return res, wall


def _grid_expansion_s(base_seed: int) -> float:
    """Median host time to expand the grid and derive the cell seeds,
    as ``run_sweep`` does before dispatching."""
    times = []
    for _ in range(25):
        t0 = time.perf_counter()
        _, cells = expand_grid(SWEEP_GRID)
        [derive_seed(base_seed, i) for i in range(len(cells))]
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_sweep(wl: Workload, seed: int, seconds: float, golden: dict):
    order = run_order(seed)
    tally = Tally()
    before = hostspeed.probe()
    grid_s = _grid_expansion_s(order[1])
    grid_s *= hostspeed.scale(before, hostspeed.probe())
    rates, completed, cell_setup, scales, reference = [], 0, [], [], None
    start = time.perf_counter()
    i = 0
    while reference is None or time.perf_counter() - start < seconds:
        gc.collect()
        before = hostspeed.probe()
        res, wall = _sweep_once(order[i % len(order)], golden, tally)
        k = hostspeed.scale(before, hostspeed.probe())
        done = int(sum(r["completed"] for r in res.rows))
        rates.append(done / (wall * k))
        completed += done
        cell_setup.extend(r["setup_s"] * k for r in res.rows)
        scales.append(k)
        if reference is None:
            reference = res.rows
        i += 1
    metrics = {
        "jobs_per_s": statistics.median(rates),
        "setup_s": grid_s + statistics.median(cell_setup),
        "peak_rss_mb": _peak_rss_mb(SWEEP_WORKERS),
        "carbon_kg": sum(r["carbon_kg"] for r in reference),
        "mean_wait_h": statistics.fmean(r["wait_h"] for r in reference),
    }
    return metrics, tally, (f"{i} sweeps, {completed} jobs completed, "
                            f"{_scale_note(scales)}")


def trace_sweep(wl: Workload, seed: int, seconds: float, golden: dict):
    base = run_order(seed)[1]
    tally = Tally()
    _, plain_s = _sweep_once(base, golden, tally)
    work = os.path.join(os.path.dirname(HERE), ".bench_work")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="sweep-", dir=work)
    saved_tempdir = tempfile.tempdir
    # chaos.runner makes its marker directory with tempfile.mkdtemp();
    # point that inside the checkout too, the only place a run writes
    tempfile.tempdir = scratch
    try:
        _, robust_s = _sweep_once(
            base, golden, tally,
            journal_path=os.path.join(scratch, "journal.jsonl"), retries=1)
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(scratch, ignore_errors=True)
    passes, walls, summary = [], [], None
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        gc.collect()
        with obs.scope() as tracer:
            obs.reset()
            res, wall = _sweep_once(base, golden, tally)
            summary = layers.summarize(tracer.drain())
        walls.append(wall)
        m = layers.layer_metrics(summary)
        busy = sum(res.stats.cell_times_s)
        m.update({"sweep.cells": res.stats.n_cells,
                  "sweep.cell_busy_s": busy,
                  "sweep.overhead_s": wall - busy / SWEEP_WORKERS,
                  "sweep.efficiency": busy / (wall * SWEEP_WORKERS)})
        passes.append(m)
    metrics = _fold_passes(passes)
    metrics["sweep.robust_wall_ratio"] = robust_s / plain_s
    metrics["trace.overhead_ratio"] = statistics.median(walls) / plain_s
    return metrics, tally, summary, len(passes)


def measure(wl: Workload, seed: int, seconds: float, trace: bool):
    """One measuring run: (metrics, tally, note, traced summary or None)."""
    golden = load_golden(wl.name)
    if trace:
        fn = trace_sweep if wl.build is None else trace_sims
        metrics, tally, summary, n_passes = fn(wl, seed, seconds, golden)
        return metrics, tally, f"{n_passes} traced passes", summary
    fn = measure_sweep if wl.build is None else measure_sims
    metrics, tally, note = fn(wl, seed, seconds, golden)
    return metrics, tally, note, None


# -- golden outputs --------------------------------------------------------------------


def record_golden(workloads: List[Workload]) -> None:
    """Re-record the golden outputs of every pool entry."""
    try:
        with open(GOLDEN) as f:
            data = json.load(f)
    except OSError:
        data = {"workloads": {}}
    for wl in workloads:
        t0 = time.perf_counter()
        data["workloads"][wl.name] = {
            str(wseed): (_record_sweep(wseed) if wl.build is None
                         else outcome_of(wl.build(wseed).rjms.run()).golden())
            for wseed in range(POOL)}
        print(f"{wl.name}: {POOL} pool entries recorded in "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
        with open(GOLDEN, "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")


def _record_sweep(base_seed: int) -> List[dict]:
    res = run_sweep(sweep_cell, SWEEP_GRID, workers=SWEEP_WORKERS,
                    base_seed=base_seed)
    return [{"completed": int(row["completed"]),
             "digest": _hex48(row["digest48"]),
             "energy_kwh": row["energy_kwh"],
             "carbon_kg": row["carbon_kg"]}
            for row in res.rows]  # canonical grid order
