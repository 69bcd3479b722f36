"""E22 (extension) — Observability layer: free when off, whole when on.

Three claims about :mod:`repro.obs` (DESIGN.md §5e):

1. **Disabled means free.**  Wrapping every cell of the CPU-bound
   64-cell grid E21 uses in a (disabled) ``obs.span`` hook — exactly
   what the instrumented hot paths do — costs < 5% wall clock versus
   the bare kernel loop.  Each cell runs bare and hooked back to back,
   alternating which goes first, and the gate reads the median of
   those paired ratios.  The disabled path is one attribute check
   returning a shared no-op handle — this bench pins that it stays
   that way.
2. **One merged timeline.**  A traced ``workers=2`` sweep of a 3-stage
   cell produces a single Chrome-trace JSON whose per-cell span count
   is exactly ``cells x stages`` — every worker-recorded span crossed
   the process boundary and was adopted by the parent tracer.
3. **Standard exposition.**  ``repro obs stats`` output parses line by
   line as Prometheus text exposition (v0.0.4): ``# TYPE`` headers and
   ``name{labels} value`` samples, nothing else.
"""

import json
import re
import statistics
import time

from benchmarks.conftest import report
from repro import obs
from repro.cli import main as repro_main
from repro.obs import write_chrome
from repro.parallel import run_sweep
from repro.parallel.grid import expand_grid
from repro.parallel.scenarios import spin_cell

#: the E21 grid: 16 lanes x 4 work sizes = 64 CPU-bound cells.
GRID = {"lane": list(range(16)),
        "reps": [120_000, 160_000, 200_000, 240_000]}

#: lighter variant for the traced-timeline check (tracing on is allowed
#: to cost something; the claim there is completeness, not speed).
TRACED_GRID = {"lane": list(range(16)), "reps": [20_000] * 4}

#: per-cell span names of :func:`staged_cell` under the executor:
#: the executor's own wrapper plus the two stages the cell opens.
STAGES = ("sweep.cell", "cell.prepare", "cell.compute")

OVERHEAD_BUDGET = 1.05  # disabled-mode wall clock vs direct calls
#: passes over the grid, each timing every cell bare and hooked back to
#: back; the overhead is the median of those pairs' ratios
PASSES = 3

#: one ``# TYPE name counter|gauge|histogram`` header per family
_PROM_TYPE_RE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$")
#: one ``name{labels} value`` sample per series
_PROM_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" -?(\d+(\.\d+)?([eE][-+]?\d+)?|\+Inf)$")


def staged_cell(lane: int, reps: int):
    """A 3-stage scenario cell (module-level: pool workers pickle it)."""
    with obs.span("cell.prepare", attrs={"lane": lane}):
        seed = (lane * 2654435761) % (2**32)
    with obs.span("cell.compute"):
        row = spin_cell(lane=seed % 16, reps=reps)
    return row


def _paired_rounds(cells, passes: int = PASSES):
    """``(bare, hooked)`` wall seconds of each cell, run bare and inside
    a disabled ``obs.span`` back to back, ``passes`` times over the
    grid; which half runs first alternates from pair to pair.  A pair
    takes milliseconds, so host drift lands on both halves alike and its
    ratio sees the hook's cost and little else."""
    rounds = []
    for p in range(passes):
        for i, params in enumerate(cells):
            secs = [0.0, 0.0]
            for hooked in (0, 1) if (p + i) % 2 == 0 else (1, 0):
                t0 = time.perf_counter()
                if hooked:
                    with obs.span("sweep.cell", attrs={"cell_index": i}):
                        spin_cell(**params)
                else:
                    spin_cell(**params)
                secs[hooked] = time.perf_counter() - t0
            rounds.append((secs[0], secs[1]))
    return rounds


def test_bench_obs_overhead_and_merge(benchmark, tmp_path, capsys):
    assert obs.disabled(), "tracing must be off by default"

    # ---- 1. disabled-mode hook overhead on the E21 grid ----
    # The same cell loop with and without the span hook every
    # instrumented hot path carries: the delta IS the obs layer's
    # disabled-mode cost (the sweep harness's own bookkeeping predates
    # obs and is priced separately, by E21).
    _, cells = expand_grid(GRID)

    def hooked_disabled():
        for i, params in enumerate(cells):
            with obs.span("sweep.cell", attrs={"cell_index": i}):
                spin_cell(**params)

    rounds = _paired_rounds(cells)
    ratios = [hooked_s / bare_s for bare_s, hooked_s in rounds]
    direct_s = sum(bare_s for bare_s, _ in rounds) / PASSES
    disabled_s = sum(hooked_s for _, hooked_s in rounds) / PASSES
    benchmark.pedantic(hooked_disabled, rounds=1, iterations=1)
    overhead = statistics.median(ratios)
    q1, _, q3 = statistics.quantiles(ratios)
    assert overhead < OVERHEAD_BUDGET, (
        f"disabled-mode observability costs {(overhead - 1):.1%} "
        f"(budget {OVERHEAD_BUDGET - 1:.0%}) on the E21 grid")
    assert not obs.get_tracer().spans, "disabled run must record nothing"

    # ---- 2. traced parallel sweep -> one merged Chrome timeline ----
    n_cells = len(expand_grid(TRACED_GRID)[1])
    obs.reset()
    with obs.scope() as tracer:
        traced = run_sweep(staged_cell, TRACED_GRID, workers=2)
        spans = tracer.drain()
    assert traced.stats.mode == "process-pool"

    trace_path = tmp_path / "e22_trace.json"
    write_chrome(spans, str(trace_path))
    doc = json.loads(trace_path.read_text())
    x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    per_cell = [e for e in x_events if e["name"] in STAGES]
    assert len(per_cell) == n_cells * len(STAGES), (
        f"expected {n_cells} cells x {len(STAGES)} stages spans, "
        f"got {len(per_cell)}")
    assert sum(1 for e in x_events if e["name"] == "sweep.run") == 1
    worker_pids = {e["pid"] for e in per_cell}
    assert len(worker_pids) >= 2, "expected spans from >= 2 processes"

    # ---- 3. `repro obs stats` is Prometheus-parseable ----
    rc = repro_main(["obs", "stats", "--nodes", "8", "--jobs", "20"])
    assert rc == 0
    stats_out = capsys.readouterr().out
    lines = [ln for ln in stats_out.splitlines() if ln]
    assert len(lines) > 10, "exposition suspiciously short"
    bad = [ln for ln in lines
           if not (_PROM_TYPE_RE.match(ln) or _PROM_SAMPLE_RE.match(ln))]
    assert not bad, f"non-Prometheus lines in `repro obs stats`: {bad[:5]}"
    assert any("repro_sim_events" in ln for ln in lines)
    obs.reset()

    report(
        "E22 — observability overhead & merged tracing (extension)",
        "\n".join([
            f"disabled-mode overhead: {(overhead - 1):+.2%} on the "
            f"64-cell E21 grid (budget +{OVERHEAD_BUDGET - 1:.0%}; "
            f"median of {len(ratios)} per-cell paired ratios, "
            f"quartiles {q1 - 1:+.2%} to {q3 - 1:+.2%})",
            f"  bare kernel loop:   {direct_s:8.3f} s (per pass, "
            f"mean of {PASSES})",
            f"  hooked, tracing off:{disabled_s:8.3f} s (per pass, "
            f"mean of {PASSES})",
            f"traced workers=2 sweep: {len(per_cell)} per-cell spans = "
            f"{n_cells} cells x {len(STAGES)} stages, "
            f"{len(worker_pids)} worker processes, one timeline",
            f"`repro obs stats`: {len(lines)} Prometheus lines, "
            f"all line-format valid",
        ]))
