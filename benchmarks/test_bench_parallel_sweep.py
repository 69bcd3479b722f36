"""E21 (extension) — Parallel sweep executor: scaling with serial parity.

The claim under test is the determinism contract of
:mod:`repro.parallel` (DESIGN.md §5d) *plus* its reason to exist: on a
CPU-bound 64-cell grid, ``workers=4`` must produce rows **exactly
equal** to the serial run, and — given the cores to do it — at least a
2x wall-clock win.

The speedup assertion is gated on the machine actually exposing
multiple cores to this process (CI containers are often pinned to
one); the parity assertion is unconditional — it *is* the contract.
"""

import os

from benchmarks.conftest import report
from repro.parallel import run_sweep
from repro.parallel.scenarios import spin_cell

#: 16 lanes x 4 work sizes = 64 CPU-bound cells.
GRID = {"lane": list(range(16)),
        "reps": [120_000, 160_000, 200_000, 240_000]}
WORKERS = 4


def effective_cores():
    """Cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_parallel():
    return run_sweep(spin_cell, GRID, workers=WORKERS)


def test_bench_parallel_sweep(benchmark):
    serial = run_sweep(spin_cell, GRID, workers=1)
    parallel = benchmark.pedantic(run_parallel, rounds=1, iterations=1)

    # ---- parity: the unconditional contract ----
    assert parallel.stats.mode == "process-pool"
    assert serial.stats.mode == "serial"
    assert parallel.rows == serial.rows  # exact: values AND order
    assert parallel.failures == [] and serial.failures == []
    assert len(parallel.rows) == 64

    # every lane's trajectory is distinct — equality above is not
    # trivially comparing identical constants
    assert len(set(parallel.column("checksum"))) == 64

    # ---- scaling: gated on the hardware being able to show it ----
    cores = effective_cores()
    speedup = serial.stats.wall_s / parallel.stats.wall_s
    if cores >= WORKERS:
        assert speedup >= 2.0, (
            f"expected >= 2x at workers={WORKERS} on {cores} cores, "
            f"got {speedup:.2f}x")
    elif cores >= 2:
        assert speedup >= 1.3, (
            f"expected >= 1.3x on {cores} cores, got {speedup:.2f}x")
    # single-core machines: parity checked above, speedup unprovable

    report(
        "E21 — parallel sweep executor (extension)",
        "\n".join([
            f"grid: 64 CPU-bound cells (spin kernel), "
            f"workers={WORKERS}, cores visible: {cores}",
            f"serial:   {serial.stats.wall_s:8.2f} s wall",
            f"parallel: {parallel.stats.wall_s:8.2f} s wall "
            f"({parallel.stats.n_dispatches} dispatches)",
            f"speedup:  {speedup:8.2f}x "
            + ("(>= 2x asserted)" if cores >= WORKERS else
               "(not asserted: too few cores visible)"),
            "parity:   rows bit-identical to serial "
            f"({len(parallel.rows)} rows)",
        ]))
