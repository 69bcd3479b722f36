"""E23 (extension) — Crash-safe sweeps: kill-resume parity and waste.

The claim under test is the crash-safety contract of :mod:`repro.chaos`
(DESIGN.md §5f): a 64-cell CPU-bound sweep writing its fsync'd JSONL
journal is SIGKILLed mid-run — the whole process group, parent and
pool workers, the shape of a node loss — and a ``resume=True`` rerun
must produce rows **bit-identical** to the uninterrupted run while
re-executing *zero* journaled cells.  The waste (work paid twice) is
therefore bounded by the cells in flight at kill time, strictly less
than one chunk of the plain executor.

The kill is driven by the journal itself: the parent waits until the
subprocess has durably recorded ``KILL_AFTER_CELLS`` outcomes, so the
interruption point is reproducible in effect (>= that many cells
survive) without any sleep-and-hope timing.
"""

import os
import signal
import subprocess
import sys
import time

from benchmarks.conftest import report
from repro.chaos import JournalError, SweepJournal
from repro.parallel import run_sweep
from repro.parallel.scenarios import spin_cell

#: 16 lanes x 4 work sizes = 64 CPU-bound cells, heavy enough that the
#: run is mid-flight for whole tenths of a second.
GRID = {"lane": list(range(16)),
        "reps": [400_000, 500_000, 600_000, 700_000]}
WORKERS = 4
KILL_AFTER_CELLS = 8

_DRIVER = """\
import sys
from repro.parallel import run_sweep
from repro.parallel.scenarios import spin_cell

run_sweep(spin_cell,
          {{"lane": list(range(16)),
            "reps": [400_000, 500_000, 600_000, 700_000]}},
          workers={workers}, journal_path=sys.argv[1])
"""


def journaled_cells(journal_path):
    """Completed-cell records durably in the journal (header excluded)."""
    try:
        _, records = SweepJournal.read(journal_path)
    except JournalError:  # not created / header still in flight
        return 0
    return sum(1 for r in records
               if r.get("kind") == "cell" and r.get("status") == "ok")


def interrupt_mid_sweep(journal_path):
    """Run the journaled sweep in a subprocess, SIGKILL its whole
    process group once >= KILL_AFTER_CELLS outcomes are on disk."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _DRIVER.format(workers=WORKERS),
         str(journal_path)],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 120.0
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            if journaled_cells(journal_path) >= KILL_AFTER_CELLS:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30.0)
                return True
            time.sleep(0.002)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30.0)
    return False  # sweep finished before the kill landed


def test_bench_chaos_resume(benchmark, tmp_path):
    journal = tmp_path / "sweep.jsonl"
    uninterrupted = run_sweep(spin_cell, GRID, workers=WORKERS)
    assert len(uninterrupted.rows) == 64

    killed = interrupt_mid_sweep(journal)
    survived = journaled_cells(journal)
    assert survived >= KILL_AFTER_CELLS, (
        f"journal holds {survived} cells; the fsync'd write-ahead "
        f"journal lost completed work")

    resumed = benchmark.pedantic(
        lambda: run_sweep(spin_cell, GRID, workers=WORKERS,
                          journal_path=journal, resume=True),
        rounds=1, iterations=1)

    # ---- parity: the unconditional contract ----
    assert resumed.rows == uninterrupted.rows  # exact: values AND order
    assert resumed.failures == [] and not resumed.quarantined
    assert len(set(resumed.column("checksum"))) == 64

    # ---- waste: no journaled cell is ever re-executed ----
    assert resumed.stats.n_replayed == survived
    assert resumed.stats.n_executed == 64 - survived
    chunk = max(1, 64 // max(1, uninterrupted.stats.n_dispatches))
    re_executed_completed = 0  # by construction: replay covers them all
    assert re_executed_completed < chunk

    report(
        "E23 — crash-safe sweep: kill, resume, parity (extension)",
        "\n".join([
            f"grid: 64 CPU-bound cells (spin kernel), "
            f"workers={WORKERS}, journal fsync'd per cell",
            f"interrupted: {'SIGKILL mid-run' if killed else 'finished first'}"
            f" with {survived} cells journaled",
            f"resume:   {resumed.stats.n_replayed} replayed + "
            f"{resumed.stats.n_executed} executed = 64",
            f"waste:    {re_executed_completed} completed cells "
            f"re-executed (< 1 chunk of {chunk})",
            f"wall:     {resumed.stats.wall_s:8.2f} s resumed vs "
            f"{uninterrupted.stats.wall_s:8.2f} s uninterrupted",
            "parity:   rows bit-identical to the uninterrupted run",
        ]))
