"""repro.chaos — crash-safe sweeps and deterministic fault injection.

Long ablation grids are this repo's unit of scientific work, and (per
the paper's §3.3 resilience discussion) long-running HPC work must
assume interruption: workers get SIGKILLed, cells hang.  This package
holds the reproduction harness to the same standard it models with
``scheduler/carbon_checkpoint.py``:

* :class:`SweepJournal` (:mod:`repro.chaos.journal`) — the fsync'd
  JSONL write-ahead journal of per-cell outcomes that makes a sweep a
  checkpointable job; ``run_sweep(..., journal_path=..., resume=True)``
  replays it and re-executes only what is missing.
* :class:`ChaosPlan` / :class:`FaultSpec` (:mod:`repro.chaos.plan`) —
  composable cell-fault schedules (raise, worker SIGKILL, delay) that
  exercise every recovery path of the sweep executor
  deterministically.

The CLI face is ``repro sweep --journal/--resume/--cell-timeout/
--retries`` plus the fault flags ``--raise-at/--kill-at/--delay-at/
--times``, and ``repro chaos plan`` (:mod:`repro.chaos.cli`).
"""

from repro.chaos.journal import (
    JournalError,
    SweepJournal,
    grid_hash,
    params_hash,
)
from repro.chaos.plan import ChaosInjectedError, ChaosPlan, FaultSpec

__all__ = [
    "ChaosInjectedError",
    "ChaosPlan",
    "FaultSpec",
    "JournalError",
    "SweepJournal",
    "grid_hash",
    "params_hash",
]
