"""repro.chaos — crash-safe sweeps and deterministic fault injection.

Long ablation grids are this repo's unit of scientific work, and (per
the paper's §3.3 resilience discussion) long-running HPC work must
assume interruption: workers get SIGKILLed, cells hang, providers
flake.  This package holds the reproduction harness to the same
standard it models with ``scheduler/carbon_checkpoint.py``:

* :class:`SweepJournal` (:mod:`repro.chaos.journal`) — the fsync'd
  JSONL write-ahead journal of per-cell outcomes that makes a sweep a
  checkpointable job; ``sweep(..., journal_path=..., resume=True)``
  replays it and re-executes only what is missing.
* :class:`ChaosPlan` / :class:`FaultSpec` (:mod:`repro.chaos.plan`) —
  seeded, composable fault schedules that exercise every recovery
  path deterministically, from worker SIGKILL to flaky carbon
  providers to simulator node MTBF.
* :class:`FlakyProvider` / :class:`SlowProvider` — re-exported from
  :mod:`repro.service.faults` (no deprecation dance; same classes),
  since provider-level fault injection is chaos tooling as much as
  service tooling.

The CLI face is ``repro sweep --journal/--resume/--cell-timeout/
--retries`` and ``repro chaos run|plan`` (:mod:`repro.chaos.cli`).
"""

from repro.chaos.journal import (
    JournalError,
    SweepJournal,
    grid_hash,
    params_hash,
)
from repro.chaos.plan import ChaosInjectedError, ChaosPlan, FaultSpec
from repro.service.faults import FlakyProvider, SlowProvider

__all__ = [
    "ChaosInjectedError",
    "ChaosPlan",
    "FaultSpec",
    "FlakyProvider",
    "JournalError",
    "SlowProvider",
    "SweepJournal",
    "grid_hash",
    "params_hash",
]
