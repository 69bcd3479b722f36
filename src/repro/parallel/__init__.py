"""Parallel sweep execution with serial-parity guarantees.

Every quantitative artifact of the reproduction — the Fig. 1/Fig. 2
regenerations, the DESIGN.md §5 policy ablations, the Carbon500-scale
modeling sweeps — is a seeded scenario evaluated over a parameter grid.
This package makes those grids scale with cores *without ever changing
a single result*:

* :func:`run_sweep` — the one sweep function, serial or across a
  process pool (``workers=N``) that sends each cell out on its own and
  survives a dead worker;
* :func:`derive_seed` — per-cell seeds keyed on canonical grid
  position, so worker count never leaks into results;
* :func:`expand_grid` — canonical cell order;
* :data:`SWEEPS` / :func:`run_registered` — the named sweeps of the
  ``repro sweep`` CLI (their cells live in
  :mod:`repro.parallel.scenarios`).

The determinism contract and the serial-fallback conditions are
documented in :mod:`repro.parallel.executor` and DESIGN.md §5d; the
parity suite in ``tests/parallel`` pins rows bit-identical across
worker counts.
"""

from repro.analysis.sweep import (
    CellFailure,
    SweepCellError,
    SweepResult,
    SweepStats,
)
from repro.parallel.executor import run_sweep
from repro.parallel.grid import expand_grid
from repro.parallel.registry import SWEEPS, SweepSpec, run_registered
from repro.parallel.seeds import derive_seed

__all__ = [
    "CellFailure",
    "SWEEPS",
    "SweepCellError",
    "SweepResult",
    "SweepSpec",
    "SweepStats",
    "derive_seed",
    "expand_grid",
    "run_registered",
    "run_sweep",
]
