"""The named sweeps: scenario + default grid, runnable by name.

The ``repro sweep`` and ``repro obs trace`` CLIs look sweeps up in
:data:`SWEEPS`.  A :class:`SweepSpec` bundles a *picklable* scenario
callable with its default grid and metric schema; ``run_registered``
hands it to the executor.

Scenarios must be module-level functions — the process pool pickles
callables by reference — which is why the cells live in
:mod:`repro.parallel.scenarios` rather than inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.analysis.sweep import SweepResult
from repro.parallel.scenarios import (
    backfill_delay_cell,
    footprint_cell,
    spin_cell,
)

__all__ = ["SWEEPS", "SweepSpec", "run_registered"]


@dataclass(frozen=True)
class SweepSpec:
    """One named sweep: scenario, default grid, and schema."""

    name: str
    scenario: Callable[..., Mapping[str, float]]
    grid: Mapping[str, Sequence[Any]]
    description: str = ""
    metric_names: Optional[Sequence[str]] = None
    base_seed: Optional[int] = None

    def cell_count(self) -> int:
        n = 1
        for values in self.grid.values():
            n *= len(values)
        return n


#: every named sweep, by name
SWEEPS: Dict[str, SweepSpec] = {spec.name: spec for spec in (
    SweepSpec(
        name="footprint",
        scenario=footprint_cell,
        grid={"intensity_g_per_kwh": [20.0, 125.0, 300.0, 475.0, 1025.0],
              "lifetime_years": [4.0, 6.0, 8.0]},
        metric_names=("total_t", "embodied_share"),
        description=("SuperMUC-NG lifetime footprint vs site intensity "
                     "and lifetime (§2.2 trade-off)")),
    SweepSpec(
        name="backfill-delay",
        scenario=backfill_delay_cell,
        grid={"max_delay_h": [3.0, 12.0],
              "min_saving": [0.03, 0.10]},
        metric_names=("carbon_kg", "wait_h", "completed"),
        description=("carbon-backfill knob ablation, CLI-scale "
                     "(E19's shape: delay bound x saving gate)")),
    SweepSpec(
        name="spin",
        scenario=spin_cell,
        grid={"lane": list(range(16)),
              "reps": [20_000, 40_000]},
        metric_names=("checksum", "evals"),
        description=("CPU-bound calibration kernel for executor scaling "
                     "(E21 uses a 64-cell variant)")),
)}


def run_registered(name: str,
                   *,
                   workers: Optional[int] = 1,
                   strict: bool = True,
                   grid_overrides: Optional[
                       Mapping[str, Sequence[Any]]] = None,
                   journal_path: Optional[str] = None,
                   resume: bool = False,
                   cell_timeout_s: Optional[float] = None,
                   retries: int = 0,
                   chaos: Optional[Any] = None) -> SweepResult:
    """Run a named sweep through the executor.

    ``grid_overrides`` replaces individual parameters' value lists
    (unknown parameter names are rejected — a typo must not silently
    run the default grid).  The robustness keywords pass straight
    through to :func:`repro.parallel.executor.run_sweep` (journal,
    resume, watchdog, retries, chaos plan — see :mod:`repro.chaos`).
    """
    from repro.parallel.executor import run_sweep

    try:
        spec = SWEEPS[name]
    except KeyError:
        raise KeyError(f"unknown sweep {name!r}; registered: "
                       f"{', '.join(sorted(SWEEPS))}") from None
    grid = dict(spec.grid)
    for pname, values in (grid_overrides or {}).items():
        if pname not in grid:
            raise ValueError(
                f"sweep {name!r} has no parameter {pname!r}; "
                f"grid parameters: {sorted(grid)}")
        grid[pname] = list(values)
    return run_sweep(spec.scenario, grid, spec.metric_names,
                     workers=workers, strict=strict,
                     base_seed=spec.base_seed,
                     journal_path=journal_path, resume=resume,
                     cell_timeout_s=cell_timeout_s, retries=retries,
                     chaos=chaos)
