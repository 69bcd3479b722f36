"""Deterministic fault-injection plans for the sweep executor.

A :class:`ChaosPlan` is a composable, *picklable* schedule of cell
faults that exercises every recovery path of the robustness harness
without any nondeterminism: ``raise_at`` / ``kill_worker_at`` /
``delay_at`` wire into the sweep executor
(:mod:`repro.parallel.executor` consults the plan inside each worker,
keyed on the cell's canonical grid index and attempt number).

Every fault is a pure function of ``(cell_index, attempt)``, so a
chaos run is exactly reproducible — the point is to *test* recovery,
and a flaky test of flakiness would be self-defeating.
Injections are counted in the :mod:`repro.obs` registry
(``chaos.faults_injected_total`` / ``chaos.faults_recovered_total``,
labeled by kind) by the sweep executor a plan is passed to.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["ChaosInjectedError", "ChaosPlan", "FaultSpec"]

#: fault kinds, all wired through the executor (fire inside a worker)
CELL_FAULT_KINDS = ("raise", "kill_worker", "delay")


class ChaosInjectedError(RuntimeError):
    """The exception a ``raise`` fault throws inside a sweep cell.

    Deliberately plain (picklable, message-only) so it crosses the
    process boundary like any scenario exception and exercises the
    ordinary :class:`~repro.analysis.sweep.CellFailure` / retry path.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One fault in a plan.  Build via the class methods, not directly.

    ``times`` bounds how many *attempts* of the target cell the fault
    fires on: the default 1 means the first attempt fails and the
    retry succeeds — the shape every recovery test wants.
    """

    kind: str
    cell_index: Optional[int] = None
    times: int = 1
    delay_s: float = 0.0

    # -- builders ------------------------------------------------------------

    @classmethod
    def raise_at(cls, cell_index: int, times: int = 1) -> "FaultSpec":
        """Raise :class:`ChaosInjectedError` in cell ``cell_index``."""
        return cls(kind="raise", cell_index=cell_index, times=times)

    @classmethod
    def kill_worker_at(cls, cell_index: int,
                       times: int = 1) -> "FaultSpec":
        """SIGKILL the worker process while it runs ``cell_index``."""
        return cls(kind="kill_worker", cell_index=cell_index, times=times)

    @classmethod
    def delay_at(cls, cell_index: int, delay_s: float,
                 times: int = 1) -> "FaultSpec":
        """Sleep ``delay_s`` before evaluating ``cell_index`` (feeds
        the watchdog: a delay past ``cell_timeout_s`` models a hang)."""
        return cls(kind="delay", cell_index=cell_index, times=times,
                   delay_s=float(delay_s))

    def __post_init__(self) -> None:
        if self.kind not in CELL_FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.cell_index is None or self.cell_index < 0:
            raise ValueError(f"{self.kind} fault needs a cell_index >= 0")
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.kind == "delay" and self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")

    def describe(self) -> str:
        if self.kind == "raise":
            return (f"raise ChaosInjectedError at cell "
                    f"#{self.cell_index} (attempts 1..{self.times})")
        if self.kind == "kill_worker":
            return (f"SIGKILL worker at cell #{self.cell_index} "
                    f"(attempts 1..{self.times})")
        return (f"delay cell #{self.cell_index} by "
                f"{self.delay_s:g} s (attempts 1..{self.times})")


@dataclass(frozen=True)
class ChaosPlan:
    """A composable schedule of cell faults.

    Frozen and built from plain scalars, so it pickles by value into
    pool workers; the same plan object therefore drives the parent's
    accounting and the workers' injections from one source of truth.
    """

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- executor wiring -----------------------------------------------------

    def cell_faults(self, cell_index: int,
                    attempt: int = 1) -> Tuple[FaultSpec, ...]:
        """The cell-level faults that fire on this (cell, attempt)."""
        return tuple(f for f in self.faults
                     if f.cell_index == cell_index
                     and attempt <= f.times)

    def apply_in_worker(self, cell_index: int, attempt: int = 1) -> None:
        """Inject this cell's faults, worker-side.

        Delays sleep first (so a hang is observable before a crash),
        raises throw :class:`ChaosInjectedError`, and kills SIGKILL
        the current process — exactly what a node loss looks like to
        the parent.
        """
        fired = self.cell_faults(cell_index, attempt)
        for f in fired:
            if f.kind == "delay":
                time.sleep(f.delay_s)
        for f in fired:
            if f.kind == "raise":
                raise ChaosInjectedError(
                    f"injected failure at cell #{cell_index} "
                    f"(attempt {attempt})")
        for f in fired:
            if f.kind == "kill_worker":
                os.kill(os.getpid(), signal.SIGKILL)

    @property
    def has_kill_faults(self) -> bool:
        return any(f.kind == "kill_worker" for f in self.faults)

    def effective_fault_count(self, n_cells: int) -> int:
        """How many cell-level faults can actually fire on an
        ``n_cells`` grid (first attempts only) — a plan whose indices
        all fall outside the grid is *active but inert*, the shape the
        paper-claims suite pins."""
        return sum(1 for f in self.faults if f.cell_index < n_cells)

    # -- reporting -----------------------------------------------------------

    def describe(self, n_cells: Optional[int] = None) -> str:
        """Human-readable schedule, for ``repro chaos plan`` and
        ``repro sweep`` with fault flags."""
        lines = [f"chaos plan ({len(self.faults)} fault spec(s))"]
        if not self.faults:
            lines.append("  <empty — nothing will be injected>")
        for f in self.faults:
            lines.append(f"  - {f.describe()}")
        if n_cells is not None:
            n = self.effective_fault_count(n_cells)
            lines.append(f"  effective on a {n_cells}-cell grid: "
                         f"{n} cell-level fault(s)")
        return "\n".join(lines)
