"""Deterministic, seeded fault-injection plans.

A :class:`ChaosPlan` is a composable, *picklable* schedule of faults
that exercises every recovery path of the robustness harness — and of
the layers underneath it — without any nondeterminism:

* ``raise_at`` / ``kill_worker_at`` / ``delay_at`` wire into the sweep
  executor (:mod:`repro.parallel.executor` consults the plan inside
  each worker, keyed on the cell's canonical grid index and attempt
  number);
* ``flaky_provider`` wraps any carbon-intensity provider in the
  serving layer's :class:`~repro.service.faults.FlakyProvider` with a
  seed derived from the plan's;
* ``node_mtbf`` builds a seeded
  :class:`~repro.simulator.failures.FailureInjector` for simulator
  scenarios.

Every fault is a pure function of ``(cell_index, attempt)`` or of the
plan seed, so a chaos run is exactly reproducible — the point is to
*test* recovery, and a flaky test of flakiness would be self-defeating.
Injections are counted in the :mod:`repro.obs` registry
(``chaos.faults_injected_total`` / ``chaos.faults_recovered_total``,
labeled by kind) by the sweep executor when a plan arms it.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro import units
from repro.parallel.seeds import derive_seed

__all__ = ["ChaosInjectedError", "ChaosPlan", "FaultSpec"]

#: fault kinds wired through the executor (fire inside a worker)
CELL_FAULT_KINDS = ("raise", "kill_worker", "delay")
#: fault kinds wired through providers / the simulator
SUBSTRATE_FAULT_KINDS = ("flaky_provider", "node_mtbf")

_DEFAULT_REPAIR_S = 4.0 * units.SECONDS_PER_HOUR

#: sub-stream indices for seed derivation (one per substrate kind)
_FLAKY_STREAM, _NODE_STREAM = 1, 2


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
    rate: float = 0.0
    mtbf_s: float = 0.0
    repair_s: float = _DEFAULT_REPAIR_S

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

    @classmethod
    def flaky_provider(cls, rate: float) -> "FaultSpec":
        """Fail a seeded fraction of backend calls on wrapped
        providers (see :meth:`ChaosPlan.wrap_provider`)."""
        return cls(kind="flaky_provider", rate=float(rate))

    @classmethod
    def node_mtbf(cls, mtbf_s: float,
                  repair_s: float = _DEFAULT_REPAIR_S) -> "FaultSpec":
        """Per-node MTBF failure injection for simulator scenarios
        (see :meth:`ChaosPlan.failure_injector`)."""
        return cls(kind="node_mtbf", mtbf_s=float(mtbf_s),
                   repair_s=float(repair_s))

    def __post_init__(self) -> None:
        if self.kind not in CELL_FAULT_KINDS + SUBSTRATE_FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind in CELL_FAULT_KINDS:
            if self.cell_index is None or self.cell_index < 0:
                raise ValueError(
                    f"{self.kind} fault needs a cell_index >= 0")
            if self.times < 1:
                raise ValueError("times must be >= 1")
        if self.kind == "delay" and self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        if self.kind == "flaky_provider" and not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.kind == "node_mtbf" and self.mtbf_s <= 0:
            raise ValueError("mtbf_s must be positive")

    def describe(self) -> str:
        if self.kind == "raise":
            return (f"raise ChaosInjectedError at cell "
                    f"#{self.cell_index} (attempts 1..{self.times})")
        if self.kind == "kill_worker":
            return (f"SIGKILL worker at cell #{self.cell_index} "
                    f"(attempts 1..{self.times})")
        if self.kind == "delay":
            return (f"delay cell #{self.cell_index} by "
                    f"{self.delay_s:g} s (attempts 1..{self.times})")
        if self.kind == "flaky_provider":
            return f"flaky provider, failure rate {self.rate:.0%}"
        return (f"node failures, MTBF {self.mtbf_s:g} s, "
                f"repair {self.repair_s:g} s")


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, composable schedule of faults.

    Frozen and built from plain scalars, so it pickles by value into
    pool workers; the same plan object therefore drives the parent's
    accounting and the workers' injections from one source of truth.
    """

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- executor wiring -----------------------------------------------------

    def cell_faults(self, cell_index: int,
                    attempt: int = 1) -> Tuple[FaultSpec, ...]:
        """The cell-level faults that fire on this (cell, attempt)."""
        return tuple(f for f in self.faults
                     if f.kind in CELL_FAULT_KINDS
                     and f.cell_index == cell_index
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
        return sum(1 for f in self.faults
                   if f.kind in CELL_FAULT_KINDS
                   and f.cell_index is not None
                   and f.cell_index < n_cells)

    # -- substrate wiring ----------------------------------------------------

    def wrap_provider(self, provider: Any, stream: int = 0) -> Any:
        """Wrap a provider per the plan's ``flaky_provider`` spec.

        Returns the provider unchanged when the plan has no such spec.
        The injected RNG is seeded from ``derive_seed(plan.seed, ...)``
        so wrapped providers are reproducible in any process —
        including pool workers.
        """
        import random

        from repro.service.faults import FlakyProvider

        for f in self.faults:
            if f.kind == "flaky_provider":
                rng = random.Random(
                    derive_seed(self.seed, _FLAKY_STREAM + 2 * stream))
                return FlakyProvider(provider, failure_rate=f.rate,
                                     rng=rng)
        return provider

    def failure_injector(self, max_failures: int = 0) -> Optional[Any]:
        """Build the plan's simulator FailureInjector, or ``None``."""
        from repro.simulator.failures import FailureInjector

        for f in self.faults:
            if f.kind == "node_mtbf":
                return FailureInjector(
                    f.mtbf_s, repair_seconds=f.repair_s,
                    seed=derive_seed(self.seed, _NODE_STREAM),
                    max_failures=max_failures)
        return None

    # -- reporting -----------------------------------------------------------

    def describe(self, n_cells: Optional[int] = None) -> str:
        """Human-readable schedule, for ``repro chaos plan``."""
        lines = [f"chaos plan (seed={self.seed}, "
                 f"{len(self.faults)} fault spec(s))"]
        if not self.faults:
            lines.append("  <empty — nothing will be injected>")
        for f in self.faults:
            lines.append(f"  - {f.describe()}")
        if n_cells is not None:
            n = self.effective_fault_count(n_cells)
            lines.append(f"  effective on a {n_cells}-cell grid: "
                         f"{n} cell-level fault(s)")
        return "\n".join(lines)
