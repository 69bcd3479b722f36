"""Synthetic workload generation (SuperMUC-NG-like job traces).

Substitute for the SuperMUC-NG user job data the paper analyzed (§3.4):
we cannot redistribute the real trace, but the paper's claims depend on
its *behavioural features*, which the generator exposes as knobs:

* Poisson arrivals modulated by a day/night submission cycle (HPC users
  submit during working hours);
* power-of-two node counts, log-uniform across a configurable range
  (the classic parallel-workload shape);
* heavy-tailed runtimes (log-normal), with user walltime estimates
  padded by a factor >= 1 (backfilling's eternal burden);
* **over-allocation** (§3.4: "many users allocate more nodes to their
  jobs than they require"): a configurable fraction of jobs use only
  part of their allocation;
* a configurable fraction of malleable and suspendable jobs (§3.2-3.3).

Everything is driven by one seed; the same config + seed produce the
identical trace on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro import units
from repro.simulator.jobs import Job, JobKind, SpeedupModel

__all__ = ["WorkloadConfig", "WorkloadGenerator"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the synthetic trace generator.

    Parameters
    ----------
    n_jobs:
        Trace length.
    mean_interarrival_s:
        Mean of the (modulated) exponential inter-arrival time.
    min_nodes_log2 / max_nodes_log2:
        Job sizes are 2**U with U uniform over this inclusive range.
    runtime_median_s / runtime_sigma:
        Log-normal true-runtime parameters.
    max_runtime_s:
        Queue walltime limit; runtimes and estimates are clamped to it.
    estimate_padding_mean:
        Users request on average this multiple of the true runtime.
    overallocation_fraction:
        Share of jobs that use fewer nodes than they request.
    overallocation_factor:
        For those jobs, nodes_used = ceil(requested / factor).
    malleable_fraction / suspendable_fraction:
        Share of jobs with §3.2 / §3.3 capabilities.
    n_users / n_projects:
        Accounting population (§3.4 reports).
    diurnal_amplitude:
        0 = flat arrivals; 1 = full day/night modulation.
    """

    n_jobs: int = 200
    mean_interarrival_s: float = 600.0
    min_nodes_log2: int = 0
    max_nodes_log2: int = 5
    runtime_median_s: float = 3 * units.SECONDS_PER_HOUR
    runtime_sigma: float = 1.0
    max_runtime_s: float = 48 * units.SECONDS_PER_HOUR
    estimate_padding_mean: float = 1.5
    overallocation_fraction: float = 0.3
    overallocation_factor: float = 2.0
    malleable_fraction: float = 0.0
    suspendable_fraction: float = 0.0
    parallel_fraction: float = 0.98
    n_users: int = 20
    n_projects: int = 6
    diurnal_amplitude: float = 0.6

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("need at least one job")
        if self.mean_interarrival_s <= 0:
            raise ValueError("mean interarrival must be positive")
        if not 0 <= self.min_nodes_log2 <= self.max_nodes_log2:
            raise ValueError("invalid node size range")
        if self.runtime_median_s <= 0 or self.max_runtime_s <= 0:
            raise ValueError("runtimes must be positive")
        if self.estimate_padding_mean < 1.0:
            raise ValueError("estimate padding must be >= 1")
        for f in ("overallocation_fraction", "malleable_fraction",
                  "suspendable_fraction", "diurnal_amplitude"):
            v = getattr(self, f)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{f} must be in [0, 1]")
        if self.overallocation_factor < 1.0:
            raise ValueError("overallocation factor must be >= 1")
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ValueError("parallel_fraction must be in [0, 1]")
        if self.n_users < 1 or self.n_projects < 1:
            raise ValueError("need at least one user and project")


class WorkloadGenerator:
    """Seeded generator producing a list of :class:`Job`.

    The diurnal arrival modulation uses thinning: an arrival drawn from
    the homogeneous exponential stream is kept with probability
    proportional to the time-of-day intensity, preserving Poisson
    statistics within each hour.
    """

    def __init__(self, config: WorkloadConfig | None = None,
                 seed: int = 0) -> None:
        self.config = config or WorkloadConfig()
        self.seed = int(seed)

    def _arrival_intensity(self, t: float) -> float:
        """Relative submission intensity at simulation time ``t`` (peak 1.0)."""
        hour = (t % units.SECONDS_PER_DAY) / units.SECONDS_PER_HOUR
        # peak at 14:00, trough at 02:00
        base = 0.5 * (1.0 + np.cos(2 * np.pi * (hour - 14.0) / 24.0))
        return 1.0 - self.config.diurnal_amplitude * (1.0 - base)

    def generate(self, start_time: float = 0.0) -> List[Job]:
        """Produce the trace (jobs sorted by submit time, ids 1..n)."""
        cfg = self.config
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, cfg.n_jobs]))
        jobs: List[Job] = []
        t = float(start_time)
        while len(jobs) < cfg.n_jobs:
            t += float(rng.exponential(cfg.mean_interarrival_s))
            if rng.random() > self._arrival_intensity(t):
                continue  # thinned out (night-time)
            job_id = len(jobs) + 1

            log2_n = rng.integers(cfg.min_nodes_log2, cfg.max_nodes_log2 + 1)
            nodes = int(2 ** log2_n)

            runtime = float(np.clip(
                rng.lognormal(np.log(cfg.runtime_median_s), cfg.runtime_sigma),
                60.0, cfg.max_runtime_s))
            padding = 1.0 + float(rng.exponential(
                cfg.estimate_padding_mean - 1.0)) if cfg.estimate_padding_mean > 1 \
                else 1.0
            estimate = float(min(runtime * padding, cfg.max_runtime_s))

            overalloc = rng.random() < cfg.overallocation_fraction
            nodes_used = (max(1, int(np.ceil(nodes / cfg.overallocation_factor)))
                          if overalloc else nodes)

            malleable = rng.random() < cfg.malleable_fraction
            kind = JobKind.MALLEABLE if malleable else JobKind.RIGID
            min_nodes = max(1, nodes // 4) if malleable else 0
            max_nodes = min(2 * nodes, 2 ** cfg.max_nodes_log2) \
                if malleable else 0

            jobs.append(Job(
                job_id=job_id,
                submit_time=t,
                nodes_requested=nodes,
                runtime_estimate=estimate,
                work_seconds=runtime,
                kind=kind,
                speedup=SpeedupModel(cfg.parallel_fraction),
                min_nodes=min_nodes,
                max_nodes=max_nodes,
                nodes_used=nodes_used,
                utilization=float(rng.uniform(0.6, 0.98)),
                suspendable=bool(rng.random() < cfg.suspendable_fraction),
                user=f"user{int(rng.integers(cfg.n_users))}",
                project=f"project{int(rng.integers(cfg.n_projects))}",
            ))
        return jobs
