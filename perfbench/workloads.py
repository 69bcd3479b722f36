"""The benchmark's four workloads, built from the seeded workload generator.

Every simulation is split into a *build* (job trace, the provider's
intensity horizon, cluster, RJMS and managers: the set-up the benchmark
times as ``setup_s``) and a *run* (``RJMS.run``: the host time behind
``jobs_per_s``).  The library is driven through its public API only.

A run's ``--seed`` does not feed the generator directly.  It orders a
pool of ``POOL`` workload seeds per workload, and the run simulates pool
entries in that order, after the ``REFERENCE`` entry that every run
simulates first.  Every pool entry has golden outputs recorded in
``golden.json``, so every simulation any seed runs is checked.

The reference entry's outcomes are the run's ``carbon_kg`` and
``mean_wait_h``: they repeat exactly in every run, so any change to
them is a change of simulated results.  Outcomes of seed-chosen traces
would not do: the mean wait of one 1000-job EASY trace varies by about
25% from trace to trace.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import layers
from repro import obs, units
from repro.grid import SyntheticProvider
from repro.grid.forecast import SeasonalNaiveForecaster
from repro.powerstack import LinearScalingPolicy, SiteController
from repro.scheduler import (
    RJMS,
    CarbonBackfillPolicy,
    CarbonCheckpointPolicy,
    EasyBackfillPolicy,
)
from repro.simulator import (
    CheckpointModel,
    Cluster,
    ComponentPowerModel,
    NodePowerModel,
    WorkloadConfig,
    WorkloadGenerator,
)

HOUR = units.SECONDS_PER_HOUR
DAY = units.SECONDS_PER_DAY

#: the E8/E10/E11 node: two 50-240 W CPUs
PM = NodePowerModel(cpus=(ComponentPowerModel("cpu", 50.0, 240.0),) * 2)

#: workload seeds per workload that have recorded golden outputs
POOL = 24
#: the pool entry every run simulates first (the sweep: its base seed)
REFERENCE = 0

#: sweep grid: the backfill-delay knobs, one small carbon-backfill world
#: per cell (cell seeds come from ``run_sweep``'s ``base_seed``)
SWEEP_GRID = {"max_delay_h": [3.0, 6.0, 9.0, 12.0],
              "min_saving": [0.02, 0.05, 0.1, 0.2]}
SWEEP_WORKERS = 2
SWEEP_CELL_JOBS = 60


def run_order(seed: int) -> List[int]:
    """Pool entries in the order a run with ``seed`` simulates them."""
    return [REFERENCE] + [int(i) for i in
                          np.random.default_rng(seed).permutation(POOL)]


def job_digest(jobs) -> str:
    """SHA-256 over every job's ``(job_id, start_time, end_time)``, exact
    (floats as hex), in job-id order."""
    h = hashlib.sha256()
    for j in sorted(jobs, key=lambda j: j.job_id):
        start = "-" if j.start_time is None else float(j.start_time).hex()
        end = "-" if j.end_time is None else float(j.end_time).hex()
        h.update(f"{j.job_id}:{start}:{end};".encode())
    return h.hexdigest()


@dataclass
class Sim:
    """One built simulation: the RJMS plus its managers by layer name."""

    rjms: RJMS
    managers: Dict[str, object] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one simulation produced; the golden check compares these."""

    n_jobs: int
    completed: int
    digest: str
    energy_kwh: float
    carbon_kg: float
    mean_wait_h: float

    def golden(self) -> Dict[str, object]:
        return {"completed": self.completed, "digest": self.digest,
                "energy_kwh": self.energy_kwh, "carbon_kg": self.carbon_kg}


def outcome_of(result) -> Outcome:
    return Outcome(
        n_jobs=len(result.jobs),
        completed=len(result.completed_jobs),
        digest=job_digest(result.jobs),
        energy_kwh=result.total_energy_kwh,
        carbon_kg=result.total_carbon_kg,
        mean_wait_h=result.mean_wait_s / HOUR,
    )


def _jobs(wseed: int, **cfg):
    return WorkloadGenerator(WorkloadConfig(**cfg), seed=wseed).generate()


def _provider(zone: str, seed: int, jobs) -> SyntheticProvider:
    """Provider with its intensity horizon generated past the last
    arrival plus the longest hold, so no run extends it mid-simulation."""
    provider = SyntheticProvider(zone, seed=seed)
    provider.intensity_at(max(j.submit_time for j in jobs) + 4 * DAY)
    return provider


def build_easy_large(wseed: int) -> Sim:
    jobs = _jobs(wseed, n_jobs=1000, mean_interarrival_s=4000.0,
                 max_nodes_log2=4, runtime_median_s=2 * HOUR,
                 runtime_sigma=0.8)
    return Sim(RJMS(Cluster(32, PM, idle_power_off=True), jobs,
                    EasyBackfillPolicy(), provider=_provider("ES", 7, jobs)))


def build_carbon_gate(wseed: int) -> Sim:
    jobs = _jobs(wseed, n_jobs=250, mean_interarrival_s=4000.0,
                 max_nodes_log2=4, runtime_median_s=2 * HOUR,
                 runtime_sigma=0.8)
    policy = CarbonBackfillPolicy(SeasonalNaiveForecaster(),
                                  max_delay_s=DAY, min_saving_fraction=0.03)
    return Sim(RJMS(Cluster(32, PM, idle_power_off=True), jobs, policy,
                    provider=_provider("ES", 7, jobs)))


def build_managed_site(wseed: int) -> Sim:
    jobs = _jobs(wseed, n_jobs=120, mean_interarrival_s=3000.0,
                 max_nodes_log2=3, runtime_median_s=3 * HOUR,
                 runtime_sigma=0.6, suspendable_fraction=1.0)
    cluster = Cluster(16, PM)
    rjms = RJMS(cluster, jobs, EasyBackfillPolicy(),
                provider=_provider("DE", 23, jobs),
                checkpoint_model=CheckpointModel(state_gb_per_node=8.0,
                                                 write_bw_gb_s=1.0,
                                                 read_bw_gb_s=2.0))
    # E8's energy-neutral linear budget anchors for 16 nodes
    peak, idle = PM.peak_watts, PM.idle_watts
    managers = {
        "powerstack": SiteController(
            LinearScalingPolicy(7 * peak + 9 * idle, 15 * peak + idle,
                                350.0, 490.0), cluster),
        "checkpoint": CarbonCheckpointPolicy(),
    }
    for mgr in managers.values():
        rjms.register_manager(mgr)
    return Sim(rjms, managers)


def build_sweep_cell(max_delay_h: float, min_saving: float,
                     seed: int) -> Sim:
    """One backfill-delay-shaped world (E19): 60 jobs on 16 nodes."""
    jobs = _jobs(seed, n_jobs=SWEEP_CELL_JOBS, mean_interarrival_s=4000.0,
                 max_nodes_log2=3, runtime_median_s=2 * HOUR,
                 runtime_sigma=0.8)
    policy = CarbonBackfillPolicy(max_delay_s=max_delay_h * HOUR,
                                  min_saving_fraction=min_saving)
    return Sim(RJMS(Cluster(16, PM, idle_power_off=True), jobs, policy,
                    provider=_provider("ES", 7, jobs)))


def digest48(digest: str) -> float:
    """A job digest as a sweep row can carry it (rows are floats): its
    first 48 bits, exact in a double."""
    return float(int(digest[:12], 16))


def sweep_cell(max_delay_h: float, min_saving: float,
               seed: int) -> Dict[str, float]:
    """Module-level (picklable) sweep cell: build, run, report.

    When tracing is on (pool workers capture spans), the cell attaches
    the same layer probes as the in-process workloads, so the traced
    sweep's per-layer numbers cover the cells too.
    """
    t0 = time.perf_counter()
    sim = build_sweep_cell(max_delay_h, min_saving, seed)
    setup_s = time.perf_counter() - t0
    if obs.enabled():
        result = layers.run_traced(sim.rjms, sim.managers)
    else:
        result = sim.rjms.run()
    out = outcome_of(result)
    return {"setup_s": setup_s, "n_jobs": float(out.n_jobs),
            "completed": float(out.completed),
            "digest48": digest48(out.digest),
            "energy_kwh": out.energy_kwh, "carbon_kg": out.carbon_kg,
            "wait_h": out.mean_wait_h}


@dataclass(frozen=True)
class Workload:
    name: str
    #: builds one simulation from a workload seed (None for ``sweep``)
    build: Optional[Callable[[int], Sim]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("easy-large", build_easy_large),
        Workload("carbon-gate", build_carbon_gate),
        Workload("managed-site", build_managed_site),
        Workload("sweep", None),
    )
}
