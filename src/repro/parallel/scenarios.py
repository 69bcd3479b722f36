"""The named worlds of the benches and the CLI, and the named sweeps' cells.

Every seeded scheduling world the E-benches (E8-E12, E19) and the
``simulate`` / ``obs stats`` commands run is built here, once: a
*builder* takes ``workload_seed``, ``provider_seed`` and the knobs its
callers vary, defaults to the bench's values, and returns the RJMS with
its managers registered (call ``.run()`` on it).  Builders and cells
are module-level so the process pool pickles them by reference, and
they import the simulator lazily, so importing :mod:`repro.parallel`
stays cheap.

=========================  ==========================================
:func:`power_site`         E8: 16-node site under a DE power budget
:func:`malleable_site`     E9: rigid vs malleable fleet, scaled budget
:func:`backfill_world`     E10, E19 and ``backfill-delay``: ES trace
                           under FCFS, EASY or the carbon gate
:func:`checkpoint_world`   E11: suspendable jobs, checkpoint cost
:func:`incentive_world`    E12: over-allocating trace, ES
:func:`demo_world`         ``repro simulate`` / ``repro obs stats``
=========================  ==========================================

A sweep *cell* is ``cell(**params) -> metrics``;
:data:`repro.parallel.registry.SWEEPS` pairs three of them with their
default grids:

* ``footprint`` — pure-arithmetic model evaluation (the §2.2 embodied
  vs operational trade-off over site intensity and lifetime);
* ``backfill-delay`` — E19's knob grid on a CLI-scale E10 world;
* ``spin`` — a CPU-bound calibration kernel used by the E21 benchmark
  to measure the executor's own scaling.

:func:`power_cell` (E8) and :func:`delay_ablation_cell` (E19) are the
benches' own cells.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro import units

if TYPE_CHECKING:
    from repro.scheduler import RJMS, SchedulerPolicy
    from repro.simulator import Job, NodePowerModel

__all__ = [
    "POWER_BUDGETS", "backfill_delay_cell", "backfill_world",
    "checkpoint_world", "delay_ablation_cell", "demo_world",
    "footprint_cell", "incentive_world", "malleable_site", "node_model",
    "power_cell", "power_site", "spin_cell",
]

#: E8's budget policies, in the order its bench reports them
POWER_BUDGETS = ("static", "carbon-linear", "carbon-avg-signal")

#: each world's default ``WorkloadConfig`` fields
_E8_WORKLOAD = dict(n_jobs=90, mean_interarrival_s=2200.0, max_nodes_log2=3,
                    runtime_median_s=3 * units.SECONDS_PER_HOUR,
                    runtime_sigma=0.8)
_E9_WORKLOAD = dict(n_jobs=70, mean_interarrival_s=2500.0, max_nodes_log2=3,
                    runtime_median_s=3 * units.SECONDS_PER_HOUR,
                    parallel_fraction=0.99)
_E10_WORKLOAD = dict(n_jobs=250, mean_interarrival_s=4000.0,
                     max_nodes_log2=4,
                     runtime_median_s=2 * units.SECONDS_PER_HOUR,
                     runtime_sigma=0.8)
_E11_WORKLOAD = dict(n_jobs=60, mean_interarrival_s=5000.0, max_nodes_log2=3,
                     runtime_median_s=4 * units.SECONDS_PER_HOUR,
                     runtime_sigma=0.7, suspendable_fraction=1.0)
_E12_WORKLOAD = dict(n_jobs=100, mean_interarrival_s=3000.0,
                     max_nodes_log2=3,
                     runtime_median_s=2 * units.SECONDS_PER_HOUR,
                     overallocation_fraction=0.5, overallocation_factor=2.0)


def node_model() -> "NodePowerModel":
    """The E-bench node: two 50-240 W CPUs."""
    from repro.simulator import ComponentPowerModel, NodePowerModel

    return NodePowerModel(cpus=(ComponentPowerModel("cpu", 50.0, 240.0),) * 2)


def _jobs(seed: int, config: Dict[str, Any], **overrides: Any) -> List["Job"]:
    from repro.simulator import WorkloadConfig, WorkloadGenerator

    return WorkloadGenerator(WorkloadConfig(**{**config, **overrides}),
                             seed=seed).generate()


def _checkpoint_model(state_gb: Optional[float]):
    """Default checkpoint cost, or ``state_gb`` per node at 1/2 GB/s."""
    from repro.simulator import CheckpointModel

    if state_gb is None:
        return CheckpointModel()
    return CheckpointModel(state_gb_per_node=state_gb, write_bw_gb_s=1.0,
                           read_bw_gb_s=2.0)


def _scheduler(name: str, zone: str, provider_seed: int,
               **gate: Any) -> "SchedulerPolicy":
    """``fcfs``, ``easy``, or the carbon gate: ``carbon`` (its default
    forecaster) or ``carbon-<persist|sn|ar|oracle>``.  ``gate`` goes to
    the carbon gate only."""
    from repro.grid import ARForecaster, OracleForecaster, SyntheticProvider
    from repro.grid import PersistenceForecaster, SeasonalNaiveForecaster
    from repro.scheduler import CarbonBackfillPolicy, EasyBackfillPolicy
    from repro.scheduler import FCFSPolicy

    plain = {"fcfs": FCFSPolicy, "easy": EasyBackfillPolicy}
    forecasters = {
        "carbon": lambda: None,
        "carbon-persist": PersistenceForecaster,
        "carbon-sn": SeasonalNaiveForecaster,
        "carbon-ar": lambda: ARForecaster(order=4),
        "carbon-oracle": lambda: OracleForecaster(
            SyntheticProvider(zone, seed=provider_seed)),
    }
    if name in plain:
        return plain[name]()
    if name not in forecasters:
        raise ValueError(f"unknown policy {name!r}; known: "
                         f"{', '.join([*plain, *forecasters])}")
    return CarbonBackfillPolicy(forecasters[name](), **gate)


# -- E8: carbon-aware power budget scaling ----------------------------------


class _AverageAsSpot:
    """Expose the provider's *average* signal as the spot intensity —
    the ablation where the policy watches the damped signal."""

    def __init__(self, provider):
        self._p = provider
        self.zone_code = provider.zone_code

    def intensity_at(self, t):
        return self._p.average_intensity_at(t)

    def history(self, a, b):
        return self._p.history(a, b)


class _Watching:
    """Budget policy that watches ``provider`` instead of the one the
    RJMS accounts carbon against (the signal ablation)."""

    def __init__(self, policy, provider):
        self.policy, self.provider = policy, provider

    def budget(self, provider, now):
        return self.policy.budget(self.provider, now)


def _site_budget(name: str, pm: "NodePowerModel", provider_seed: int):
    from repro.grid import SyntheticProvider
    from repro.powerstack import LinearScalingPolicy, StaticBudgetPolicy

    if name not in POWER_BUDGETS:
        raise ValueError(f"unknown budget {name!r}; known: "
                         f"{', '.join(POWER_BUDGETS)}")
    peak, idle = pm.peak_watts, pm.idle_watts
    if name == "static":
        # ~70% of the 16 nodes' dynamic capacity
        return StaticBudgetPolicy(11 * peak + 5 * idle)
    # anchors chosen so the time-average budget over the DE intensity
    # distribution matches the static one (energy-neutral comparison)
    policy = LinearScalingPolicy(7 * peak + 9 * idle, 15 * peak + idle,
                                 350.0, 490.0)
    if name == "carbon-avg-signal":
        return _Watching(policy, _AverageAsSpot(
            SyntheticProvider("DE", seed=provider_seed)))
    return policy


def power_site(budget: str = "carbon-linear", *,
               checkpoint_gb: Optional[float] = None,
               workload_seed: int = 17, provider_seed: int = 23,
               **workload: Any) -> "RJMS":
    """E8's site: EASY on 16 idle-on nodes, a site controller holding the
    DE-driven ``budget`` (one of :data:`POWER_BUDGETS`).

    ``checkpoint_gb`` adds carbon-aware checkpointing at that state size
    per node; ``workload`` overrides fields of the 90-job trace.
    """
    from repro.grid import SyntheticProvider
    from repro.powerstack import SiteController
    from repro.scheduler import RJMS, CarbonCheckpointPolicy
    from repro.scheduler import EasyBackfillPolicy
    from repro.simulator import Cluster

    pm = node_model()
    cluster = Cluster(16, pm)
    rjms = RJMS(cluster, _jobs(workload_seed, _E8_WORKLOAD, **workload),
                EasyBackfillPolicy(),
                provider=SyntheticProvider("DE", seed=provider_seed),
                checkpoint_model=_checkpoint_model(checkpoint_gb))
    rjms.register_manager(SiteController(
        _site_budget(budget, pm, provider_seed), cluster))
    if checkpoint_gb is not None:
        rjms.register_manager(CarbonCheckpointPolicy())
    return rjms


def power_cell(policy: str) -> Dict[str, float]:
    """E8's sweep cell: one full run of :func:`power_site`."""
    r = power_site(policy).run()
    return {"carbon_kg": r.total_carbon_kg,
            "energy_kwh": r.total_energy_kwh,
            "makespan_h": r.makespan_s / units.SECONDS_PER_HOUR,
            "completed": float(len(r.completed_jobs))}


# -- E9: malleability under a carbon-scaled budget --------------------------


def malleable_site(malleable: bool = True, *, workload_seed: int = 29,
                   provider_seed: int = 23) -> "RJMS":
    """E9's fleet: EASY on 16 idle-on nodes under a DE-scaled budget; a
    malleable fleet also resizes its jobs to track that budget."""
    from repro.grid import SyntheticProvider
    from repro.powerstack import LinearScalingPolicy, SiteController
    from repro.scheduler import RJMS, EasyBackfillPolicy, MalleabilityManager
    from repro.simulator import Cluster

    pm = node_model()
    peak, idle = pm.peak_watts, pm.idle_watts
    cluster = Cluster(16, pm)
    provider = SyntheticProvider("DE", seed=provider_seed)
    policy = LinearScalingPolicy(
        min_watts=6 * peak + 10 * idle, max_watts=14 * peak + 2 * idle,
        ci_low=350.0, ci_high=490.0)
    jobs = _jobs(workload_seed, _E9_WORKLOAD,
                 malleable_fraction=1.0 if malleable else 0.0)
    rjms = RJMS(cluster, jobs, EasyBackfillPolicy(), provider=provider)
    rjms.register_manager(SiteController(policy, cluster))
    if malleable:
        rjms.register_manager(MalleabilityManager(
            lambda t: policy.budget(provider, t)))
    return rjms


# -- E10 / E19 / backfill-delay: carbon-aware backfill ----------------------


def backfill_world(policy: str = "easy", *, max_delay_h: float = 24.0,
                   min_saving: float = 0.03, n_nodes: int = 32,
                   workload_seed: int = 3, provider_seed: int = 7,
                   **workload: Any) -> "RJMS":
    """E10's world: a 250-job trace on ``n_nodes`` idle-off nodes in ES.

    ``policy`` is ``fcfs``, ``easy``, ``carbon`` or
    ``carbon-<persist|sn|ar|oracle>``; the carbon gate holds a job at
    most ``max_delay_h`` for at least ``min_saving``.  ``workload``
    overrides fields of the trace (E19 runs 150 jobs; ``backfill-delay``
    60 jobs of up to 8 nodes on 16).
    """
    from repro.grid import SyntheticProvider
    from repro.scheduler import RJMS
    from repro.simulator import Cluster

    return RJMS(Cluster(n_nodes, node_model(), idle_power_off=True),
                _jobs(workload_seed, _E10_WORKLOAD, **workload),
                _scheduler(policy, "ES", provider_seed,
                           max_delay_s=max_delay_h * units.SECONDS_PER_HOUR,
                           min_saving_fraction=min_saving),
                provider=SyntheticProvider("ES", seed=provider_seed))


def _backfill_row(rjms: "RJMS") -> Dict[str, float]:
    r = rjms.run()
    return {"carbon_kg": r.total_carbon_kg,
            "wait_h": r.mean_wait_s / units.SECONDS_PER_HOUR,
            "completed": float(len(r.completed_jobs))}


def delay_ablation_cell(max_delay_h: float,
                        min_saving: float) -> Dict[str, float]:
    """E19's cell: the carbon gate's two knobs on a 150-job E10 world."""
    return _backfill_row(backfill_world(
        "carbon", max_delay_h=max_delay_h, min_saving=min_saving,
        n_jobs=150))


def backfill_delay_cell(max_delay_h: float,
                        min_saving: float) -> Dict[str, float]:
    """The ``backfill-delay`` cell: E19's grid at CLI scale."""
    return _backfill_row(backfill_world(
        "carbon", max_delay_h=max_delay_h, min_saving=min_saving,
        n_nodes=16, n_jobs=60, max_nodes_log2=3))


# -- E11: carbon-aware checkpointing ----------------------------------------


def checkpoint_world(state_gb: Optional[float] = None, *,
                     workload_seed: int = 5,
                     provider_seed: int = 9) -> "RJMS":
    """E11's world: suspendable jobs under EASY on 16 idle-off nodes in
    DE; with ``state_gb`` (per node) the carbon-aware checkpoint manager
    suspends through red periods, without it nothing suspends."""
    from repro.grid import SyntheticProvider
    from repro.scheduler import RJMS, CarbonCheckpointPolicy
    from repro.scheduler import EasyBackfillPolicy
    from repro.simulator import Cluster

    rjms = RJMS(Cluster(16, node_model(), idle_power_off=True),
                _jobs(workload_seed, _E11_WORKLOAD), EasyBackfillPolicy(),
                provider=SyntheticProvider("DE", seed=provider_seed),
                checkpoint_model=_checkpoint_model(state_gb))
    if state_gb is not None:
        rjms.register_manager(CarbonCheckpointPolicy())
    return rjms


# -- E12: job reports and green incentives ----------------------------------


def incentive_world(policy: str = "easy", *,
                    transform: Optional[Callable[[List["Job"]],
                                                 List["Job"]]] = None,
                    workload_seed: int = 41,
                    provider_seed: int = 13) -> "RJMS":
    """E12's world: a trace where half the jobs ask for twice the nodes
    they use, on 16 idle-off nodes in ES.  ``policy`` as for
    :func:`backfill_world` (the carbon gate holds up to a day for 3%);
    ``transform`` rewrites the trace first (E12's right-sizing)."""
    from repro.grid import SyntheticProvider
    from repro.scheduler import RJMS
    from repro.simulator import Cluster

    jobs = _jobs(workload_seed, _E12_WORKLOAD)
    if transform is not None:
        jobs = transform(jobs)
    return RJMS(Cluster(16, node_model(), idle_power_off=True), jobs,
                _scheduler(policy, "ES", provider_seed,
                           max_delay_s=units.SECONDS_PER_DAY,
                           min_saving_fraction=0.03),
                provider=SyntheticProvider("ES", seed=provider_seed))


# -- the CLI demo -----------------------------------------------------------


def demo_world(policy: str = "carbon", *, n_nodes: int = 32,
               n_jobs: int = 100, zone: str = "DE", workload_seed: int = 0,
               provider_seed: int = 0) -> "RJMS":
    """The ``simulate`` / ``obs stats`` world: default-shaped jobs on
    ``n_nodes`` idle-off nodes; ``policy`` is ``fcfs``, ``easy`` or
    ``carbon`` (the gate with its own defaults)."""
    import math

    from repro.grid import SyntheticProvider
    from repro.scheduler import RJMS
    from repro.simulator import Cluster

    # jobs must fit the cluster: cap sizes at the largest power of two
    # that fits (the RJMS rejects guaranteed-deadlock workloads)
    max_log2 = min(5, int(math.log2(n_nodes)))
    return RJMS(Cluster(n_nodes, node_model(), idle_power_off=True),
                _jobs(workload_seed, {}, n_jobs=n_jobs,
                      max_nodes_log2=max_log2),
                _scheduler(policy, zone, provider_seed),
                provider=SyntheticProvider(zone, seed=provider_seed))


# -- model evaluation and calibration cells ---------------------------------


def footprint_cell(intensity_g_per_kwh: float,
                   lifetime_years: float) -> Dict[str, float]:
    """Lifetime footprint of a SuperMUC-NG-class system at one site."""
    from repro.core import FootprintModel
    from repro.embodied import SUPERMUC_NG, system_embodied_breakdown

    embodied_kg = system_embodied_breakdown(SUPERMUC_NG)["total"]
    model = FootprintModel(
        embodied_kg,
        SUPERMUC_NG.avg_power_mw * units.WATTS_PER_MW,
        lifetime_years,
        intensity_g_per_kwh)
    r = model.lifetime_report()
    return {
        "total_t": r.total_kg / units.KG_PER_TONNE,
        "embodied_share": r.embodied_share,
    }


def spin_cell(lane: int, reps: int) -> Dict[str, float]:
    """CPU-bound deterministic kernel: ``reps`` logistic-map steps.

    Pure Python arithmetic — no allocation, no I/O — so wall-clock
    scaling of a ``spin`` grid measures the executor, not the cell.
    The trajectory depends only on ``lane``, making every cell's
    checksum unique and order-verifiable.
    """
    if reps < 0:
        raise ValueError(f"reps must be >= 0, got {reps}")
    x = 0.25 + (lane % 97) / 1000.0
    for _ in range(reps):
        x = 3.9990 * x * (1.0 - x)
    return {"checksum": x, "evals": float(reps)}
