"""repro — reproduction of "Sustainability in HPC: Vision and Opportunities".

A carbon-aware HPC modeling, simulation, and scheduling toolkit built
around the SC-W 2023 position paper by Chadha, Arima, Raoofy, Gerndt,
and Schulz (TUM/LRZ).  The paper's quantitative artifacts (Figure 1,
Table 1, Figure 2 and the in-text claims) regenerate from implemented
models, and the systems it envisions are working software:

=====================  ======================================================
Subpackage              Role
=====================  ======================================================
:mod:`repro.core`       Carbon accounting: scopes, power traces,
                        footprints, budgets, CDP/CEP metrics
:mod:`repro.embodied`   ACT-style embodied carbon: fabs, dies, packaging,
                        systems, DSE, lifecycle, procurement, Carbon500
:mod:`repro.grid`       Carbon-intensity substrate: calibrated European
                        zones, providers, forecasting, green periods
:mod:`repro.simulator`  Discrete-event cluster simulator: power models,
                        jobs, workloads, checkpointing, telemetry
:mod:`repro.powerstack` Hierarchical power management with carbon-aware
                        total-budget scaling (§3.1)
:mod:`repro.scheduler`  RJMS with FCFS/EASY baselines and carbon-aware
                        backfill / checkpoint / malleability plugins (§3.2-3.3)
:mod:`repro.accounting` Job carbon reports, analogies, green incentives (§3.4)
:mod:`repro.analysis`   Statistics and ASCII renderings of the figures
=====================  ======================================================

Quickstart::

    from repro.grid import SyntheticProvider
    from repro.simulator import Cluster, NodePowerModel, ComponentPowerModel
    from repro.simulator import WorkloadGenerator, WorkloadConfig
    from repro.scheduler import RJMS, CarbonBackfillPolicy

    provider = SyntheticProvider("DE", seed=0)
    cluster = Cluster(32, NodePowerModel(
        cpus=(ComponentPowerModel("cpu", 50, 240),) * 2))
    jobs = WorkloadGenerator(WorkloadConfig(n_jobs=100), seed=0).generate()
    result = RJMS(cluster, jobs, CarbonBackfillPolicy(),
                  provider=provider).run()
    print(result.summary())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure, table, and claim.
"""

__version__ = "1.0.0"

from repro import units

__all__ = ["units", "__version__"]
