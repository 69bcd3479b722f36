"""Discrete-event HPC cluster simulator.

The operational-carbon experiments (§3.1-3.4) need a cluster to run on;
real 20 MW systems being unavailable, this subpackage provides one:

* :mod:`repro.simulator.engine` — event queue and simulation clock;
* :mod:`repro.simulator.power` — component/node power models with power
  caps and DVFS operating points (the PowerStack's hardware knobs);
* :mod:`repro.simulator.node` / :mod:`repro.simulator.cluster` — node and
  cluster state, allocation bookkeeping;
* :mod:`repro.simulator.jobs` — rigid/moldable/malleable job model with
  speedup curves and a work-conserving progress integrator;
* :mod:`repro.simulator.workload` — seeded synthetic workload generator
  (SuperMUC-NG-like traces, with the §3.4 over-allocation knob);
* :mod:`repro.simulator.checkpoint` — checkpoint/restart cost model;
* :mod:`repro.simulator.telemetry` — DCDB-style telemetry recording.

Operational carbon of a simulation is computed *exactly*: cluster power
is piecewise constant between events, so the CI x P integral reduces to
per-segment products with the intensity trace's exact partial-bin
integral.
"""

from repro.simulator.engine import Event, SimulationEngine
from repro.simulator.power import (
    DVFSOperatingPoint,
    ComponentPowerModel,
    NodePowerModel,
    cap_perf_factor,
)
from repro.simulator.node import Node, NodeState
from repro.simulator.cluster import Cluster
from repro.simulator.jobs import Job, JobState, SpeedupModel, JobKind
from repro.simulator.workload import WorkloadConfig, WorkloadGenerator
from repro.simulator.checkpoint import CheckpointModel
from repro.simulator.failures import FailureInjector
from repro.simulator.appmodel import (
    ApplicationProfile,
    countdown_power_factor,
    countdown_energy_saving,
)
from repro.simulator.telemetry import Sensor, TelemetryDB

__all__ = [
    "Event",
    "SimulationEngine",
    "DVFSOperatingPoint",
    "ComponentPowerModel",
    "NodePowerModel",
    "cap_perf_factor",
    "Node",
    "NodeState",
    "Cluster",
    "Job",
    "JobState",
    "JobKind",
    "SpeedupModel",
    "WorkloadConfig",
    "WorkloadGenerator",
    "CheckpointModel",
    "FailureInjector",
    "ApplicationProfile",
    "countdown_power_factor",
    "countdown_energy_saving",
    "Sensor",
    "TelemetryDB",
]
