"""Node state: hardware + occupancy + the power-cap knob.

A :class:`Node` binds a :class:`~repro.simulator.power.NodePowerModel`
to runtime state: which job occupies it, whether it is powered on, and
the current power cap.  The node's instantaneous draw is what the
cluster-level power integrator sums between events.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.simulator.power import NodePowerModel

__all__ = ["NodeState", "Node"]


class NodeState(enum.Enum):
    """Operational state of a node."""

    IDLE = "idle"
    BUSY = "busy"
    POWERED_OFF = "powered_off"
    DOWN = "down"


@dataclass
class Node:
    """One compute node.

    Power semantics: ``POWERED_OFF``/``DOWN`` nodes draw nothing; idle
    nodes draw idle power (caps do not apply below idle); busy nodes draw
    according to the occupying job's utilization and the node cap.
    """

    node_id: int
    power_model: NodePowerModel
    state: NodeState = NodeState.IDLE
    job_id: Optional[int] = None
    cap_watts: Optional[float] = None
    #: utilization of the current occupant (set at allocation)
    utilization: float = 0.0

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError("node_id must be non-negative")

    # -- occupancy -------------------------------------------------------------

    @property
    def is_free(self) -> bool:
        return self.state is NodeState.IDLE

    def allocate(self, job_id: int, utilization: float) -> None:
        """Mark the node busy for ``job_id``."""
        if self.state is not NodeState.IDLE:
            raise ValueError(
                f"node {self.node_id} is {self.state.value}, cannot allocate")
        if not 0.0 < utilization <= 1.0:
            raise ValueError("utilization must be in (0, 1]")
        self.state = NodeState.BUSY
        self.job_id = job_id
        self.utilization = utilization

    def release(self) -> None:
        """Free the node (job ended, shrank, or was suspended)."""
        if self.state is not NodeState.BUSY:
            raise ValueError(f"node {self.node_id} is not busy")
        self.state = NodeState.IDLE
        self.job_id = None
        self.utilization = 0.0

    def power_off(self) -> None:
        """Shut an idle node down (carbon-aware node sleep)."""
        if self.state is not NodeState.IDLE:
            raise ValueError("only idle nodes can be powered off")
        self.state = NodeState.POWERED_OFF

    def power_on(self) -> None:
        if self.state is not NodeState.POWERED_OFF:
            raise ValueError("node is not powered off")
        self.state = NodeState.IDLE

    def mark_down(self) -> None:
        """Fail the node (failure-injection tests)."""
        if self.state is NodeState.BUSY:
            raise ValueError("release the node before marking it down")
        self.state = NodeState.DOWN

    def repair(self) -> None:
        if self.state is not NodeState.DOWN:
            raise ValueError("node is not down")
        self.state = NodeState.IDLE

    # -- power ---------------------------------------------------------------------

    def set_cap(self, cap_watts: Optional[float]) -> None:
        """Set (or clear, with None) the node power cap."""
        if cap_watts is not None and cap_watts < self.power_model.idle_watts - 1e-9:
            raise ValueError(
                f"cap {cap_watts:.0f} W below idle draw "
                f"{self.power_model.idle_watts:.0f} W")
        self.cap_watts = cap_watts

    @property
    def power_factor(self) -> float:
        """Dynamic-power fraction permitted by the current cap."""
        if self.cap_watts is None:
            return 1.0
        return self.power_model.power_factor_for_cap(
            self.cap_watts, self.utilization if self.utilization else 1.0)

    @property
    def perf_factor(self) -> float:
        """Relative performance under the current cap (1.0 uncapped)."""
        from repro.simulator.power import cap_perf_factor
        return cap_perf_factor(self.power_factor)

    def current_power(self) -> float:
        """Instantaneous draw in watts."""
        if self.state in (NodeState.POWERED_OFF, NodeState.DOWN):
            return 0.0
        if self.state is NodeState.IDLE:
            return self.power_model.idle_watts
        return self.power_model.power(self.utilization, self.power_factor)
