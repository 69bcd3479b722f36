"""Cluster state: allocation bookkeeping and the power integrator.

The cluster is the meeting point of the scheduler (which asks for and
releases nodes) and the PowerStack (which sets caps).  Its invariants —
no node double-allocated, every allocation released exactly once, power
within configured bounds — are property-tested in
``tests/simulator/test_cluster.py``.

Power accounting: cluster power is piecewise constant between events,
so :meth:`Cluster.accrue` (called by the RJMS before *every* state
change) integrates energy exactly and appends one ``(t0, t1, watts)``
tuple to the power log.  That log is the only stored record of cluster
power; the RJMS charges carbon on each step as it is appended, and
:func:`resample_power` turns it into a binned
:class:`~repro.core.operational.PowerTrace` only when one is asked for.

Cluster power and the free- and busy-node counts only change on an
allocation, release, resize, cap, failure or repair.  Every such change
goes through a :class:`Cluster` method, which writes the new draw of
each node it touched into a per-node list and updates both counts (no
cache); summing that list in node order is the same bits as a scan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.core.operational import PowerTrace
from repro.simulator.node import Node, NodeState
from repro.simulator.power import NodePowerModel

__all__ = ["Cluster", "resample_power"]

#: one piecewise-constant power interval ``(t0, t1, watts)``
PowerSegment = Tuple[float, float, float]
#: bin width (s) of a resampled power trace
POWER_TRACE_STEP_S = 300.0


def resample_power(segments: Sequence[PowerSegment],
                   step_seconds: float = POWER_TRACE_STEP_S) -> PowerTrace:
    """Resample a piecewise-constant power log to a trace.

    Each output sample holds the *energy-weighted mean* power of its
    bin, so the trace's total energy equals the integrated energy
    (up to the last full bin).
    """
    if not segments:
        raise ValueError("no power history recorded yet")
    t_end = segments[-1][1]
    t_start = segments[0][0]
    n = max(1, int(np.ceil((t_end - t_start) / step_seconds)))
    energy = np.zeros(n)
    for t0, t1, watts in segments:
        i0 = int((t0 - t_start) // step_seconds)
        i1 = int(np.ceil((t1 - t_start) / step_seconds))
        for i in range(i0, min(i1, n)):
            b0 = t_start + i * step_seconds
            b1 = b0 + step_seconds
            overlap = max(0.0, min(t1, b1) - max(t0, b0))
            energy[i] += watts * overlap
    return PowerTrace(energy / step_seconds, step_seconds, t_start,
                      label="cluster")


class Cluster:
    """A homogeneous cluster of :class:`Node` objects.

    Parameters
    ----------
    n_nodes:
        Number of nodes.
    power_model:
        Per-node power model (homogeneous; heterogeneous partitions are
        modeled as multiple clusters).
    idle_power_off:
        If True, idle nodes are powered off (draw 0) — an aggressive
        carbon policy usable as an ablation.

    Node state changes go through the cluster (:meth:`allocate`,
    :meth:`release`, :meth:`grow`, :meth:`shrink`, :meth:`set_job_cap`,
    :meth:`mark_down`, :meth:`repair`): each keeps the per-node draw and
    the node counts current, after checking its arguments.  Mutating a
    :class:`Node` directly leaves them stale.
    """

    def __init__(self, n_nodes: int, power_model: NodePowerModel,
                 idle_power_off: bool = False) -> None:
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.power_model = power_model
        self.nodes: List[Node] = [Node(i, power_model) for i in range(n_nodes)]
        self.idle_power_off = idle_power_off
        if idle_power_off:
            for nd in self.nodes:
                nd.power_off()
        self._alloc: Dict[int, List[Node]] = {}
        self._segments: List[PowerSegment] = []
        self._last_accrual = 0.0
        self._energy_joules = 0.0
        #: each node's draw (W) by node id, and the node counts
        self._watts: List[float] = [nd.current_power() for nd in self.nodes]
        self._free = n_nodes
        self._busy = 0

    # -- queries --------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_free(self) -> int:
        return self._free

    @property
    def n_busy(self) -> int:
        return self._busy

    def nodes_of_job(self, job_id: int) -> List[Node]:
        """Nodes currently allocated to ``job_id`` (empty if none)."""
        return list(self._alloc.get(job_id, []))

    def current_power(self) -> float:
        """Instantaneous cluster draw (W)."""
        return sum(self._watts)

    def job_power(self, job_id: int) -> float:
        """Draw (W) of ``job_id``'s nodes, summed in allocation order."""
        return sum(self._watts[nd.node_id] for nd in self._alloc.get(job_id, ()))

    def _scan_free(self) -> int:
        return sum(1 for nd in self.nodes
                   if nd.state in (NodeState.IDLE, NodeState.POWERED_OFF))

    def _scan_busy(self) -> int:
        # busy nodes are exactly the allocated ones (check_invariants)
        return sum(len(held) for held in self._alloc.values())

    def _scan_power(self) -> float:
        return sum(nd.current_power() for nd in self.nodes)

    def max_power(self) -> float:
        """Upper bound: every node busy at full utilization, uncapped."""
        return self.n_nodes * self.power_model.peak_watts

    def min_power(self) -> float:
        """Lower bound: all nodes idle (or 0 with idle_power_off)."""
        return 0.0 if self.idle_power_off \
            else self.n_nodes * self.power_model.idle_watts

    # -- allocation ------------------------------------------------------------

    def allocate(self, job_id: int, n_nodes: int, utilization: float) -> List[Node]:
        """Allocate ``n_nodes`` free nodes to ``job_id``.

        Raises if the job already holds nodes (grow via :meth:`grow`) or
        if not enough nodes are free — the scheduler must check first.
        """
        if job_id in self._alloc:
            raise ValueError(f"job {job_id} already holds nodes; use grow()")
        chosen = self._take_free(job_id, n_nodes, utilization)
        self._alloc[job_id] = chosen
        return list(chosen)

    def _take_free(self, job_id: int, n_nodes: int,
                   utilization: float) -> List[Node]:
        """Power on and allocate the first ``n_nodes`` free nodes, in
        node order."""
        if n_nodes < 1 or not 0.0 < utilization <= 1.0:
            raise ValueError(f"need >= 1 node at utilization in (0, 1], "
                             f"got {n_nodes} at {utilization}")
        if self._free < n_nodes:
            raise ValueError(
                f"only {self._free} nodes free, {n_nodes} requested")
        chosen = [nd for nd in self.nodes
                  if nd.state in (NodeState.IDLE, NodeState.POWERED_OFF)
                  ][:n_nodes]
        for nd in chosen:
            if nd.state is NodeState.POWERED_OFF:
                nd.power_on()
            nd.allocate(job_id, utilization)
            self._watts[nd.node_id] = nd.current_power()
        self._free -= n_nodes
        self._busy += n_nodes
        return chosen

    def _free_nodes(self, nodes: List[Node]) -> None:
        """Release unmapped ``nodes``, clear caps, power off if idle-off."""
        for nd in nodes:
            nd.release()
            nd.set_cap(None)
            if self.idle_power_off:
                nd.power_off()
            self._watts[nd.node_id] = nd.current_power()
        self._free += len(nodes)
        self._busy -= len(nodes)

    def release(self, job_id: int) -> None:
        """Release all nodes of ``job_id``."""
        try:
            held = self._alloc.pop(job_id)
        except KeyError:
            raise ValueError(f"job {job_id} holds no nodes") from None
        self._free_nodes(held)

    def grow(self, job_id: int, extra_nodes: int, utilization: float) -> List[Node]:
        """Add nodes to a malleable job's allocation."""
        if job_id not in self._alloc:
            raise ValueError(f"job {job_id} holds no nodes")
        chosen = self._take_free(job_id, extra_nodes, utilization)
        self._alloc[job_id].extend(chosen)
        return list(chosen)

    def shrink(self, job_id: int, drop_nodes: int) -> None:
        """Remove nodes from a malleable job's allocation (keeps >= 1)."""
        held = self._alloc.get(job_id)
        if not held:
            raise ValueError(f"job {job_id} holds no nodes")
        if drop_nodes < 1 or drop_nodes >= len(held):
            raise ValueError(
                f"can drop 1..{len(held) - 1} nodes, got {drop_nodes}")
        self._free_nodes([held.pop() for _ in range(drop_nodes)])

    def set_job_cap(self, job_id: int, cap_watts_per_node: Optional[float]) -> float:
        """Cap every node of a job; returns the resulting perf factor."""
        held = self._alloc.get(job_id)
        if not held:
            raise ValueError(f"job {job_id} holds no nodes")
        for nd in held:
            nd.set_cap(cap_watts_per_node)
            self._watts[nd.node_id] = nd.current_power()
        return held[0].perf_factor

    # -- failures -------------------------------------------------------------------

    def _node(self, node_id: int) -> Node:
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"no node {node_id}")
        return self.nodes[node_id]

    def mark_down(self, node_id: int) -> None:
        """Fail a node; a busy node must be released first."""
        node = self._node(node_id)
        if node.state is not NodeState.DOWN:
            node.mark_down()  # raises for a busy node
            self._watts[node_id] = 0.0
            self._free -= 1

    def repair(self, node_id: int) -> None:
        """Return a down node to service (powered off under
        ``idle_power_off``, like every other idle node)."""
        node = self._node(node_id)
        node.repair()
        if self.idle_power_off:
            node.power_off()
        self._watts[node_id] = node.current_power()
        self._free += 1

    # -- power integration -----------------------------------------------------

    @property
    def last_accrual(self) -> float:
        """End of the integrated history (s): the last :meth:`accrue` time."""
        return self._last_accrual

    def accrue(self, now: float) -> float:
        """Integrate power up to ``now``; call before any state change.

        Returns the watts of the segment ``[last_accrual, now)`` it
        appended, or 0.0 if no time passed.
        """
        if now < self._last_accrual - 1e-9:
            raise ValueError("accrual time went backwards")
        if now <= self._last_accrual:
            return 0.0
        watts = self.current_power()
        self._segments.append((self._last_accrual, now, watts))
        self._energy_joules += watts * (now - self._last_accrual)
        self._last_accrual = now
        return watts

    @property
    def energy_kwh(self) -> float:
        """Energy integrated so far (kWh)."""
        return self._energy_joules / units.JOULES_PER_KWH

    def power_segments(self) -> List[PowerSegment]:
        """The exact piecewise-constant power history as (t0, t1, watts).

        Consecutive segments are contiguous in time: each starts where
        the previous one ended.
        """
        return list(self._segments)

    def power_trace(self, step_seconds: float = POWER_TRACE_STEP_S) -> PowerTrace:
        """The power log resampled by :func:`resample_power`."""
        return resample_power(self._segments, step_seconds)

    def check_invariants(self) -> None:
        """Assert allocation bookkeeping consistency and that the kept
        node draws and counts equal a fresh scan (used by tests)."""
        for name, kept, scan in (
                ("power", self._watts, [nd.current_power() for nd in self.nodes]),
                ("n_free", self._free, self._scan_free()),
                ("n_busy", self._busy, self._scan_busy())):
            if kept != scan:
                raise AssertionError(f"kept {name} {kept} != scan {scan}")
        seen: Dict[int, int] = {}
        for job_id, held in self._alloc.items():
            if not held:
                raise AssertionError(f"job {job_id} holds zero nodes")
            for nd in held:
                if nd.node_id in seen:
                    raise AssertionError(
                        f"node {nd.node_id} allocated to jobs "
                        f"{seen[nd.node_id]} and {job_id}")
                if nd.state is not NodeState.BUSY or nd.job_id != job_id:
                    raise AssertionError(
                        f"node {nd.node_id} bookkeeping mismatch")
                seen[nd.node_id] = job_id
        for nd in self.nodes:
            if nd.state is NodeState.BUSY and nd.node_id not in seen:
                raise AssertionError(
                    f"busy node {nd.node_id} not in allocation map")
            if self.idle_power_off and nd.state is NodeState.IDLE:
                raise AssertionError(f"idle node {nd.node_id} powered on")
