"""Job-level power manager: split a job's budget across its nodes.

The third layer of the PowerStack hierarchy (§3.1): "the power budget
at each node is split and assigned to the in-node hardware components
(e.g., CPUs, GPUs, and DRAMs) by setting up their hardware knobs".

For the homogeneous nodes of the simulator the optimal split of a job
budget is the equal split (identical nodes, identical workload shard —
any imbalance would slow the critical path without saving power), so
:class:`JobPowerManager` computes the per-node cap, clamps it into the
feasible range, and reports the in-node component breakdown
proportionally to each component's dynamic range — which is how
production stacks (e.g. GEOPM-style agents) divide a node budget
between CPU, GPU and DRAM domains in their default policy.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.powerstack.knobs import clamp_cap
from repro.simulator.power import NodePowerModel

__all__ = ["JobPowerManager"]


class JobPowerManager:
    """Split a job power budget into per-node cap commands."""

    def __init__(self, power_model: NodePowerModel) -> None:
        self.power_model = power_model

    def cap(self, job_budget_watts: float, n_nodes: int) -> Optional[float]:
        """Per-node cap of an equal split of ``job_budget_watts`` (None:
        uncapped); :meth:`component_split` divides a node budget further.

        Raises
        ------
        ValueError
            If the budget cannot even hold the nodes at idle — the job
            manager must then hand the problem back up (shrink the
            allocation, §3.2) instead of silently under-capping.
        """
        if n_nodes < 1:
            raise ValueError("job has no nodes")
        if job_budget_watts <= 0:
            raise ValueError("job budget must be positive")
        per_node = job_budget_watts / n_nodes
        if per_node < self.power_model.idle_watts - 1e-9:
            raise ValueError(
                f"budget {job_budget_watts:.0f} W cannot hold {n_nodes} nodes "
                f"at idle ({self.power_model.idle_watts:.0f} W each); "
                "shrink the allocation instead")
        return clamp_cap(per_node, self.power_model)

    def component_split(self, node_budget_watts: float) -> Dict[str, float]:
        """Divide a node budget across components.

        Each component gets its idle power plus a share of the remaining
        dynamic budget proportional to its dynamic range.
        """
        pm = self.power_model
        if node_budget_watts < pm.idle_watts - 1e-9:
            raise ValueError("node budget below idle power")
        dyn_budget = min(node_budget_watts, pm.peak_watts) - pm.idle_watts
        comps = list(pm.cpus) + list(pm.gpus) + [pm.dram]
        total_dyn = sum(c.dynamic_range_watts for c in comps)
        out: Dict[str, float] = {"base": pm.base_watts}
        for i, c in enumerate(comps):
            share = (c.dynamic_range_watts / total_dyn) if total_dyn else 0.0
            key = c.name if c.name not in out else f"{c.name}.{i}"
            out[key] = c.idle_watts + share * dyn_budget
        return out
