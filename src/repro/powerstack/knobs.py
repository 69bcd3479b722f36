"""Hardware knobs: the cap clamping rule.

The PowerStack's lowest layer "sets up hardware knobs, typically power
caps" (§3.1).  In the simulator the knob is
:meth:`repro.simulator.node.Node.set_cap`; this module provides the
clamping rule that keeps caps physically meaningful (a cap can never
go below the node's idle draw — RAPL-style caps throttle dynamic power,
they do not power the node off; node shutdown is an allocation
decision, §3.2).
"""

from __future__ import annotations

from typing import Optional

from repro.simulator.power import NodePowerModel

__all__ = ["clamp_cap"]


def clamp_cap(cap_watts: Optional[float],
              power_model: NodePowerModel) -> Optional[float]:
    """Clamp a requested cap into the node's feasible range.

    ``None`` (uncapped) passes through; values above peak are pointless
    and normalize to ``None``; values below idle clamp *up* to idle.
    """
    if cap_watts is None:
        return None
    if cap_watts >= power_model.peak_watts:
        return None
    return max(cap_watts, power_model.idle_watts)
