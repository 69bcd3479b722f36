"""GHG-protocol emission scopes (§1 of the paper).

The paper classifies an HPC system's carbon footprint into the three
GHG-protocol scopes:

* **Scope 1** — on-site emissions: direct fuel burning (backup diesel,
  on-site generation like RIKEN's) and staff activity;
* **Scope 2** — purchased grid electricity powering the system;
* **Scope 3** — carbon embodied in manufacturing the components.

Within HPC, *operational* carbon = Scope 1 + Scope 2, and *embodied*
carbon = Scope 3.  The paper (citing Lyu et al. and cloud-provider
reports) treats Scope 1 as negligible next to the other two; the
inventory here keeps it explicit so that exceptions (RIKEN-style on-site
generation) remain expressible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping

__all__ = ["Scope", "EmissionSource", "EmissionsInventory", "classify"]


class Scope(enum.IntEnum):
    """GHG-protocol emission scope."""

    SCOPE_1 = 1
    SCOPE_2 = 2
    SCOPE_3 = 3


#: Source-kind -> scope mapping used by :func:`classify`.
_SOURCE_SCOPES: Dict[str, Scope] = {
    # Scope 1: on-site
    "onsite_fuel": Scope.SCOPE_1,
    "backup_generator": Scope.SCOPE_1,
    "staff_activity": Scope.SCOPE_1,
    "refrigerant_leakage": Scope.SCOPE_1,
    # Scope 2: purchased energy
    "grid_electricity": Scope.SCOPE_2,
    "purchased_heat": Scope.SCOPE_2,
    "purchased_cooling": Scope.SCOPE_2,
    # Scope 3: embodied / upstream
    "component_manufacturing": Scope.SCOPE_3,
    "component_packaging": Scope.SCOPE_3,
    "transport": Scope.SCOPE_3,
    "disposal": Scope.SCOPE_3,
    "construction": Scope.SCOPE_3,
}


def classify(source_kind: str) -> Scope:
    """Map a source kind to its GHG-protocol scope.

    Raises ``KeyError`` (listing the known kinds) for unknown sources —
    silently guessing a scope would corrupt the inventory.
    """
    try:
        return _SOURCE_SCOPES[source_kind]
    except KeyError:
        raise KeyError(
            f"unknown emission source kind {source_kind!r}; known kinds: "
            f"{', '.join(sorted(_SOURCE_SCOPES))}") from None


@dataclass(frozen=True)
class EmissionSource:
    """One emission line item: a kind, a label, and a mass (kgCO2e)."""

    kind: str
    kg_co2e: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.kg_co2e < 0:
            raise ValueError("emissions cannot be negative")
        classify(self.kind)  # validate eagerly

    @property
    def scope(self) -> Scope:
        return classify(self.kind)


@dataclass
class EmissionsInventory:
    """A scope-classified collection of emission sources.

    Provides the operational/embodied split the paper's §1 defines:
    ``operational_kg`` = Scope 1 + Scope 2, ``embodied_kg`` = Scope 3.
    """

    sources: list[EmissionSource] = field(default_factory=list)

    def add(self, kind: str, kg_co2e: float, label: str = "") -> None:
        """Append a line item (validates the source kind)."""
        self.sources.append(EmissionSource(kind, kg_co2e, label))

    def by_scope(self) -> Mapping[Scope, float]:
        """Total kgCO2e per scope (all scopes present, possibly 0.0)."""
        totals = {s: 0.0 for s in Scope}
        for src in self.sources:
            totals[src.scope] += src.kg_co2e
        return totals

    @property
    def scope1_kg(self) -> float:
        return self.by_scope()[Scope.SCOPE_1]

    @property
    def scope2_kg(self) -> float:
        return self.by_scope()[Scope.SCOPE_2]

    @property
    def scope3_kg(self) -> float:
        return self.by_scope()[Scope.SCOPE_3]

    @property
    def operational_kg(self) -> float:
        """Scope 1 + Scope 2 (the paper's operational carbon)."""
        t = self.by_scope()
        return t[Scope.SCOPE_1] + t[Scope.SCOPE_2]

    @property
    def embodied_kg(self) -> float:
        """Scope 3 (the paper's embodied carbon)."""
        return self.by_scope()[Scope.SCOPE_3]

    @property
    def total_kg(self) -> float:
        return sum(src.kg_co2e for src in self.sources)

    def merged(self, other: "EmissionsInventory") -> "EmissionsInventory":
        """A new inventory holding both inventories' sources."""
        return EmissionsInventory(list(self.sources) + list(other.sources))

    def summary(self) -> str:
        """Human-readable scope summary (used in site reports)."""
        t = self.by_scope()
        total = self.total_kg
        lines = ["Emissions inventory (kgCO2e):"]
        for s in Scope:
            pct = 100.0 * t[s] / total if total else 0.0
            lines.append(f"  Scope {int(s)}: {t[s]:14.1f}  ({pct:5.1f}%)")
        lines.append(f"  Total  : {total:14.1f}")
        lines.append(f"  operational (S1+S2): {self.operational_kg:.1f}  "
                     f"embodied (S3): {self.embodied_kg:.1f}")
        return "\n".join(lines)
