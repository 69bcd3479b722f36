"""Chiplet integration and packaging carbon.

Section 2.1 of the paper: "recent HPC processors are typically composed
of multiple chiplets, which are integrated via the 2.5D silicon
interposer technology, and they can include different modules
manufactured by different fabrications.  For instance, Intel's Ponte
Vecchio GPU consists of 63 chiplets, manufactured with five different
technology nodes."

Packaging carbon here follows the ACT decomposition: a fixed per-package
substrate/assembly cost, a per-chiplet bonding cost (each attach step
adds handling, underfill, test), and — for 2.5D — the silicon interposer
itself, which is a large but cheap-per-area die manufactured on a mature
node.  Package assembly also has a yield: every extra chiplet is another
chance to scrap the whole (partially assembled) package, which is the
fundamental carbon trade-off of disintegration explored by
:mod:`repro.embodied.dse`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.embodied.act import FabProcess, die_yield, wafer_carbon_per_cm2

__all__ = ["PackageSpec", "package_yield", "packaging_carbon", "interposer_carbon"]

#: Carbon of substrate + assembly line per package (kgCO2e).
BASE_PACKAGE_KG = 0.45
#: Carbon per chiplet attach step (kgCO2e).
PER_CHIPLET_ATTACH_KG = 0.12
#: Per-attach success probability for the package yield model.
ATTACH_YIELD = 0.995
#: Mature node used for silicon interposers.
INTERPOSER_NODE_NM = 28
#: Interposers are passive dies with micrometre-scale features; their
#: effective defect density is far below logic D0 on the same node.
INTERPOSER_DEFECT_DENSITY = 0.005


@dataclass(frozen=True)
class PackageSpec:
    """How a processor's chiplets are integrated.

    Parameters
    ----------
    technology:
        ``"monolithic"`` (single die, minimal packaging),
        ``"organic"`` (chiplets on an organic substrate, EPYC-style),
        ``"interposer_2_5d"`` (silicon interposer, A100/Ponte-Vecchio
        style), or ``"3d"`` (die stacking; highest per-attach cost).
    interposer_area_mm2:
        Area of the silicon interposer (2.5D only). Defaults to 0;
        callers typically pass ~1.1x the summed chiplet area.
    interposer_fab_location:
        Fab location name for the interposer (mature-node fab).
    """

    technology: str = "monolithic"
    interposer_area_mm2: float = 0.0
    interposer_fab_location: str = "TW"

    _TECH_ATTACH_MULT = {
        "monolithic": 0.0,
        "organic": 1.0,
        "interposer_2_5d": 1.4,
        "3d": 2.2,
    }

    def __post_init__(self) -> None:
        if self.technology not in self._TECH_ATTACH_MULT:
            raise ValueError(
                f"unknown packaging technology {self.technology!r}; "
                f"choose from {sorted(self._TECH_ATTACH_MULT)}")
        if self.interposer_area_mm2 < 0:
            raise ValueError("interposer area must be non-negative")
        if self.interposer_area_mm2 > 0 and self.technology != "interposer_2_5d":
            raise ValueError("interposer area only applies to interposer_2_5d")

    @property
    def attach_multiplier(self) -> float:
        return self._TECH_ATTACH_MULT[self.technology]


def package_yield(n_chiplets: int, attach_yield: float = ATTACH_YIELD) -> float:
    """Probability that all chiplet attaches succeed.

    Monolithic parts (``n_chiplets == 1``) have no attach step, so the
    package yield is 1; known-good-die testing is assumed, so only the
    attach itself can fail.
    """
    if n_chiplets < 1:
        raise ValueError("a package holds at least one chiplet")
    if not 0 < attach_yield <= 1:
        raise ValueError("attach_yield must be in (0, 1]")
    if n_chiplets == 1:
        return 1.0
    return attach_yield ** n_chiplets


def interposer_carbon(area_mm2: float, fab_location: str = "TW") -> float:
    """Embodied carbon (kgCO2e) of one good silicon interposer.

    Manufactured on a mature node; yields with the low passive-die
    defect density rather than the node's logic D0.
    """
    if area_mm2 <= 0:
        raise ValueError("interposer area must be positive")
    fab = FabProcess.named(INTERPOSER_NODE_NM, fab_location)
    y = die_yield(area_mm2, INTERPOSER_DEFECT_DENSITY)
    return wafer_carbon_per_cm2(fab) * (area_mm2 / 100.0) / y


def packaging_carbon(spec: PackageSpec, n_chiplets: int) -> float:
    """Packaging carbon (kgCO2e) for one *good* package.

    Base substrate + per-attach cost (scaled by technology) + the
    interposer die (2.5D), all divided by the package assembly yield —
    a scrapped package wastes everything already attached.
    """
    if n_chiplets < 1:
        raise ValueError("a package holds at least one chiplet")
    cost = BASE_PACKAGE_KG
    if n_chiplets > 1:
        cost += PER_CHIPLET_ATTACH_KG * spec.attach_multiplier * n_chiplets
    if spec.technology == "interposer_2_5d" and spec.interposer_area_mm2 > 0:
        cost += interposer_carbon(spec.interposer_area_mm2,
                                  spec.interposer_fab_location)
    return cost / package_yield(n_chiplets)
