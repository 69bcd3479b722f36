"""ASCII renderings of the paper's figures and tables.

The reproduction runs headless (no matplotlib in the target
environment), so each figure is rendered as an aligned text chart the
benches print and EXPERIMENTS.md embeds.  Numbers come from the models,
never from literals — rendering and asserting share the same source.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.analysis.stats import zone_statistics_table
from repro.embodied.carbon500 import Carbon500Entry
from repro.embodied.lifecycle import LRZ_SYSTEM_HISTORY, LifetimeRecord
from repro.embodied.systems import (
    KNOWN_SYSTEMS,
    SystemInventory,
    system_embodied_breakdown,
)

__all__ = [
    "ascii_bar",
    "render_fig1",
    "render_fig2",
    "render_table1",
    "render_carbon500",
]


def ascii_bar(value: float, max_value: float, width: int = 40) -> str:
    """A proportional bar of '#' characters."""
    if max_value <= 0:
        raise ValueError("max_value must be positive")
    if value < 0:
        raise ValueError("value must be non-negative")
    n = int(round(width * min(value, max_value) / max_value))
    return "#" * n


def render_fig1(systems: Optional[Sequence[SystemInventory]] = None) -> str:
    """Figure 1: embodied carbon breakdown of the Top-3 German systems."""
    if systems is None:
        systems = [KNOWN_SYSTEMS["Juwels Booster"],
                   KNOWN_SYSTEMS["SuperMUC-NG"],
                   KNOWN_SYSTEMS["Hawk"]]
    lines = ["Figure 1 — Embodied carbon footprint contribution by component",
             ""]
    for s in systems:
        b = system_embodied_breakdown(s)
        total = b["total"]
        lines.append(f"{s.name}  (total {total / 1e3:.0f} tCO2e)")
        for comp in ("cpu", "gpu", "memory", "storage"):
            share = b[comp] / total
            lines.append(f"  {comp:8s} {share * 100:5.1f}%  "
                         f"{ascii_bar(share, 1.0)}")
        ms = (b["memory"] + b["storage"]) / total
        lines.append(f"  memory+storage share: {ms * 100:.1f}%")
        lines.append("")
    return "\n".join(lines)


def render_fig2(zones: Optional[Iterable[str]] = None, seed: int = 0,
                n_days: int = 31) -> str:
    """Figure 2: averaged daily marginal carbon intensities, Jan 2023."""
    from repro.grid.zones import list_zones

    zones = list(zones) if zones is not None else list_zones()
    rows = zone_statistics_table(zones, seed=seed, n_days=n_days)
    max_mean = max(r["mean"] for r in rows)
    lines = ["Figure 2 — Averaged daily marginal carbon intensities, Jan 2023",
             "", f"{'zone':5s} {'mean':>7s} {'dailystd':>9s} "
             f"{'min':>7s} {'max':>7s}"]
    for r in rows:
        lines.append(
            f"{r['zone']:5s} {r['mean']:7.1f} {r['daily_std']:9.2f} "
            f"{r['daily_min']:7.1f} {r['daily_max']:7.1f}  "
            f"{ascii_bar(r['mean'], max_mean, width=30)}")
    return "\n".join(lines)


def render_table1(history: Optional[Sequence[LifetimeRecord]] = None,
                  as_of_year: int = 2026) -> str:
    """Table 1: recent modern HPC systems at LRZ."""
    history = list(history) if history is not None else LRZ_SYSTEM_HISTORY
    lines = ["Table 1 — Recent modern HPC systems at LRZ", "",
             f"{'HPC System':24s} {'Start':>6s} {'Decomm.':>8s} {'Years':>6s}"]
    for rec in history:
        dec = str(rec.decommission_year) if rec.decommission_year else "-"
        years = rec.lifetime_years(as_of_year=as_of_year)
        suffix = "" if rec.decommission_year else "+"
        lines.append(f"{rec.name:24s} {rec.start_year:>6d} {dec:>8s} "
                     f"{years:>5.0f}{suffix}")
    return "\n".join(lines)


def render_carbon500(entries: Sequence[Carbon500Entry]) -> str:
    """The proposed Carbon500 list (§2.2)."""
    lines = ["Carbon500 — performance per total carbon rate", "",
             f"{'#':>2s} {'System':16s} {'PFLOP/s':>9s} {'emb t/yr':>9s} "
             f"{'op t/yr':>9s} {'PFLOPs/(t/yr)':>14s}"]
    for e in entries:
        lines.append(
            f"{e.rank:>2d} {e.name:16s} {e.perf_pflops:>9.1f} "
            f"{e.embodied_rate_tonnes_per_year:>9.1f} "
            f"{e.operational_rate_tonnes_per_year:>9.1f} "
            f"{e.carbon_efficiency:>14.3f}")
    return "\n".join(lines)
