"""Statistics used by the experiment harness (EXPERIMENTS.md values).

These are the exact definitions behind every number the benches print,
so paper-vs-measured comparisons are unambiguous:

* *daily statistics* — mean/std of the 24h-block means of a trace
  (Figure 2's series; Finland's quoted std of 47.21 is the **population**
  std of the daily means);
* *zone ratio* — ratio of monthly means (the "2.1x" claim);
* *relative saving* — (baseline - variant) / baseline, the headline of
  every policy bench.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.grid.intensity import CarbonIntensityTrace
from repro.grid.synthetic import generate_month

__all__ = [
    "daily_statistics",
    "zone_ratio",
    "zone_statistics_table",
    "relative_saving",
]


def daily_statistics(trace: CarbonIntensityTrace) -> Dict[str, float]:
    """Summary of a trace's daily-mean series.

    Returns ``mean`` (monthly mean), ``daily_std`` (population std of
    daily means — the paper's Finland statistic), ``daily_min``,
    ``daily_max``, and ``n_days``.
    """
    daily = trace.daily_means()
    return {
        "mean": float(trace.mean()),
        "daily_std": float(daily.std()),
        "daily_min": float(daily.min()),
        "daily_max": float(daily.max()),
        "n_days": int(daily.size),
    }


def zone_ratio(zone_a: str, zone_b: str, seed: int = 0,
               n_days: int = 31) -> float:
    """Ratio of the monthly mean intensities of two zones (a / b).

    ``zone_ratio("FI", "FR")`` reproduces the paper's 2.1x claim.
    """
    a = generate_month(zone_a, seed=seed, n_days=n_days)
    b = generate_month(zone_b, seed=seed, n_days=n_days)
    if b.mean() == 0:
        raise ValueError(f"zone {zone_b} has zero mean intensity")
    return a.mean() / b.mean()


def zone_statistics_table(zones: Iterable[str], seed: int = 0,
                          n_days: int = 31) -> List[Dict[str, object]]:
    """Per-zone daily statistics for a generated month (Figure 2 data)."""
    rows: List[Dict[str, object]] = []
    for z in zones:
        trace = generate_month(z, seed=seed, n_days=n_days)
        stats = daily_statistics(trace)
        stats["zone"] = z
        rows.append(stats)
    rows.sort(key=lambda r: r["mean"])
    return rows


def relative_saving(baseline: float, variant: float) -> float:
    """(baseline - variant) / baseline; positive = the variant saves."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return (baseline - variant) / baseline
