"""Export accounting artifacts to CSV/JSON — the ops-tooling edge.

§3.4 asks for carbon data to be "integrated into job reports, ensuring
accessibility to HPC users"; in practice that means feeds into the
site's billing and dashboard pipelines.  This module serializes the two
artifacts those pipelines consume:

* per-job carbon reports (:func:`reports_to_csv` / :func:`reports_to_json`);
* the core-hour ledger with its green discounts (:func:`ledger_to_csv`).

JSON is emitted via the standard library; CSV columns are stable and
documented here so downstream parsers can rely on them.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence, TextIO, Union

from repro.accounting.corehours import CoreHourLedger
from repro.accounting.reports import JobCarbonReport

__all__ = ["reports_to_csv", "reports_to_json", "ledger_to_csv"]

REPORT_COLUMNS = [
    "job_id", "user", "project", "n_nodes", "runtime_s", "energy_kwh",
    "carbon_kg", "mean_intensity", "green_fraction",
    "overallocation_waste_kwh",
]

LEDGER_COLUMNS = [
    "job_id", "project", "raw_core_hours", "billed_core_hours",
    "discount_core_hours", "green_fraction",
]


def _open(dest: Union[str, Path, TextIO]):
    own = isinstance(dest, (str, Path))
    fh = open(dest, "w", newline="") if own else dest
    return fh, own


def reports_to_csv(reports: Sequence[JobCarbonReport],
                   dest: Union[str, Path, TextIO]) -> None:
    """Write job carbon reports as CSV with :data:`REPORT_COLUMNS`."""
    fh, own = _open(dest)
    try:
        w = csv.writer(fh)
        w.writerow(REPORT_COLUMNS)
        for r in reports:
            w.writerow([r.job_id, r.user, r.project, r.n_nodes,
                        f"{r.runtime_s:.3f}", f"{r.energy_kwh:.6f}",
                        f"{r.carbon_kg:.6f}", f"{r.mean_intensity_g_per_kwh:.3f}",
                        f"{r.green_fraction:.4f}",
                        f"{r.overallocation_waste_kwh:.6f}"])
    finally:
        if own:
            fh.close()


def reports_to_json(reports: Sequence[JobCarbonReport]) -> str:
    """Serialize job carbon reports to a JSON array string."""
    return json.dumps([
        {
            "job_id": r.job_id,
            "user": r.user,
            "project": r.project,
            "n_nodes": r.n_nodes,
            "runtime_s": r.runtime_s,
            "energy_kwh": r.energy_kwh,
            "carbon_kg": r.carbon_kg,
            "mean_intensity": r.mean_intensity_g_per_kwh,
            "green_fraction": r.green_fraction,
            "overallocation_waste_kwh": r.overallocation_waste_kwh,
            "analogy": r.analogy,
        }
        for r in reports
    ], indent=2)


def ledger_to_csv(ledger: CoreHourLedger,
                  dest: Union[str, Path, TextIO]) -> None:
    """Write the charge log as CSV with :data:`LEDGER_COLUMNS`."""
    fh, own = _open(dest)
    try:
        w = csv.writer(fh)
        w.writerow(LEDGER_COLUMNS)
        for rec in ledger.records:
            w.writerow([rec.job_id, rec.project,
                        f"{rec.raw_core_hours:.4f}",
                        f"{rec.billed_core_hours:.4f}",
                        f"{rec.discount_core_hours:.4f}",
                        f"{rec.green_fraction:.4f}"])
    finally:
        if own:
            fh.close()
