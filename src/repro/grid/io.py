"""CSV import/export for carbon-intensity traces.

Real deployments would feed the toolkit from a grid data provider's CSV
exports (ElectricityMaps and national TSOs all offer them).  This module
is that adapter: a minimal, dependency-free CSV round-trip with explicit
validation, so a site can drop its own measured intensity data into any
experiment in place of the synthetic zones.

Format: a header line ``time_s,intensity_g_per_kwh`` followed by one row
per sample.  Sampling must be regular; the step is inferred from the
first two rows and every subsequent row is checked against it (provider
exports with gaps must be repaired upstream — silently interpolating
would corrupt carbon accounting).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from repro.grid.intensity import CarbonIntensityTrace

__all__ = ["read_trace_csv", "write_trace_csv"]

_HEADER = ["time_s", "intensity_g_per_kwh"]


def write_trace_csv(trace: CarbonIntensityTrace,
                    dest: Union[str, Path, TextIO]) -> None:
    """Write a trace as CSV (header + one row per sample)."""
    own = isinstance(dest, (str, Path))
    fh: TextIO = open(dest, "w", newline="") if own else dest  # type: ignore[arg-type]
    try:
        w = csv.writer(fh)
        w.writerow(_HEADER)
        for t, v in zip(trace.times, trace.values):
            w.writerow([f"{t:.6f}", f"{v:.6f}"])
    finally:
        if own:
            fh.close()


def read_trace_csv(src: Union[str, Path, TextIO],
                   zone: str = "") -> CarbonIntensityTrace:
    """Read a trace written by :func:`write_trace_csv` (or any CSV with
    the same two columns).

    Tolerates the rough edges of provider exports: a UTF-8 BOM, CRLF
    line endings, padded cells, and trailing blank (or whitespace-only)
    lines.  Validation errors name the offending CSV line number.

    Raises
    ------
    ValueError
        On a wrong header, fewer than two rows, irregular sampling,
        non-monotone times, or unparseable values.
    """
    own = isinstance(src, (str, Path))
    fh: TextIO = open(src, "r", newline="") if own else src  # type: ignore[arg-type]
    try:
        r = csv.reader(fh)
        try:
            header = next(r)
        except StopIteration:
            raise ValueError("empty CSV") from None
        cleaned = [h.lstrip("\ufeff").strip() for h in header]
        if cleaned != _HEADER:
            raise ValueError(
                f"unexpected header {header!r}; expected {_HEADER}")
        times = []
        values = []
        line_nos = []
        for lineno, row in enumerate(r, start=2):
            cells = [c.strip() for c in row]
            if not any(cells):  # blank or whitespace-only row
                continue
            if len(cells) != 2:
                raise ValueError(f"line {lineno}: expected 2 columns, "
                                 f"got {len(cells)}")
            try:
                times.append(float(cells[0]))
                values.append(float(cells[1]))
            except ValueError:
                raise ValueError(
                    f"line {lineno}: unparseable values {row!r}") from None
            line_nos.append(lineno)
    finally:
        if own:
            fh.close()

    if len(times) < 2:
        raise ValueError("need at least two samples to infer the step")
    t = np.asarray(times)
    steps = np.diff(t)
    step = steps[0]
    if step <= 0:
        raise ValueError(
            f"times must be strictly increasing "
            f"(line {line_nos[1]}: {t[1]:g} follows {t[0]:g})")
    bad = np.flatnonzero(
        ~np.isclose(steps, step, rtol=0, atol=1e-6 * max(step, 1.0)))
    if bad.size:
        first = int(bad[0])
        raise ValueError(
            f"irregular sampling at line {line_nos[first + 1]}: step "
            f"{steps[first]:g} s differs from inferred {step:g} s; "
            f"repair gaps before importing")
    return CarbonIntensityTrace(np.asarray(values), float(step),
                                float(t[0]), zone)
