"""Dimensional-consistency linter for the carbon stack (``repro.lint``).

The whole reproduction hinges on numerically faithful carbon arithmetic:
Fig. 1 embodied shares, the Fig. 2 intensity claims, and every scheduler
benchmark are unit-laden pipelines over W, kWh, gCO2e and gCO2e/kWh.
:mod:`repro.units` documents the canonical units; this package *enforces*
them statically.

The linter is a stdlib-:mod:`ast` analyzer that infers physical dimensions
from the repo's naming convention (``_kwh``, ``_watts``, ``_g_per_kwh``,
``_seconds``, ...) plus the constants and converters in :mod:`repro.units`,
and reports:

``unit-mix``
    ``+``/``-``/comparison between incompatible dimensions or scales
    (e.g. adding grams to kilograms).
``unit-assign``
    assigning or passing a value with one inferred unit into a name or
    keyword parameter carrying another (kg into a ``_g`` slot).
``derived-dim``
    a ``*``/``/`` expression whose derived dimension contradicts the name
    it is bound to (``power_watts * hours`` stored in ``energy_kwh``
    without the ``WH_PER_KWH`` factor).
``unsuffixed-field``
    a numeric dataclass field that plainly holds a carbon/energy/power
    quantity but carries no unit suffix.
``magic-constant``
    an inline conversion constant (``3.6e6``, ``3600``, ``8760``, ...)
    where a named :mod:`repro.units` constant exists.

Findings can be suppressed per line with ``# repro-lint: ignore[rule]``
(see :mod:`repro.lint.engine`); there is no baseline file, the tree is
kept at zero findings.  Run it as ``python -m repro.lint [paths]``
or ``repro lint``; the meta-test ``tests/lint/test_repo_clean.py`` gates
CI on a clean tree.
"""

from __future__ import annotations

from repro.lint.dimensions import (
    DIMENSIONLESS,
    Unit,
    parse_name,
    unit_of_call,
)
from repro.lint.engine import lint_file, lint_paths, lint_source
from repro.lint.report import Finding, render_json, render_text
from repro.lint.rules import RULES, Rule

__all__ = [
    "DIMENSIONLESS",
    "Finding",
    "RULES",
    "Rule",
    "Unit",
    "lint_file",
    "lint_paths",
    "lint_source",
    "parse_name",
    "render_json",
    "render_text",
    "unit_of_call",
]
