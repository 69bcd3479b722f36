"""The benchmark's reference simulations against its committed outputs.

``perfbench/golden.json`` holds the outputs every benchmark simulation
must reproduce.  This test re-runs the reference pool entry of three
workloads in-process and compares: completed count and the SHA-256 job
digest (every start and end time) exactly, energy and carbon within the
benchmark's relative tolerance.  Any change to simulated results fails
here, without a benchmark run.  The benchmark files are only read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: the benchmark's golden tolerance for energy and carbon totals
REL_TOL = 1e-6


@pytest.fixture(scope="module")
def workloads():
    # import without writing bytecode next to the benchmark's files
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.fixture(scope="module")
def golden():
    with open(PERFBENCH / "golden.json") as f:
        return json.load(f)["workloads"]


@pytest.mark.parametrize("name", ["carbon-gate", "managed-site",
                                  "easy-large"])
def test_reference_entry_matches_golden(workloads, golden, name):
    ref = workloads.REFERENCE
    expected = golden[name][str(ref)]
    out = workloads.outcome_of(
        workloads.WORKLOADS[name].build(ref).rjms.run())
    assert out.completed == expected["completed"]
    assert out.digest == expected["digest"]
    assert out.energy_kwh == pytest.approx(expected["energy_kwh"],
                                           rel=REL_TOL)
    assert out.carbon_kg == pytest.approx(expected["carbon_kg"],
                                          rel=REL_TOL)
