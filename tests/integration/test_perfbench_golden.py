"""The benchmark's reference simulations against its committed outputs.

``perfbench/golden.json`` holds the outputs every benchmark simulation
must reproduce.  This test re-runs the reference pool entry of three
workloads in-process and compares: completed count and the SHA-256 job
digest (every start and end time) exactly, energy and carbon within the
benchmark's relative tolerance.  Any change to simulated results fails
here, without a benchmark run.  One more case runs a reference entry
through the benchmark's traced mode (``perfbench/layers.py``), so a
change that breaks what its layer probes read fails here too.  The
benchmark files are only read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro import obs

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


def test_traced_reference_entry_reports_every_layer(workloads, golden):
    name, ref = "managed-site", workloads.REFERENCE
    layers = workloads.layers
    sim = workloads.WORKLOADS[name].build(ref)
    with obs.scope() as tracer:
        obs.reset()
        result = layers.run_traced(sim.rjms, sim.managers)
        summary = layers.summarize(tracer.drain())
    obs.reset()
    assert workloads.outcome_of(result).digest == \
        golden[name][str(ref)]["digest"]
    metrics = layers.layer_metrics(summary)
    # sweep.* counts come from the sweep workload, not from one simulation
    expected = [m for m in layers.COUNT_METRICS if not m.startswith("sweep.")]
    assert [m for m in expected if m not in metrics] == []
    assert metrics["service.lookups"] > 0
