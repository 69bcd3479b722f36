"""The benchmark's reference simulations against its committed outputs.

``perfbench/golden.json`` holds the outputs every benchmark simulation
must reproduce.  This test re-runs the reference pool entry of three
workloads in-process and compares: completed count and the SHA-256 job
digest (every start and end time) exactly, energy and carbon within the
benchmark's relative tolerance.  Any change to simulated results fails
here, without a benchmark run.  One more case runs a reference entry
through the benchmark's traced mode (``perfbench/layers.py``), so a
change that breaks what its layer probes read fails here too, and two
check the telemetry view of a reference run against the per-step writer
it replaced.  The rest pin the work the carbon gate, the site
controller and the checkpoint manager do over seeds 1-3: how often they
request history, fit, distribute the budget and take percentiles, and
that the gate's slot means stay inside its forecast.  The benchmark
files are only read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.grid.forecast import Forecaster
from repro.grid.intensity import CarbonIntensityTrace

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
    # three sensors, one reading each per accrual step
    assert metrics["rjms.telemetry_points"] == \
        3 * metrics["rjms.power_segments"]


@pytest.mark.parametrize("name", ["carbon-gate", "easy-large"])
def test_reference_entry_telemetry_equals_the_step_writer(workloads, name):
    """The telemetry view of a reference run equals, by ``==``, what the
    previous writer recorded at every accrual step."""
    from tests.scheduler.test_telemetry_view import (
        assert_same_telemetry, attach_reference_writer)

    rjms = workloads.WORKLOADS[name].build(workloads.REFERENCE).rjms
    reference = attach_reference_writer(rjms)
    assert_same_telemetry(rjms.run().telemetry, reference)


@pytest.mark.parametrize("name, requests", [("carbon-gate", 1675),
                                            ("managed-site", 441)])
def test_history_requests_equal_distinct_ranges(workloads, name, requests):
    """Over seeds 1-3, the gate and the checkpoint manager request each
    history window once: a request per distinct sample range, not per
    tick (4,841 and 1,748 requests before the range key)."""
    total = 0
    for seed in (1, 2, 3):
        rjms = workloads.WORKLOADS[name].build(seed).rjms
        service, ranges = rjms.provider, []
        history = service.history

        def recorded(t0, t1):
            ranges.append(service.backend.history_range(t0, t1))
            return history(t0, t1)

        service.history = recorded
        rjms.run()
        assert len(ranges) == len(set(ranges))
        total += len(ranges)
    assert total == requests


@pytest.mark.parametrize("name, owner, method, calls", [
    ("carbon-gate", Forecaster, "fit", 1675),
    ("managed-site", CarbonIntensityTrace, "percentile", 441)])
def test_history_derivations_equal_requests(workloads, monkeypatch, name,
                                            owner, method, calls):
    """Over seeds 1-3, the gate fits its forecaster and the checkpoint
    manager takes its percentiles once per history request: what each
    derives from a window is keyed on the window object its
    ``TrailingHistory`` hands back."""
    count = [0]
    derive = getattr(owner, method)

    def counted(*args, **kwargs):
        count[0] += 1
        return derive(*args, **kwargs)

    monkeypatch.setattr(owner, method, counted)
    for seed in (1, 2, 3):
        workloads.WORKLOADS[name].build(seed).rjms.run()
    assert count[0] == calls


def test_site_ticks_recompute_only_changed_caps(workloads, monkeypatch):
    """Over managed-site seeds 1-3, the site controller distributes the
    budget only when the inputs of its caps change (1,876 calls when it
    recomputed every tick), and the checkpoint manager's thresholds make
    no ``np.percentile`` call (441 before they came from one sort)."""
    from repro.powerstack.sysmgr import SystemPowerManager

    counts = {"distribute": 0, "percentile": 0}
    distribute, percentile = SystemPowerManager.distribute, np.percentile

    def counted_distribute(*args, **kwargs):
        counts["distribute"] += 1
        return distribute(*args, **kwargs)

    def counted_percentile(*args, **kwargs):
        counts["percentile"] += 1
        return percentile(*args, **kwargs)

    monkeypatch.setattr(SystemPowerManager, "distribute", counted_distribute)
    monkeypatch.setattr(np, "percentile", counted_percentile)
    for seed in (1, 2, 3):
        workloads.WORKLOADS["managed-site"].build(seed).rjms.run()
    assert counts == {"distribute": 929, "percentile": 0}


def test_gate_batches_stay_in_range(workloads, monkeypatch):
    """Over carbon-gate seeds 1-3, every batch of slot means the gate
    scores lies inside its forecast, so none takes ``_integrate_array``'s
    clamped path (680 of the 2,150 did while unread row ends ran past
    the forecast)."""
    from repro.grid.intensity import CarbonIntensityTrace

    counts = {"batches": 0, "clamped": 0}
    integrate = CarbonIntensityTrace._integrate_array

    def counted(trace, t0, t1):
        if t1.ndim == 2:
            end = trace.start_time + trace.values.size * trace.step_seconds
            counts["batches"] += 1
            counts["clamped"] += not (t0.min() >= trace.start_time
                                      and t1.max() <= end
                                      and (t1 >= t0).all())
        return integrate(trace, t0, t1)

    monkeypatch.setattr(CarbonIntensityTrace, "_integrate_array", counted)
    for seed in (1, 2, 3):
        workloads.WORKLOADS["carbon-gate"].build(seed).rjms.run()
    assert counts == {"batches": 2150, "clamped": 0}
