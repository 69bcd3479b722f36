"""The RJMS's telemetry is a view of its accrual steps, built on read.

The previous writer made three ``record`` calls per accrual step into an
append-only store.  It is kept here as the reference: every series the
view builds (times, values and units) must equal what it wrote, by
``==``.
"""

import dataclasses
import pickle
from bisect import bisect_left

import numpy as np
import pytest

from repro.grid import SyntheticProvider
from repro.scheduler import RJMS, EasyBackfillPolicy
from repro.scheduler.rjms import step_telemetry
from repro.simulator import (
    Cluster,
    Sensor,
    TelemetryDB,
    WorkloadConfig,
    WorkloadGenerator,
)
from tests.integration.test_properties import managed_site


class ReferenceTelemetry:
    """The append-only store the RJMS used to write, step by step."""

    def __init__(self):
        self._sensors, self._times, self._values = {}, {}, {}

    def register(self, sensor):
        existing = self._sensors.get(sensor.name)
        if existing is not None:
            assert existing.unit == sensor.unit
            return
        self._sensors[sensor.name] = sensor
        self._times[sensor.name] = []
        self._values[sensor.name] = []

    def record(self, name, time, value):
        times = self._times[name]
        assert not times or time >= times[-1] - 1e-9
        times.append(float(time))
        self._values[name].append(float(value))

    def sensors(self):
        return sorted(self._sensors)

    def unit_of(self, name):
        return self._sensors[name].unit

    def series(self, name, t0=None, t1=None):
        times = self._times[name]
        lo = 0 if t0 is None else bisect_left(times, t0)
        hi = len(times) if t1 is None else bisect_left(times, t1)
        return (np.asarray(times[lo:hi], dtype=np.float64),
                np.asarray(self._values[name][lo:hi], dtype=np.float64))


def attach_reference_writer(rjms):
    """Record each accrual step into a :class:`ReferenceTelemetry` the
    way the RJMS used to: at ``t0``, the watts ``Cluster.accrue``
    returned, the step's integral over its length and the busy nodes,
    in that order.  Reads the cluster and the provider's integral, not
    the step record under test."""
    db = ReferenceTelemetry()
    db.register(Sensor("cluster.power", "W"))
    db.register(Sensor("grid.intensity", "gCO2/kWh"))
    db.register(Sensor("cluster.nodes_busy", "nodes"))
    cluster, provider = rjms.cluster, rjms.provider
    accrue, integrate = cluster.accrue, provider.integrate_intensity
    step = []

    def accrued(now):
        t0 = cluster.last_accrual
        watts = accrue(now)
        if now > t0:
            step[:] = [t0, now, watts, cluster.n_busy]
        return watts

    def integrated(t0, t1):
        integral = integrate(t0, t1)
        s0, s1, watts, busy = step
        assert (t0, t1) == (s0, s1)
        step.clear()
        db.record("cluster.power", t0, watts)
        db.record("grid.intensity", t0, integral / (t1 - t0))
        db.record("cluster.nodes_busy", t0, busy)
        return integral

    cluster.accrue = accrued
    provider.integrate_intensity = integrated
    return db


def assert_same_telemetry(view, reference):
    assert view.sensors() == reference.sensors()
    for name in reference.sensors():
        assert view.unit_of(name) == reference.unit_of(name)
        for got, want in zip(view.series(name), reference.series(name)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), name
    assert len(reference.series("cluster.power")[0]) > 0


def small_run(node_power_model):
    jobs = WorkloadGenerator(WorkloadConfig(n_jobs=12, max_nodes_log2=3),
                             seed=5).generate()
    return RJMS(Cluster(8, node_power_model), jobs, EasyBackfillPolicy(),
                provider=SyntheticProvider("DE", seed=1))


class TestDifferential:
    @pytest.mark.parametrize("idle_power_off", [False, True],
                             ids=["idle-on", "idle-off"])
    @pytest.mark.parametrize("seed", range(6))
    def test_managed_site_equals_the_step_writer(self, seed,
                                                 idle_power_off):
        """Failures, suspend/resume, resizes and caps: the view of the
        result and of the RJMS both equal the per-step writer's store."""
        rjms = managed_site(seed, idle_power_off)
        reference = attach_reference_writer(rjms)
        result = rjms.run()
        assert_same_telemetry(result.telemetry, reference)
        assert_same_telemetry(rjms.telemetry, reference)


class TestTelemetryOnRead:
    """A run stores only its steps; the telemetry database is built when
    something reads it."""

    def test_run_builds_no_telemetry(self, node_power_model, monkeypatch):
        built = []
        init = TelemetryDB.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(TelemetryDB, "__init__", counted)
        result = small_run(node_power_model).run()
        assert built == []
        db = result.telemetry
        assert built == [db]
        assert result.telemetry is db

    def test_mid_run_read_sees_the_steps_so_far(self, node_power_model):
        rjms = small_run(node_power_model)
        seen = []

        class Reader:
            def on_tick(self, rjms):
                times, watts = rjms.telemetry.series("cluster.power")
                seen.append((times, watts, rjms.cluster.power_segments()))
        rjms.register_manager(Reader())
        rjms.run()
        assert len(seen) > 3
        for times, watts, segments in seen:
            assert times.tolist() == [t0 for t0, _, _ in segments]
            assert watts.tolist() == [w for _, _, w in segments]
        assert len(seen[-1][0]) > len(seen[0][0])

    def test_copies_give_equal_series(self, node_power_model):
        result = small_run(node_power_model).run()
        copies = (dataclasses.replace(result, total_carbon_kg=0.0),
                  pickle.loads(pickle.dumps(result)))
        for copy in copies:
            assert copy.telemetry is not result.telemetry
            assert_same_telemetry(copy.telemetry, result.telemetry)

    def test_unequal_lengths_raise(self):
        segments = [(0.0, 10.0, 100.0), (10.0, 20.0, 200.0)]
        with pytest.raises(ValueError, match="values"):
            step_telemetry(segments, [(5000.0, 1, 100.0)])
        with pytest.raises(ValueError, match="values"):
            step_telemetry(segments[:1], [(5000.0, 1, 100.0)] * 2)
