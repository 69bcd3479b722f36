"""Tests for the DCDB-style telemetry store."""

import pytest

from repro.simulator import Sensor, TelemetryDB


class TestSensors:
    def test_unit_conflict_raises(self):
        with pytest.raises(ValueError, match="unit"):
            TelemetryDB([(Sensor("power", "W"), [], []),
                         (Sensor("power", "kW"), [], [])])

    def test_unit_conflict_names_sensor_and_both_units(self):
        """The error must say which sensor clashed and show the
        first unit alongside the rejected one."""
        with pytest.raises(ValueError) as exc:
            TelemetryDB([(Sensor("node.power", "W"), [], []),
                         (Sensor("node.power", "kW"), [], [])])
        message = str(exc.value)
        assert "'node.power'" in message
        assert "'W'" in message and "'kW'" in message

    def test_sensor_needs_name(self):
        with pytest.raises(ValueError):
            Sensor("")


class TestRecording:
    """Readings come in whole, through the constructor."""

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="out-of-order"):
            TelemetryDB([(Sensor("x"), [10.0, 5.0], [1.0, 2.0])])

    def test_same_timestamp_allowed(self):
        db = TelemetryDB([(Sensor("x"), [10.0, 10.0], [1.0, 2.0])])
        _, vals = db.series("x")
        assert list(vals) == [1.0, 2.0]

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="2 times but 1 values"):
            TelemetryDB([(Sensor("x"), [0.0, 1.0], [1.0])])

    def test_inputs_are_copied(self):
        times, values = [0.0, 10.0], [1.0, 2.0]
        db = TelemetryDB([(Sensor("x", "W"), times, values)])
        times.append(20.0)
        values[0] = 99.0
        assert list(db.series("x")[0]) == [0.0, 10.0]
        assert list(db.series("x")[1]) == [1.0, 2.0]
        assert db.unit_of("x") == "W"


class TestQueries:
    @pytest.fixture
    def db(self):
        readings = [(0, 100), (10, 200), (20, 300), (30, 400)]
        return TelemetryDB([(Sensor("power"),
                             [float(t) for t, _ in readings],
                             [float(v) for _, v in readings])])

    def test_series_window(self, db):
        times, vals = db.series("power", 10.0, 30.0)
        assert list(times) == [10.0, 20.0]
        assert list(vals) == [200.0, 300.0]

    def test_aggregates(self, db):
        assert db.aggregate("power", "mean") == 250.0
        assert db.aggregate("power", "max") == 400.0
        assert db.aggregate("power", "min") == 100.0
        assert db.aggregate("power", "sum") == 1000.0
        assert db.aggregate("power", "last") == 400.0

    def test_aggregate_window(self, db):
        assert db.aggregate("power", "mean", 0.0, 20.0) == 150.0

    def test_unknown_aggregation(self, db):
        with pytest.raises(ValueError, match="aggregation"):
            db.aggregate("power", "median")

    def test_unknown_sensor_lists_known(self, db):
        with pytest.raises(KeyError, match="known"):
            db.aggregate("nope", "mean")

    def test_empty_window_raises(self, db):
        with pytest.raises(ValueError, match="readings"):
            db.aggregate("power", "mean", 100.0, 200.0)
