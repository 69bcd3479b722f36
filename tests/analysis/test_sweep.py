"""Tests for the parameter-sweep harness."""

import pytest

from repro.analysis.sweep import SweepResult
from repro.parallel import run_sweep


def quadratic_scenario(x, y=0.0):
    return {"loss": (x - 2.0) ** 2 + y, "calls": 1.0}


class TestSweep:
    def test_full_grid_covered(self):
        r = run_sweep(quadratic_scenario, {"x": [0.0, 1.0, 2.0],
                                           "y": [0.0, 1.0]})
        assert len(r.rows) == 6
        assert r.param_names == ["x", "y"]
        assert set(r.metric_names) == {"loss", "calls"}

    def test_best_minimizes(self):
        r = run_sweep(quadratic_scenario, {"x": [0.0, 1.0, 2.0, 3.0]})
        assert r.best("loss")["x"] == 2.0
        assert r.best("loss", minimize=False)["x"] == 0.0

    def test_column_access(self):
        r = run_sweep(quadratic_scenario, {"x": [0.0, 2.0]})
        assert r.column("x") == [0.0, 2.0]
        assert r.column("loss") == [4.0, 0.0]
        with pytest.raises(KeyError, match="unknown column"):
            r.column("nope")

    def test_relative_to(self):
        r = run_sweep(quadratic_scenario, {"x": [0.0, 2.0]})
        rel = r.relative_to("loss", baseline=8.0)
        assert rel == [pytest.approx(0.5), pytest.approx(1.0)]
        with pytest.raises(ValueError):
            r.relative_to("loss", baseline=0.0)

    def test_metric_names_enforced(self):
        def flaky(x):
            return {"loss": x} if x < 1 else {"other": x}

        with pytest.raises(ValueError, match="omitted"):
            run_sweep(flaky, {"x": [0.0, 2.0]}, metric_names=["loss"])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(quadratic_scenario, {})
        with pytest.raises(ValueError):
            run_sweep(quadratic_scenario, {"x": []})

    def test_render(self):
        r = run_sweep(quadratic_scenario, {"x": [0.0]},
                      metric_names=["loss"])
        out = r.render()
        assert "x" in out and "loss" in out and "4.00" in out

    def test_deterministic_order(self):
        r = run_sweep(quadratic_scenario, {"x": [1.0, 0.0], "y": [2.0, 1.0]})
        assert [(row["x"], row["y"]) for row in r.rows] == [
            (1.0, 2.0), (1.0, 1.0), (0.0, 2.0), (0.0, 1.0)]

    def test_empty_result_best_raises(self):
        r = SweepResult(param_names=["x"], metric_names=["m"])
        with pytest.raises(ValueError):
            r.best("m")

    def test_empty_result_column_still_validates_name(self):
        """Regression: the unknown-column KeyError used to be skipped
        when ``rows`` was empty (only ``rows[0]`` was consulted), so a
        typo against an empty sweep silently returned ``[]``."""
        r = SweepResult(param_names=["x"], metric_names=["m"])
        with pytest.raises(KeyError, match="unknown column"):
            r.column("nope")
        assert r.column("x") == []
        assert r.column("m") == []

    def test_workers_kwarg_routes_through_parallel_executor(self):
        """`run_sweep(..., workers=N)` runs the grid across a process
        pool; rows must match the serial path exactly."""
        serial = run_sweep(quadratic_scenario, {"x": [0.0, 1.0, 2.0]})
        parallel = run_sweep(quadratic_scenario, {"x": [0.0, 1.0, 2.0]},
                             workers=2)
        assert parallel.rows == serial.rows
        assert serial.stats.mode == "serial"
        assert parallel.stats.mode == "process-pool"
