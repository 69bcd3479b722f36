"""Serial-parity suite: parallel rows must be exactly equal to serial.

The executor's whole contract (DESIGN.md §5d) is that ``workers=N``
never changes a result: same rows, same values, same order, for every
grid shape and worker count.  ``==`` here is exact — no ``approx``.
"""

import pytest

from repro.parallel import derive_seed, run_sweep

WORKER_COUNTS = [1, 2, 4]

GRIDS = {
    "1d": {"x": [0.0, 1.0, 2.0, 3.0, 4.0]},
    "2d": {"x": [0.0, 1.0, 2.0], "y": [-1.0, 0.5, 2.0, 7.0]},
    "3d-mixed-types": {"x": [0.25, 1.75], "mode": ["a", "b"],
                       "n": [1, 3]},
    "single-cell": {"x": [2.0]},
    "uneven": {"x": [float(i) for i in range(7)], "y": [0.0, 1.0]},
}


def poly_cell(x, y=0.0, mode="a", n=1):
    """Module-level (picklable) scenario; value depends on every param."""
    bias = {"a": 0.0, "b": 10.0}[mode]
    return {"loss": (x - 2.0) ** 2 + y * n + bias,
            "sum": x + y + n}


def seeded_cell(x, seed=0):
    return {"echo": float(seed), "twice": 2.0 * x}


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestRowParity:
    def test_rows_bit_identical_to_serial(self, grid_name, workers):
        grid = GRIDS[grid_name]
        serial = run_sweep(poly_cell, grid, workers=1)
        parallel = run_sweep(poly_cell, grid, workers=workers)
        assert parallel.rows == serial.rows
        assert parallel.param_names == serial.param_names
        assert parallel.metric_names == serial.metric_names
        assert parallel.failures == [] and serial.failures == []

    def test_explicit_metric_names_preserved(self, grid_name, workers):
        grid = GRIDS[grid_name]
        serial = run_sweep(poly_cell, grid, metric_names=["sum"],
                           workers=1)
        parallel = run_sweep(poly_cell, grid, metric_names=["sum"],
                             workers=workers)
        assert parallel.rows == serial.rows
        assert parallel.metric_names == ["sum"]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestSeedParity:
    def test_injected_seeds_ignore_worker_count(self, workers):
        grid = {"x": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]}
        serial = run_sweep(seeded_cell, grid, workers=1, base_seed=42)
        parallel = run_sweep(seeded_cell, grid, workers=workers,
                             base_seed=42)
        assert parallel.rows == serial.rows
        # and the seeds each cell saw are exactly the derived ones
        assert parallel.column("echo") == [
            float(derive_seed(42, i)) for i in range(6)]


class TestEdgeCases:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_empty_grid_raises_in_every_mode(self, workers):
        with pytest.raises(ValueError, match="empty parameter grid"):
            run_sweep(poly_cell, {}, workers=workers)
        with pytest.raises(ValueError, match="has no values"):
            run_sweep(poly_cell, {"x": []}, workers=workers)

    def test_single_cell_engages_serial_fallback(self):
        r = run_sweep(poly_cell, {"x": [2.0]}, workers=4)
        assert r.stats.mode == "serial-fallback"
        assert "single-cell" in r.stats.fallback_reason
        assert r.rows == run_sweep(poly_cell, {"x": [2.0]},
                                   workers=1).rows

    def test_closure_engages_serial_fallback_with_equal_rows(self):
        offset = 5.0
        closure = lambda x: {"m": x + offset}  # noqa: E731
        serial = run_sweep(closure, {"x": [0.0, 1.0, 2.0]}, workers=1)
        parallel = run_sweep(closure, {"x": [0.0, 1.0, 2.0]}, workers=4)
        assert parallel.stats.mode == "serial-fallback"
        assert "not picklable" in parallel.stats.fallback_reason
        assert parallel.rows == serial.rows

    def test_workers_one_is_plain_serial(self):
        r = run_sweep(poly_cell, {"x": [0.0, 1.0]}, workers=1)
        assert r.stats.mode == "serial"
        assert r.stats.fallback_reason is None

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(poly_cell, {"x": [0.0]}, workers=-2)

    def test_canonical_order_is_product_order(self):
        r = run_sweep(poly_cell, {"x": [1.0, 0.0], "y": [2.0, 1.0]},
                      workers=2)
        assert [(row["x"], row["y"]) for row in r.rows] == [
            (1.0, 2.0), (1.0, 1.0), (0.0, 2.0), (0.0, 1.0)]

    def test_stats_account_every_cell(self):
        r = run_sweep(poly_cell, {"x": [0.0, 1.0, 2.0], "y": [0.0, 1.0]},
                      workers=2)
        assert r.stats.n_cells == 6
        assert len(r.stats.cell_times_s) == 6
        assert all(t >= 0.0 for t in r.stats.cell_times_s)
        assert r.stats.wall_s > 0.0
