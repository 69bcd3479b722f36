"""Grid expansion and chunk-planning invariants (hypothesis)."""

import itertools

from hypothesis import given, settings, strategies as st

import pytest

from repro.parallel import chunk_count, expand_grid, plan_chunks


class TestExpandGrid:
    def test_canonical_order_is_product_order(self):
        grid = {"a": [1, 2], "b": ["x", "y", "z"], "c": [0.5]}
        names, cells = expand_grid(grid)
        assert names == ["a", "b", "c"]
        expected = [dict(zip(names, combo)) for combo in
                    itertools.product(grid["a"], grid["b"], grid["c"])]
        assert cells == expected

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty parameter grid"):
            expand_grid({})
        with pytest.raises(ValueError, match="'b' has no values"):
            expand_grid({"a": [1], "b": []})


class TestPlanChunks:
    @given(n_cells=st.integers(0, 500), n_chunks=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_partition_exact_contiguous_balanced(self, n_cells,
                                                 n_chunks):
        plan = plan_chunks(n_cells, n_chunks)
        # exact partition of range(n_cells), in order, no gaps
        flat = [i for chunk in plan for i in chunk]
        assert flat == list(range(n_cells))
        # balanced: sizes differ by at most one
        if plan:
            sizes = [len(c) for c in plan]
            assert max(sizes) - min(sizes) <= 1
            assert min(sizes) >= 1
        # never more chunks than cells
        assert len(plan) <= max(n_cells, 0)

    @given(n_cells=st.integers(1, 500), n_chunks=st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_deterministic(self, n_cells, n_chunks):
        assert plan_chunks(n_cells, n_chunks) == plan_chunks(n_cells,
                                                             n_chunks)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="n_cells"):
            plan_chunks(-1, 4)
        with pytest.raises(ValueError, match="n_chunks"):
            plan_chunks(4, 0)

    def test_empty_plan_for_zero_cells(self):
        assert plan_chunks(0, 8) == []


class TestChunkCount:
    @given(n_cells=st.integers(1, 1000), workers=st.integers(1, 32))
    @settings(max_examples=100, deadline=None)
    def test_auto_count_bounded(self, n_cells, workers):
        n = chunk_count(n_cells, workers)
        assert 1 <= n <= n_cells
        # enough chunks to keep every worker busy (or one per cell)
        assert n >= min(n_cells, workers)

    def test_zero_cells(self):
        assert chunk_count(0, 4) == 0
