"""Dispatch accounting of the one sweep loop: what ``n_chunks`` counts
and what an unarmed sweep leaves on disk."""

import tempfile

import pytest

from repro import obs
from repro.chaos import ChaosPlan, FaultSpec
from repro.parallel import chunk_count, run_sweep

GRID = {"x": [float(i) for i in range(10)]}


def cell(x):
    return {"m": x * 2.0}


@pytest.fixture(autouse=True)
def fresh_obs():
    obs.reset()
    yield
    obs.reset()


class TestChunkCount:
    def test_plain_pool_submits_one_future_per_chunk(self):
        r = run_sweep(cell, GRID, workers=2)
        assert r.stats.n_chunks == chunk_count(10, 2)

    def test_armed_pool_counts_every_attempt(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(4),
                                 FaultSpec.raise_at(7)))
        r = run_sweep(cell, GRID, workers=2, retries=1, chaos=plan)
        assert r.stats.n_retried == 2
        assert r.stats.n_chunks == r.stats.n_executed + r.stats.n_retried

    def test_serial_path_is_one_dispatch(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(4),))
        r = run_sweep(cell, GRID, workers=1, retries=1, chaos=plan)
        assert r.stats.n_chunks == 1


def test_plain_sweep_makes_no_marker_directory(monkeypatch):
    """Markers exist only when the harness is armed: an unarmed sweep
    writes nothing outside what the scenario itself writes."""
    def refuse(*args, **kwargs):
        raise AssertionError("plain sweep called tempfile.mkdtemp")

    monkeypatch.setattr(tempfile, "mkdtemp", refuse)
    r = run_sweep(cell, GRID, workers=2)
    assert r.rows == run_sweep(cell, GRID, workers=1).rows
