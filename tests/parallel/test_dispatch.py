"""Dispatch accounting of the one sweep loop: what ``n_dispatches``
counts."""

import pytest

from repro import obs
from repro.chaos import ChaosPlan, FaultSpec
from repro.parallel import run_sweep

GRID = {"x": [float(i) for i in range(10)]}


def cell(x):
    return {"m": x * 2.0}


@pytest.fixture(autouse=True)
def fresh_obs():
    obs.reset()
    yield
    obs.reset()


class TestChunkCount:
    def test_armed_pool_counts_every_attempt(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(4),
                                 FaultSpec.raise_at(7)))
        r = run_sweep(cell, GRID, workers=2, retries=1, chaos=plan)
        assert r.stats.n_retried == 2
        assert (r.stats.n_dispatches
                == r.stats.n_executed + r.stats.n_retried)

    def test_serial_path_is_one_dispatch(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(4),))
        r = run_sweep(cell, GRID, workers=1, retries=1, chaos=plan)
        assert r.stats.n_dispatches == 1
