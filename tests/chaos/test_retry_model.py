"""Model-based check of the retry budget.

For any plan of ``raise_at(cell, times)`` faults, a non-strict run with
``retries=R`` must deliver exactly the fault-free rows minus the cells
with ``times > R``, report exactly those cells as failures, and spend
``sum(min(times, R))`` retries.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro import obs
from repro.chaos import ChaosInjectedError, ChaosPlan, FaultSpec
from repro.parallel import run_sweep

GRID = {"lane": [0, 1, 2], "rep": [0, 1]}
N_CELLS = 6


def cell(lane, rep):
    return {"m": lane * 10.0 + rep}


BASELINE = run_sweep(cell, GRID, workers=1).rows


def check(times_by_cell, retries, workers):
    obs.reset()
    plan = ChaosPlan(faults=tuple(FaultSpec.raise_at(c, times=t)
                                  for c, t in sorted(times_by_cell.items())))
    r = run_sweep(cell, GRID, workers=workers, strict=False,
                  retries=retries, chaos=plan)
    exhausted = sorted(c for c, t in times_by_cell.items() if t > retries)
    assert r.rows == [row for i, row in enumerate(BASELINE)
                      if i not in exhausted]
    assert [f.index for f in r.failures] == exhausted
    assert all(isinstance(f.error, ChaosInjectedError) for f in r.failures)
    assert r.stats.n_retried == sum(min(t, retries)
                                    for t in times_by_cell.values())
    assert not r.quarantined


@given(times_by_cell=st.dictionaries(st.integers(0, N_CELLS - 1),
                                     st.integers(1, 3), max_size=N_CELLS),
       retries=st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_retry_model_serial(times_by_cell, retries):
    check(times_by_cell, retries, workers=1)


@pytest.mark.parametrize("times_by_cell,retries", [
    ({0: 1, 3: 3}, 0),
    ({1: 2, 2: 1, 5: 3}, 2),
    ({4: 3}, 1),
])
def test_retry_model_pool(times_by_cell, retries):
    check(times_by_cell, retries, workers=2)
