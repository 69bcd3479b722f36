"""The named worlds of ``repro.parallel.scenarios``.

Every builder and cell must pickle by reference (the process pool sends
cells by name) and rebuild the same world on every call.  A small grid
gives the same rows serially and across two workers.  The benchmark's
own copies of the E10/E19 worlds and the managed site
(``perfbench/workloads.py``) must build the same job lists and
intensity samples as these builders at matching knobs; the benchmark's
files are only read.
"""

from __future__ import annotations

import pickle

import pytest

from repro import units
from repro.parallel import run_sweep
from repro.parallel import scenarios as sc
from tests.integration.test_perfbench_golden import workloads  # noqa: F401

BUILDERS = [sc.power_site, sc.malleable_site, sc.backfill_world,
            sc.checkpoint_world, sc.incentive_world, sc.demo_world]
CELLS = [sc.power_cell, sc.delay_ablation_cell, sc.backfill_delay_cell,
         sc.footprint_cell, sc.spin_cell]


def _history(rjms):
    """The world's intensity samples up to a day past its last arrival."""
    t_end = max(j.submit_time for j in rjms.jobs) + units.SECONDS_PER_DAY
    return rjms.provider.history(0.0, t_end)


def _assert_same_world(a, b):
    assert a.jobs == b.jobs
    assert _history(a) == _history(b)


@pytest.mark.parametrize("fn", BUILDERS + CELLS,
                         ids=lambda fn: fn.__name__)
def test_pickles_by_reference(fn):
    assert pickle.loads(pickle.dumps(fn)) is fn


@pytest.mark.parametrize("build", [
    sc.power_site,
    lambda: sc.power_site("carbon-avg-signal", checkpoint_gb=8.0),
    lambda: sc.malleable_site(False),
    sc.malleable_site,
    sc.backfill_world,
    lambda: sc.backfill_world("carbon-oracle", n_jobs=60, n_nodes=16,
                              max_nodes_log2=3),
    sc.checkpoint_world,
    lambda: sc.checkpoint_world(64.0),
    sc.incentive_world,
    lambda: sc.incentive_world("carbon"),
    lambda: sc.demo_world(n_nodes=8, n_jobs=20, zone="FR"),
])
def test_two_builds_are_one_world(build):
    a, b = build(), build()
    assert a is not b and a.jobs[0] is not b.jobs[0]
    _assert_same_world(a, b)
    assert [type(m) for m in a._managers] == [type(m) for m in b._managers]


def test_seeds_and_knobs_reach_the_world():
    base = sc.backfill_world()
    assert len(base.jobs) == 250 and base.cluster.n_nodes == 32
    assert base.jobs != sc.backfill_world(workload_seed=4).jobs
    assert _history(base) != _history(sc.backfill_world(provider_seed=8))
    small = sc.backfill_world(n_jobs=60, n_nodes=16, max_nodes_log2=3)
    assert len(small.jobs) == 60 and small.cluster.n_nodes == 16
    assert max(j.nodes_requested for j in small.jobs) <= 8


@pytest.mark.parametrize("call", [
    lambda: sc.backfill_world("carbon-typo"),
    lambda: sc.demo_world("random"),
    lambda: sc.power_site("carbon-lin"),
])
def test_unknown_names_are_rejected(call):
    with pytest.raises(ValueError, match="known"):
        call()


def test_small_grid_rows_equal_serial_and_pooled():
    grid = {"max_delay_h": [3.0, 12.0], "min_saving": [0.03]}
    serial = run_sweep(sc.backfill_delay_cell, grid, workers=1)
    pooled = run_sweep(sc.backfill_delay_cell, grid, workers=2)
    assert pooled.stats.mode == "process-pool"
    assert pooled.rows == serial.rows
    assert [r["completed"] for r in serial.rows] == [60.0, 60.0]


class TestBenchmarkCopiesMatch:
    """``perfbench/workloads.py`` still builds its own worlds; until it
    builds them here, its job lists and intensity samples must equal the
    builders' at matching knobs (and the two smaller worlds must run to
    the same outcome)."""

    SEEDS = [0, 5]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_easy_large(self, workloads, seed):
        _assert_same_world(
            workloads.build_easy_large(seed).rjms,
            sc.backfill_world("easy", n_jobs=1000, workload_seed=seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_carbon_gate(self, workloads, seed):
        _assert_same_world(
            workloads.build_carbon_gate(seed).rjms,
            sc.backfill_world("carbon-sn", workload_seed=seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_managed_site(self, workloads, seed):
        bench = workloads.build_managed_site(seed).rjms
        ours = sc.power_site(
            "carbon-linear", checkpoint_gb=8.0, workload_seed=seed,
            n_jobs=120, mean_interarrival_s=3000.0, runtime_sigma=0.6,
            suspendable_fraction=1.0)
        _assert_same_world(bench, ours)
        assert (workloads.outcome_of(bench.run())
                == workloads.outcome_of(ours.run()))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sweep_cell(self, workloads, seed):
        bench = workloads.build_sweep_cell(6.0, 0.05, seed).rjms
        ours = sc.backfill_world("carbon", max_delay_h=6.0, min_saving=0.05,
                                 n_nodes=16, n_jobs=60, max_nodes_log2=3,
                                 workload_seed=seed)
        _assert_same_world(bench, ours)
        assert (workloads.outcome_of(bench.run())
                == workloads.outcome_of(ours.run()))
