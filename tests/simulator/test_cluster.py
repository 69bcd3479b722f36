"""Tests for cluster allocation bookkeeping and the power integrator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator import (
    Cluster,
    ComponentPowerModel,
    NodePowerModel,
    NodeState,
)

PM = NodePowerModel(cpus=(ComponentPowerModel("cpu", 50.0, 240.0),) * 2)


class TestAllocation:
    def test_allocate_release(self, small_cluster):
        nodes = small_cluster.allocate(1, 3, 0.9)
        assert len(nodes) == 3
        assert small_cluster.n_busy == 3
        assert small_cluster.n_free == 5
        small_cluster.release(1)
        assert small_cluster.n_busy == 0
        small_cluster.check_invariants()

    def test_cannot_overallocate(self, small_cluster):
        with pytest.raises(ValueError, match="free"):
            small_cluster.allocate(1, 9, 0.9)

    def test_cannot_double_allocate_job(self, small_cluster):
        small_cluster.allocate(1, 2, 0.9)
        with pytest.raises(ValueError, match="grow"):
            small_cluster.allocate(1, 2, 0.9)

    def test_release_unknown_job(self, small_cluster):
        with pytest.raises(ValueError, match="no nodes"):
            small_cluster.release(42)

    def test_grow_shrink(self, small_cluster):
        small_cluster.allocate(1, 2, 0.9)
        small_cluster.grow(1, 3, 0.9)
        assert len(small_cluster.nodes_of_job(1)) == 5
        small_cluster.shrink(1, 4)
        assert len(small_cluster.nodes_of_job(1)) == 1
        small_cluster.check_invariants()

    def test_shrink_keeps_one_node(self, small_cluster):
        small_cluster.allocate(1, 2, 0.9)
        with pytest.raises(ValueError):
            small_cluster.shrink(1, 2)

    def test_released_nodes_reusable(self, small_cluster):
        small_cluster.allocate(1, 8, 0.9)
        small_cluster.release(1)
        small_cluster.allocate(2, 8, 0.5)
        small_cluster.check_invariants()

    @given(ops=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 4)),
                        min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_no_oversubscription_property(self, ops):
        """Random allocate/release sequences never corrupt bookkeeping."""
        from repro.simulator import ComponentPowerModel, NodePowerModel
        cluster = Cluster(8, NodePowerModel(
            cpus=(ComponentPowerModel("cpu", 50.0, 240.0),) * 2))
        live = set()
        for jid, n in ops:
            if jid in live:
                cluster.release(jid)
                live.discard(jid)
            elif cluster.n_free >= n:
                cluster.allocate(jid, n, 0.8)
                live.add(jid)
            cluster.check_invariants()
            assert cluster.n_busy + cluster.n_free == cluster.n_nodes


class TestPowerAccounting:
    def test_idle_cluster_power(self, small_cluster, node_power_model):
        assert small_cluster.current_power() == \
            8 * node_power_model.idle_watts

    def test_busy_power_rises(self, small_cluster):
        before = small_cluster.current_power()
        small_cluster.allocate(1, 4, 1.0)
        assert small_cluster.current_power() > before

    def test_energy_integration_exact(self, small_cluster):
        p0 = small_cluster.current_power()
        small_cluster.accrue(3600.0)
        assert small_cluster.energy_kwh == pytest.approx(p0 / 1000.0)

    def test_accrue_monotone(self, small_cluster):
        small_cluster.accrue(10.0)
        with pytest.raises(ValueError):
            small_cluster.accrue(5.0)

    def test_segments_cover_time(self, small_cluster):
        small_cluster.accrue(100.0)
        small_cluster.allocate(1, 2, 0.9)
        small_cluster.accrue(200.0)
        small_cluster.accrue(200.0)  # no time passed: no segment
        small_cluster.release(1)
        small_cluster.accrue(450.0)
        segs = small_cluster.power_segments()
        assert all(type(seg) is tuple and len(seg) == 3 for seg in segs)
        assert [seg[:2] for seg in segs] == [
            (0.0, 100.0), (100.0, 200.0), (200.0, 450.0)]
        assert all(a[1] == b[0] for a, b in zip(segs, segs[1:]))
        assert segs[1][2] > segs[0][2] == segs[2][2]

    def test_power_trace_energy_consistent(self, small_cluster):
        small_cluster.allocate(1, 4, 0.9)
        small_cluster.accrue(3000.0)
        trace = small_cluster.power_trace(step_seconds=300.0)
        assert trace.energy_kwh() == pytest.approx(
            small_cluster.energy_kwh, rel=1e-9)

    def test_power_bounds(self, small_cluster, node_power_model):
        assert small_cluster.min_power() == 8 * node_power_model.idle_watts
        assert small_cluster.max_power() == 8 * node_power_model.peak_watts
        small_cluster.allocate(1, 8, 1.0)
        assert small_cluster.current_power() <= small_cluster.max_power()


class TestIdlePowerOff:
    def test_idle_nodes_draw_nothing(self, node_power_model):
        cluster = Cluster(4, node_power_model, idle_power_off=True)
        assert cluster.current_power() == 0.0

    def test_allocation_powers_on(self, node_power_model):
        cluster = Cluster(4, node_power_model, idle_power_off=True)
        cluster.allocate(1, 2, 0.9)
        assert cluster.current_power() > 0
        cluster.release(1)
        assert cluster.current_power() == 0.0

    def test_free_counts_powered_off(self, node_power_model):
        cluster = Cluster(4, node_power_model, idle_power_off=True)
        assert cluster.n_free == 4


class TestCaps:
    def test_set_job_cap(self, small_cluster, node_power_model):
        small_cluster.allocate(1, 2, 1.0)
        uncapped = small_cluster.current_power()
        perf = small_cluster.set_job_cap(1, 400.0)
        assert 0 < perf < 1
        assert small_cluster.current_power() < uncapped

    def test_cap_cleared_on_release(self, small_cluster):
        small_cluster.allocate(1, 2, 1.0)
        small_cluster.set_job_cap(1, 400.0)
        small_cluster.release(1)
        assert all(nd.cap_watts is None for nd in small_cluster.nodes)

    def test_cap_unknown_job(self, small_cluster):
        with pytest.raises(ValueError):
            small_cluster.set_job_cap(9, 400.0)


class TestFailures:
    def test_mark_down_and_repair(self, small_cluster):
        small_cluster.mark_down(3)
        assert small_cluster.nodes[3].state is NodeState.DOWN
        assert small_cluster.n_free == 7
        assert small_cluster.current_power() == 7 * PM.idle_watts
        small_cluster.repair(3)
        assert small_cluster.nodes[3].state is NodeState.IDLE
        assert small_cluster.n_free == 8
        small_cluster.check_invariants()

    def test_mark_down_busy_node_raises(self, small_cluster):
        small_cluster.allocate(1, 2, 0.9)
        busy = small_cluster.nodes_of_job(1)[0].node_id
        with pytest.raises(ValueError, match="release"):
            small_cluster.mark_down(busy)
        assert small_cluster.nodes[busy].state is NodeState.BUSY

    def test_repair_powers_off_under_idle_power_off(self):
        cluster = Cluster(4, PM, idle_power_off=True)
        cluster.mark_down(1)
        cluster.repair(1)
        assert cluster.nodes[1].state is NodeState.POWERED_OFF
        assert cluster.current_power() == 0.0
        assert cluster.n_free == 4

    def test_repair_needs_a_down_node(self, small_cluster):
        with pytest.raises(ValueError, match="not down"):
            small_cluster.repair(0)

    def test_unknown_node(self, small_cluster):
        for bad in (-1, 8):
            with pytest.raises(ValueError, match="no node"):
                small_cluster.mark_down(bad)
            with pytest.raises(ValueError, match="no node"):
                small_cluster.repair(bad)

    def test_down_nodes_are_not_allocated(self, small_cluster):
        small_cluster.mark_down(0)
        nodes = small_cluster.allocate(1, 7, 0.9)
        assert all(nd.node_id != 0 for nd in nodes)
        with pytest.raises(ValueError, match="free"):
            small_cluster.grow(1, 1, 0.9)


def fresh_power(cluster):
    return sum(nd.current_power() for nd in cluster.nodes)


def fresh_free(cluster):
    return sum(1 for nd in cluster.nodes
               if nd.state in (NodeState.IDLE, NodeState.POWERED_OFF))


def fresh_busy(cluster):
    return sum(1 for nd in cluster.nodes if nd.state is NodeState.BUSY)


def snapshot(cluster):
    """Everything a mutator may change: node states, the allocation
    map, power and both counts."""
    return ([(nd.state, nd.job_id, nd.cap_watts, nd.utilization)
             for nd in cluster.nodes],
            {jid: [nd.node_id for nd in cluster.nodes_of_job(jid)]
             for jid in range(1, 5)},
            list(cluster._watts), cluster.current_power(),
            cluster.n_free, cluster.n_busy)


_OP = st.tuples(
    st.sampled_from(["allocate", "release", "grow", "shrink", "set_job_cap",
                     "mark_down", "repair"]),
    st.integers(1, 4),               # job id
    st.integers(0, 7),               # node count (0 is invalid) / node id
    # per-node cap (100 W is below idle, invalid)
    st.sampled_from([None, 100.0, 250.0, 250.0, 400.0]),
    # utilization (0.0 and 1.5 are invalid; repeats keep most ops valid)
    st.sampled_from([0.0, 0.3, 0.3, 0.8, 0.8, 1.0, 1.0, 1.5]))


class TestPowerCache:
    """``current_power()``, ``job_power``, ``n_free`` and ``n_busy``
    are kept current by the mutators, not rescanned: after every op they
    must equal a fresh scan of the nodes, and an op that raises must
    change nothing."""

    @given(ops=st.lists(_OP, min_size=1, max_size=40),
           idle_power_off=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_cache_equals_fresh_scan_after_every_op(self, ops,
                                                    idle_power_off):
        cluster = Cluster(8, PM, idle_power_off=idle_power_off)
        for op, jid, n, cap, util in ops:
            before = snapshot(cluster)
            try:
                if op == "allocate":
                    cluster.allocate(jid, n, util)
                elif op == "release":
                    cluster.release(jid)
                elif op == "grow":
                    cluster.grow(jid, n, util)
                elif op == "shrink":
                    cluster.shrink(jid, n)
                elif op == "set_job_cap":
                    cluster.set_job_cap(jid, cap)
                elif op == "mark_down":
                    cluster.mark_down(n)
                else:
                    cluster.repair(n)
            except ValueError:
                # invalid for the current state: must change nothing
                assert snapshot(cluster) == before
            # exact equality: the kept list holds each node's own read,
            # summed in node order like a fresh scan
            for i, nd in enumerate(cluster.nodes):
                assert cluster._watts[i] == nd.current_power()
            assert cluster.current_power() == fresh_power(cluster)
            for j in range(1, 5):
                assert cluster.job_power(j) == sum(
                    nd.current_power() for nd in cluster.nodes_of_job(j))
            assert cluster.n_free == fresh_free(cluster)
            assert cluster.n_busy == fresh_busy(cluster)
            cluster.check_invariants()

    @pytest.mark.parametrize("n_nodes, utilization",
                             [(2, 0.0), (2, 1.5), (0, 0.5), (-1, 0.5)])
    def test_rejected_allocation_changes_nothing(self, n_nodes,
                                                 utilization):
        cluster = Cluster(4, PM, idle_power_off=True)
        with pytest.raises(ValueError):
            cluster.allocate(1, n_nodes, utilization)
        assert cluster.current_power() == 0.0
        assert all(nd.state is NodeState.POWERED_OFF for nd in cluster.nodes)
        assert cluster.nodes_of_job(1) == []
        assert cluster.n_free == 4
        cluster.allocate(1, 1, 0.5)  # no empty allocation was recorded
        with pytest.raises(ValueError):
            cluster.grow(1, n_nodes, utilization)
        assert len(cluster.nodes_of_job(1)) == 1
        assert cluster.n_free == 3
        cluster.check_invariants()

    def test_job_power_sums_the_jobs_nodes(self, small_cluster):
        assert small_cluster.job_power(1) == 0
        small_cluster.allocate(1, 3, 0.9)
        small_cluster.allocate(2, 2, 0.4)
        small_cluster.set_job_cap(1, 250.0)
        assert small_cluster.job_power(1) == sum(
            nd.current_power() for nd in small_cluster.nodes_of_job(1))
        assert small_cluster.job_power(1) + small_cluster.job_power(2) \
            + 3 * PM.idle_watts == pytest.approx(
                small_cluster.current_power(), rel=1e-12)

    def test_accrue_returns_integrated_watts(self, small_cluster):
        watts = small_cluster.current_power()
        assert small_cluster.accrue(100.0) == watts
        assert small_cluster.last_accrual == 100.0
        assert small_cluster.accrue(100.0) == 0.0  # no time passed
        assert len(small_cluster.power_segments()) == 1

    def test_check_invariants_catches_a_direct_node_change(self,
                                                           small_cluster):
        """Node state changes must go through the cluster: mutating a
        node directly leaves the kept power stale, and the check says
        so."""
        small_cluster.current_power()
        small_cluster.n_free
        small_cluster.nodes[0].power_off()
        with pytest.raises(AssertionError, match="kept power"):
            small_cluster.check_invariants()

    def test_check_invariants_catches_a_stale_busy_count(self,
                                                         small_cluster):
        """The busy count is kept too; a change to the allocation map
        behind the cluster's back is caught."""
        small_cluster.allocate(1, 3, 0.9)
        assert small_cluster.n_busy == 3
        small_cluster._alloc[1].pop()
        with pytest.raises(AssertionError, match="kept n_busy"):
            small_cluster.check_invariants()

    def test_check_invariants_catches_an_idle_node_under_idle_off(self):
        cluster = Cluster(4, PM, idle_power_off=True)
        cluster.nodes[2].power_on()
        cluster._watts[2] = cluster.nodes[2].current_power()
        with pytest.raises(AssertionError, match="powered on"):
            cluster.check_invariants()

    def test_check_invariants_catches_an_empty_allocation(self,
                                                          small_cluster):
        small_cluster._alloc[7] = []
        with pytest.raises(AssertionError, match="zero nodes"):
            small_cluster.check_invariants()
