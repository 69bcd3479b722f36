"""Tests for component/node power models and cap-performance curves."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.simulator import (
    ComponentPowerModel,
    DVFSOperatingPoint,
    NodePowerModel,
    cap_perf_factor,
)
from repro.simulator.power import DEFAULT_DVFS_LADDER, POWER_PERF_GAMMA


class TestCapPerfFactor:
    def test_uncapped_full_perf(self):
        assert cap_perf_factor(1.0) == 1.0

    def test_sublinear_tradeoff(self):
        """Shedding 30% power costs ~15% performance — the premise of
        carbon-aware power scaling (§3.1)."""
        perf = cap_perf_factor(0.7)
        assert 0.82 < perf < 0.90

    def test_zero_power_zero_perf(self):
        assert cap_perf_factor(0.0) == 0.0

    def test_monotone(self):
        vals = [cap_perf_factor(f) for f in (0.2, 0.5, 0.8, 1.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @given(f=st.floats(0.0, 1.0))
    def test_perf_at_least_power_fraction(self, f):
        """gamma > 1 means perf factor >= power factor (caps are cheap)."""
        assert cap_perf_factor(f) >= f - 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cap_perf_factor(1.1)
        with pytest.raises(ValueError):
            cap_perf_factor(0.5, gamma=0.0)


class TestComponentPowerModel:
    def test_power_curve(self):
        c = ComponentPowerModel("cpu", 50.0, 250.0)
        assert c.power(0.0) == 50.0
        assert c.power(1.0) == 250.0
        assert c.power(0.5) == 150.0

    def test_cap_scales_dynamic_only(self):
        c = ComponentPowerModel("cpu", 50.0, 250.0)
        assert c.power(1.0, power_factor=0.5) == 50.0 + 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ComponentPowerModel("x", -1.0, 10.0)
        with pytest.raises(ValueError):
            ComponentPowerModel("x", 100.0, 50.0)
        c = ComponentPowerModel("x", 0.0, 10.0)
        with pytest.raises(ValueError):
            c.power(1.5)

    def test_dvfs_ladder_consistent_with_gamma(self):
        for pt in DEFAULT_DVFS_LADDER:
            assert pt.power_ratio == pytest.approx(
                pt.freq_ratio ** POWER_PERF_GAMMA, abs=1e-3)

    def test_nearest_dvfs_point(self):
        c = ComponentPowerModel("cpu", 50.0, 250.0)
        assert c.nearest_dvfs_point(0.82).freq_ratio == 0.8
        assert c.nearest_dvfs_point(1.0).freq_ratio == 1.0

    def test_dvfs_point_validation(self):
        with pytest.raises(ValueError):
            DVFSOperatingPoint(0.0, 0.5)
        with pytest.raises(ValueError):
            DVFSOperatingPoint(0.5, 1.5)


class TestNodePowerModel:
    def test_idle_peak(self, node_power_model):
        # 60 base + 2*50 cpu idle + 10 dram idle = 170
        assert node_power_model.idle_watts == 170.0
        # 60 + 2*240 + 35 = 575
        assert node_power_model.peak_watts == 575.0

    def test_gpu_node_heavier(self, gpu_node_power_model, node_power_model):
        assert gpu_node_power_model.peak_watts > node_power_model.peak_watts

    def test_power_factor_for_cap(self, node_power_model):
        pm = node_power_model
        assert pm.power_factor_for_cap(pm.peak_watts) == 1.0
        assert pm.power_factor_for_cap(pm.idle_watts) == 0.0
        mid = (pm.idle_watts + pm.peak_watts) / 2
        assert pm.power_factor_for_cap(mid) == pytest.approx(0.5)

    def test_cap_below_idle_raises(self, node_power_model):
        with pytest.raises(ValueError, match="idle"):
            node_power_model.power_factor_for_cap(
                node_power_model.idle_watts - 50.0)

    def test_cap_respected_by_power(self, node_power_model):
        pm = node_power_model
        cap = 400.0
        pf = pm.power_factor_for_cap(cap, utilization=1.0)
        assert pm.power(1.0, pf) <= cap + 1e-9

    def test_perf_factor_at_cap(self, node_power_model):
        pm = node_power_model
        assert pm.perf_factor_at_cap(pm.peak_watts) == 1.0
        assert 0 < pm.perf_factor_at_cap(400.0) < 1.0

    def test_utilization_scales_cap_headroom(self, node_power_model):
        """At lower utilization the same cap allows a higher power factor."""
        pm = node_power_model
        assert pm.power_factor_for_cap(400.0, utilization=0.5) > \
            pm.power_factor_for_cap(400.0, utilization=1.0)

    def test_needs_cpu(self):
        with pytest.raises(ValueError):
            NodePowerModel(cpus=())


class TestCachedBounds:
    """``idle_watts``/``peak_watts``/``dynamic_range_watts`` are cached on
    first use; the cache must not change values, equality, hashing or
    pickling (sweep workers pickle power models)."""

    def test_cached_values_equal_component_sums(self, gpu_node_power_model):
        pm = gpu_node_power_model
        idle = (pm.base_watts + sum(c.idle_watts for c in pm.cpus)
                + sum(g.idle_watts for g in pm.gpus) + pm.dram.idle_watts)
        peak = (pm.base_watts + sum(c.peak_watts for c in pm.cpus)
                + sum(g.peak_watts for g in pm.gpus) + pm.dram.peak_watts)
        for _ in range(2):  # computed, then read from the cache
            assert pm.idle_watts == idle
            assert pm.peak_watts == peak
            assert pm.dynamic_range_watts == peak - idle

    def test_equality_and_hash_ignore_the_cache(self, node_power_model):
        fresh = NodePowerModel(
            cpus=(ComponentPowerModel("cpu", 50.0, 240.0),) * 2)
        filled = NodePowerModel(
            cpus=(ComponentPowerModel("cpu", 50.0, 240.0),) * 2)
        filled.dynamic_range_watts  # fills all three
        assert "idle_watts" in vars(filled)
        assert "idle_watts" not in vars(fresh)
        assert fresh == filled and hash(fresh) == hash(filled)
        assert filled == node_power_model
        assert len({fresh, filled, node_power_model}) == 1
        other = NodePowerModel(
            cpus=(ComponentPowerModel("cpu", 50.0, 250.0),) * 2)
        other.peak_watts
        assert other != filled

    @pytest.mark.parametrize("fill", [False, True], ids=["empty", "filled"])
    def test_pickle_round_trip(self, node_power_model, fill):
        if fill:
            node_power_model.peak_watts
        back = pickle.loads(pickle.dumps(node_power_model))
        assert back == node_power_model
        assert hash(back) == hash(node_power_model)
        assert back.idle_watts == 170.0 and back.peak_watts == 575.0
        assert back.dynamic_range_watts == 405.0
