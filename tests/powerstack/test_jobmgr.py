"""Tests for the job-level power manager."""

import pytest

from repro.powerstack import JobPowerManager


@pytest.fixture
def mgr(node_power_model):
    return JobPowerManager(node_power_model)


class TestSplit:
    def test_equal_split(self, mgr, node_power_model):
        budget = 4 * 400.0
        assert mgr.cap(budget, 4) == pytest.approx(400.0)

    def test_generous_budget_uncaps(self, mgr, node_power_model):
        assert mgr.cap(4 * (node_power_model.peak_watts + 50.0), 4) is None

    def test_budget_below_idle_rejected(self, mgr, node_power_model):
        """The job manager refuses un-holdable budgets — shrinking the
        allocation is the §3.2 remedy, not silent under-capping."""
        with pytest.raises(ValueError, match="shrink"):
            mgr.cap(4 * (node_power_model.idle_watts - 20.0), 4)

    def test_validation(self, mgr):
        with pytest.raises(ValueError):
            mgr.cap(100.0, 0)
        with pytest.raises(ValueError):
            mgr.cap(0.0, 1)


class TestComponentSplit:
    def test_conserves_budget(self, mgr, node_power_model):
        budget = 450.0
        split = mgr.component_split(budget)
        assert sum(split.values()) == pytest.approx(budget)

    def test_each_component_at_least_idle(self, mgr, node_power_model):
        split = mgr.component_split(node_power_model.idle_watts)
        # at the floor, every component sits exactly at idle
        cpu_keys = [k for k in split if k.startswith("cpu")]
        assert all(split[k] == pytest.approx(50.0) for k in cpu_keys)

    def test_full_budget_reaches_peak(self, mgr, node_power_model):
        split = mgr.component_split(node_power_model.peak_watts)
        assert sum(split.values()) == pytest.approx(
            node_power_model.peak_watts)

    def test_proportional_to_dynamic_range(self, gpu_node_power_model):
        mgr = JobPowerManager(gpu_node_power_model)
        pm = gpu_node_power_model
        mid = (pm.idle_watts + pm.peak_watts) / 2
        split = mgr.component_split(mid)
        gpu_keys = [k for k in split if k.startswith("gpu")]
        cpu_keys = [k for k in split if k.startswith("cpu")]
        # GPUs have the bigger dynamic range, so they get more watts
        assert min(split[k] for k in gpu_keys) > \
            max(split[k] for k in cpu_keys)

    def test_below_idle_rejected(self, mgr, node_power_model):
        with pytest.raises(ValueError):
            mgr.component_split(node_power_model.idle_watts - 10.0)
