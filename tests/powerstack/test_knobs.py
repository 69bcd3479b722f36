"""Tests for cap clamping."""

from repro.powerstack import clamp_cap


class TestClampCap:
    def test_none_passes(self, node_power_model):
        assert clamp_cap(None, node_power_model) is None

    def test_above_peak_normalizes_to_uncapped(self, node_power_model):
        assert clamp_cap(node_power_model.peak_watts + 100.0,
                         node_power_model) is None

    def test_below_idle_clamps_up(self, node_power_model):
        assert clamp_cap(10.0, node_power_model) == \
            node_power_model.idle_watts

    def test_in_range_passes(self, node_power_model):
        mid = (node_power_model.idle_watts + node_power_model.peak_watts) / 2
        assert clamp_cap(mid, node_power_model) == mid
