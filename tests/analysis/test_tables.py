"""Tests for the figure/table renderers."""

import pytest

from repro.analysis import (
    ascii_bar,
    render_carbon500,
    render_fig1,
    render_fig2,
    render_table1,
)
from repro.embodied import carbon500_ranking
from repro.grid.zones import EUROPE_JAN2023


class TestAsciiBar:
    def test_proportional(self):
        assert ascii_bar(5.0, 10.0, width=10) == "#####"
        assert ascii_bar(10.0, 10.0, width=10) == "#" * 10
        assert ascii_bar(0.0, 10.0, width=10) == ""

    def test_clamps_overflow(self):
        assert ascii_bar(20.0, 10.0, width=10) == "#" * 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_bar(1.0, 0.0)
        with pytest.raises(ValueError):
            ascii_bar(-1.0, 10.0)


class TestFig1:
    def test_contains_three_systems_and_shares(self):
        out = render_fig1()
        for name in ("Juwels Booster", "SuperMUC-NG", "Hawk"):
            assert name in out
        # the paper's check values, regenerated from the model
        assert "43.5%" in out
        assert "59.6%" in out
        assert "55.5%" in out

    def test_component_rows(self):
        out = render_fig1()
        for comp in ("cpu", "gpu", "memory", "storage"):
            assert comp in out


class TestFig2:
    def test_all_zones_listed(self):
        out = render_fig2()
        for z in EUROPE_JAN2023:
            assert z in out

    def test_finland_sigma_visible(self):
        assert "47.21" in render_fig2()

    def test_subset(self):
        out = render_fig2(zones=["FI", "FR"])
        assert "FI" in out and "FR" in out and "PL" not in out


class TestTable1:
    def test_rows_verbatim(self):
        out = render_table1()
        assert "SuperMUC-NG Phase 2" in out
        assert "2012" in out and "2018" in out
        assert "ExaMUC" in out
        assert "-" in out  # still-operating marker


class TestCarbon500:
    def test_renders_ranked(self):
        zi = {z: p.mean_intensity_g_per_kwh for z, p in EUROPE_JAN2023.items()}
        out = render_carbon500(carbon500_ranking(zone_intensities=zi))
        assert "Frontier" in out
        assert "PFLOPs/(t/yr)" in out
