"""Tests for the Carbon500 ranking (§2.2)."""

import pytest

from repro.embodied import KNOWN_SYSTEMS, carbon500_ranking
from repro.grid.zones import EUROPE_JAN2023


def zone_intensities():
    return {z: p.mean_intensity_g_per_kwh for z, p in EUROPE_JAN2023.items()}


class TestRanking:
    def test_ranks_are_dense_and_sorted(self):
        entries = carbon500_ranking(zone_intensities=zone_intensities())
        assert [e.rank for e in entries] == list(range(1, len(entries) + 1))
        effs = [e.carbon_efficiency for e in entries]
        assert effs == sorted(effs, reverse=True)

    def test_all_known_systems_listed(self):
        entries = carbon500_ranking(zone_intensities=zone_intensities())
        assert {e.name for e in entries} == set(KNOWN_SYSTEMS)

    def test_rates_positive(self):
        for e in carbon500_ranking(zone_intensities=zone_intensities()):
            assert e.embodied_rate_tonnes_per_year > 0
            assert e.operational_rate_tonnes_per_year > 0
            assert e.total_rate_tonnes_per_year == pytest.approx(
                e.embodied_rate_tonnes_per_year
                + e.operational_rate_tonnes_per_year)

    def test_siting_changes_efficiency(self):
        """The same system ranks better at a hydro site — the point of
        a Carbon500 vs the Green500."""
        base = carbon500_ranking(zone_intensities={"DE": 420.0})
        hydro = carbon500_ranking(zone_intensities={"DE": 20.0})
        by_name_base = {e.name: e for e in base}
        by_name_hydro = {e.name: e for e in hydro}
        for name in by_name_base:
            sys = KNOWN_SYSTEMS[name]
            if sys.zone == "DE":
                assert by_name_hydro[name].carbon_efficiency > \
                    by_name_base[name].carbon_efficiency

    def test_perf_override(self):
        entries = carbon500_ranking(
            systems=[KNOWN_SYSTEMS["Hawk"]],
            zone_intensities=zone_intensities(),
            perf_pflops={"Hawk": 100.0})
        assert entries[0].perf_pflops == 100.0

    def test_missing_perf_raises(self):
        from repro.embodied.systems import SUPERMUC_NG, SystemInventory
        from dataclasses import replace
        mystery = replace(SUPERMUC_NG, name="Mystery Machine")
        with pytest.raises(KeyError, match="performance"):
            carbon500_ranking(systems=[mystery])
