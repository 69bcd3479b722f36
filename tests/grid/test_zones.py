"""Tests for the calibrated European zone profiles."""

import pytest

from repro.grid.zones import EUROPE_JAN2023, ZoneProfile, get_zone, list_zones


class TestZoneProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZoneProfile("X", "x", -1.0, 1, 1, 1, 0.5, 0.5, "coal")
        with pytest.raises(ValueError):
            ZoneProfile("X", "x", 100.0, -1, 1, 1, 0.5, 0.5, "coal")
        with pytest.raises(ValueError):
            ZoneProfile("X", "x", 100.0, 1, 1, 1, 1.0, 0.5, "coal")
        with pytest.raises(ValueError):
            ZoneProfile("X", "x", 100.0, 1, 1, 1, 0.5, 1.5, "coal")


class TestCalibration:
    """The Jan-2023 calibration targets from the paper."""

    def test_fi_fr_ratio_is_exactly_2_1(self):
        fi = get_zone("FI").mean_intensity_g_per_kwh
        fr = get_zone("FR").mean_intensity_g_per_kwh
        assert fi / fr == pytest.approx(2.1)

    def test_fi_daily_sigma_is_quoted_value(self):
        assert get_zone("FI").daily_sigma == pytest.approx(47.21)

    def test_ordering_hydro_lowest_coal_highest(self):
        zones = list_zones()
        assert zones[0] == "NO"
        assert zones[-1] == "PL"

    def test_all_profiles_stay_above_floor(self):
        """The generator refuses to clip, so generating a month for every
        zone across several seeds must never trip the floor guard."""
        from repro.grid.synthetic import generate_month

        for p in EUROPE_JAN2023.values():
            for seed in range(5):
                trace = generate_month(p.code, seed=seed)
                assert trace.min() >= p.floor_intensity, (p.code, seed)

    def test_renewable_ordering_roughly_inverse_of_intensity(self):
        no, pl = get_zone("NO"), get_zone("PL")
        assert no.renewable_share > pl.renewable_share


class TestLookup:
    def test_case_insensitive(self):
        assert get_zone("de") is get_zone("DE")

    def test_unknown_zone_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            get_zone("XX")

    def test_list_zones_sorted_by_mean(self):
        zones = list_zones()
        means = [get_zone(z).mean_intensity_g_per_kwh for z in zones]
        assert means == sorted(means)

    def test_twelve_zones(self):
        assert len(EUROPE_JAN2023) == 12
