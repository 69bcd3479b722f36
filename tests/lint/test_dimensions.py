"""Tests for the linter's unit algebra and suffix parser."""

import pytest

from repro import units
from repro.lint.dimensions import (
    ATOMIC_UNITS,
    DIMENSIONLESS,
    is_conversion_literal,
    parse_name,
    unit_of_call,
)


def u(name):
    unit = parse_name(name)
    assert unit is not None, f"{name!r} should parse"
    return unit


class TestParseName:
    @pytest.mark.parametrize("name,label", [
        ("energy_kwh", "kWh"),
        ("total_energy_joules", "J"),
        ("avg_power_watts", "W"),
        ("avg_power_mw", "MW"),
        ("power_kw", "kW"),
        ("embodied_kg", "kg"),
        ("carbon_g", "g"),
        ("fleet_tonnes", "t"),
        ("duration_seconds", "s"),
        ("runtime_s", "s"),
        ("walltime_hours", "h"),
        ("lifetime_years", "year"),
        ("die_area_mm2", "mm2"),
        ("capacity_gb", "GB"),
    ])
    def test_atomic_suffixes(self, name, label):
        # the parsed unit must match the registered atomic unit
        token = name.rsplit("_", 1)[1]
        assert u(name).compatible(ATOMIC_UNITS[token])
        assert u(name).label == label

    def test_compound_per_chain(self):
        gi = u("grid_intensity_g_per_kwh")
        g, kwh = ATOMIC_UNITS["g"], ATOMIC_UNITS["kwh"]
        assert gi.compatible(g.div(kwh))

    def test_rate_chain(self):
        r = u("embodied_rate_kg_per_hour")
        assert r.compatible(ATOMIC_UNITS["kg"].div(ATOMIC_UNITS["hours"]))

    def test_opaque_per_item_denominator_drops_item(self):
        # kg-per-server stays comparable with plain kg
        assert u("embodied_kg_per_server").compatible(ATOMIC_UNITS["kg"])
        assert u("avg_power_w_per_server").compatible(ATOMIC_UNITS["w"])

    @pytest.mark.parametrize("name", [
        "renewable_share",          # dimensionless
        "n_nodes",                  # count
        "grid_intensity",           # quantity word, no suffix
        "ops_per_s",                # chain head 'ops' is not a unit
        "write_bw_gb_s",            # 'gb_s' is not a per-chain
        "delta",                    # nothing unit-like
    ])
    def test_non_units_do_not_parse(self, name):
        assert parse_name(name) is None

    def test_chain_must_not_start_midway(self):
        # trailing 's' of ops_per_s must not read as seconds, and the
        # 'cm2' of carbon_per_cm2 must not read as bare area
        assert parse_name("carbon_per_cm2") is None

    def test_unit_of_call_covers_converters_and_suffixed_functions(self):
        assert unit_of_call("joules_to_kwh").compatible(ATOMIC_UNITS["kwh"])
        assert unit_of_call("hours_to_seconds").compatible(ATOMIC_UNITS["s"])
        assert unit_of_call("operational_kg").compatible(ATOMIC_UNITS["kg"])
        assert unit_of_call("blended_intensity") is None


class TestAlgebra:
    def test_scales_match_units_module(self):
        assert ATOMIC_UNITS["kwh"].scale == units.JOULES_PER_KWH
        assert ATOMIC_UNITS["hours"].scale == units.SECONDS_PER_HOUR
        assert ATOMIC_UNITS["kg"].scale == units.GRAMS_PER_KG
        assert ATOMIC_UNITS["mw"].scale == units.WATTS_PER_MW

    def test_power_times_time_is_energy(self):
        w, s = ATOMIC_UNITS["w"], ATOMIC_UNITS["s"]
        joules = w.mul(s)
        assert joules.compatible(ATOMIC_UNITS["joules"])

    def test_watts_times_hours_is_wh_not_kwh(self):
        wh = ATOMIC_UNITS["w"].mul(ATOMIC_UNITS["hours"])
        assert wh.compatible(ATOMIC_UNITS["wh"])
        assert not wh.compatible(ATOMIC_UNITS["kwh"])
        assert wh.scale_ratio(ATOMIC_UNITS["kwh"]) == pytest.approx(
            1.0 / units.WH_PER_KWH)

    def test_energy_times_intensity_is_carbon(self):
        gi = parse_name("grid_intensity_g_per_kwh")
        g = ATOMIC_UNITS["kwh"].mul(gi)
        assert g.compatible(ATOMIC_UNITS["g"])

    def test_scalar_conversion_changes_scale(self):
        joules = ATOMIC_UNITS["joules"]
        kwh = joules.scaled_value(1.0 / units.JOULES_PER_KWH)
        assert kwh.compatible(ATOMIC_UNITS["kwh"])

    def test_same_dims_different_scale_incompatible(self):
        assert ATOMIC_UNITS["g"].same_dims(ATOMIC_UNITS["kg"])
        assert not ATOMIC_UNITS["g"].compatible(ATOMIC_UNITS["kg"])

    def test_invert(self):
        per_s = ATOMIC_UNITS["s"].invert()
        assert per_s.mul(ATOMIC_UNITS["s"]).compatible(DIMENSIONLESS)

    def test_dimensionless(self):
        assert DIMENSIONLESS.is_dimensionless
        ratio = ATOMIC_UNITS["kwh"].div(ATOMIC_UNITS["kwh"])
        assert ratio.is_dimensionless


class TestConversionLiterals:
    @pytest.mark.parametrize("value", [3600.0, 86400.0, 8760.0, 3.6e6])
    def test_unambiguous(self, value):
        assert is_conversion_literal(value)

    @pytest.mark.parametrize("value", [1.15, 0.85, 2.0, 42.0, 1000.0, 1e6])
    def test_engineering_factors_and_overloaded(self, value):
        # 1000/1e6 are only conversions in context; bare they are not
        assert not is_conversion_literal(value)
