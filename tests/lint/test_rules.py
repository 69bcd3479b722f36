"""Per-rule tests: every rule must catch its known-bad snippet.

These snippets are deliberately seeded unit bugs, each written to be
caught by exactly the intended rule — they double as the proof that no
rule is dead code (acceptance criterion of the linter issue).
"""

import textwrap

from repro.lint import RULES, lint_source
from repro.lint.dimensions import ATOMIC_UNITS
from repro.lint.rules import (
    check_additive,
    check_assignment,
    check_dataclass_field,
    check_magic_literal,
)


def findings_for(code):
    return lint_source(textwrap.dedent(code), "snippet.py")


def rules_hit(code):
    return {f.rule for f in findings_for(code)}


class TestUnitMix:
    def test_adding_grams_to_kilograms(self):
        assert rules_hit("total = embodied_kg + operational_g") == {"unit-mix"}

    def test_subtracting_energy_from_power(self):
        assert rules_hit("x = power_watts - energy_kwh") == {"unit-mix"}

    def test_comparing_seconds_to_hours(self):
        assert rules_hit("flag = runtime_s < deadline_hours") == {"unit-mix"}

    def test_compatible_addition_is_clean(self):
        assert rules_hit("total_kg = embodied_kg + operational_kg") == set()

    def test_unknown_operand_is_clean(self):
        assert rules_hit("t1 = t0 + max(runtime_estimate, 3600.0)") == set()

    def test_decision_function(self):
        hit = check_additive("+", ATOMIC_UNITS["g"], ATOMIC_UNITS["kg"])
        assert hit is not None and hit[0] == "unit-mix"
        assert "1000x" in hit[1]


class TestUnitAssign:
    def test_kg_value_into_g_name(self):
        assert rules_hit("carbon_g = embodied_kg") == {"unit-assign"}

    def test_watts_into_kw_keyword(self):
        assert rules_hit("run(power_kw=node_power_watts)") == {"unit-assign"}

    def test_seconds_into_hours_keyword(self):
        assert rules_hit("advise(work_hours=runtime_s)") == {"unit-assign"}

    def test_converter_call_makes_it_clean(self):
        assert rules_hit("carbon_g = kg_to_grams(embodied_kg)") == set()

    def test_same_unit_is_clean(self):
        assert rules_hit("carbon_g = operational_g") == set()

    def test_decision_function(self):
        hit = check_assignment("carbon_g", ATOMIC_UNITS["g"],
                               ATOMIC_UNITS["kg"], derived=False)
        assert hit is not None and hit[0] == "unit-assign"


class TestDerivedDim:
    def test_watts_times_hours_bound_to_kwh(self):
        # missing the WH_PER_KWH factor
        assert rules_hit(
            "energy_kwh = power_watts * duration_hours") == {"derived-dim"}

    def test_correct_kwh_derivation_is_clean(self):
        code = """
        energy_kwh = (power_watts * duration_seconds
                      / SECONDS_PER_HOUR / WH_PER_KWH)
        """
        assert rules_hit(code) == set()

    def test_wrong_dimension_entirely(self):
        assert rules_hit(
            "carbon_g = power_watts * intensity_g_per_kwh") == {"derived-dim"}

    def test_return_in_suffixed_function(self):
        code = """
        def embodied_rate_kg_per_hour(embodied_kg, lifetime_years):
            return embodied_kg / (lifetime_years * HOURS_PER_YEAR)
        """
        assert rules_hit(code) == set()

    def test_return_missing_conversion(self):
        code = """
        def energy_kwh(power_watts, duration_hours):
            return power_watts * duration_hours
        """
        assert rules_hit(code) == {"derived-dim"}

    def test_engineering_scalar_preserves_unit(self):
        # 1.15 interposer overhead is not a unit conversion
        assert rules_hit("area_mm2 = 1.15 * total_area_mm2") == set()

    def test_decision_function(self):
        wh = ATOMIC_UNITS["w"].mul(ATOMIC_UNITS["hours"])
        hit = check_assignment("energy_kwh", ATOMIC_UNITS["kwh"], wh,
                               derived=True)
        assert hit is not None and hit[0] == "derived-dim"


class TestUnsuffixedField:
    def test_quantity_field_without_suffix(self):
        code = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Model:
            grid_intensity: float
        """
        assert rules_hit(code) == {"unsuffixed-field"}

    def test_suffixed_field_is_clean(self):
        code = """
        from dataclasses import dataclass

        @dataclass
        class Model:
            grid_intensity_g_per_kwh: float
            avg_power_watts: float
        """
        assert rules_hit(code) == set()

    def test_dimensionless_words_exempt(self):
        code = """
        from dataclasses import dataclass

        @dataclass
        class Model:
            embodied_share: float
            power_factor: float
            renewable_fraction: float
        """
        assert rules_hit(code) == set()

    def test_non_dataclass_is_ignored(self):
        code = """
        class Plain:
            grid_intensity: float
        """
        assert rules_hit(code) == set()

    def test_non_numeric_annotation_is_ignored(self):
        code = """
        from dataclasses import dataclass

        @dataclass
        class Model:
            intensity_trace: "CarbonIntensityTrace"
        """
        assert rules_hit(code) == set()

    def test_decision_function(self):
        hit = check_dataclass_field("grid_intensity", "float")
        assert hit is not None and hit[0] == "unsuffixed-field"
        assert check_dataclass_field("grid_intensity_g_per_kwh",
                                     "float") is None


class TestMagicConstant:
    def test_joules_per_kwh_literal(self):
        assert rules_hit("x = watts * runtime_s / 3.6e6") == {"magic-constant"}

    def test_seconds_per_hour_literal(self):
        assert rules_hit("deadline = 12 * 3600.0") == {"magic-constant"}

    def test_overloaded_1000_with_united_operand(self):
        assert "magic-constant" in rules_hit("kg = carbon_g / 1000.0")

    def test_overloaded_1000_without_context_is_clean(self):
        assert rules_hit("budget = 1000.0 * factor") == set()

    def test_named_constant_is_clean(self):
        assert rules_hit(
            "deadline_s = 12 * units.SECONDS_PER_HOUR") == set()

    def test_decision_function(self):
        hit = check_magic_literal(3600.0, None)
        assert hit is not None and hit[0] == "magic-constant"
        assert "SECONDS_PER_HOUR" in hit[1]
        assert check_magic_literal(1000.0, None) is None
        assert check_magic_literal(1000.0, ATOMIC_UNITS["g"]) is not None


class TestSuppression:
    def test_inline_ignore_specific_rule(self):
        code = ("carbon_g = embodied_kg"
                "  # repro-lint: ignore[unit-assign] -- legacy alias")
        assert rules_hit(code) == set()

    def test_inline_ignore_all(self):
        assert rules_hit("carbon_g = embodied_kg  # repro-lint: ignore") == set()

    def test_ignore_wrong_rule_does_not_suppress(self):
        code = "carbon_g = embodied_kg  # repro-lint: ignore[unit-mix]"
        assert rules_hit(code) == {"unit-assign"}

    def test_skip_file(self):
        code = "# repro-lint: skip-file\ncarbon_g = embodied_kg\n"
        assert rules_hit(code) == set()


class TestCoverage:
    def test_every_registered_rule_has_a_firing_snippet(self):
        """No rule is dead code: each is triggered by at least one snippet."""
        snippets = {
            "unit-mix": "x = embodied_kg + operational_g",
            "unit-assign": "carbon_g = embodied_kg",
            "derived-dim": "energy_kwh = power_watts * duration_hours",
            "unsuffixed-field": (
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class M:\n"
                "    grid_intensity: float\n"),
            "magic-constant": "x = runtime_s / 3600.0",
        }
        assert set(snippets) == set(RULES)
        for rule, code in snippets.items():
            assert rule in rules_hit(code), f"rule {rule} never fires"
