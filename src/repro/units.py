"""Unit constants and conversion helpers used throughout :mod:`repro`.

The library standardizes on the following canonical units, chosen to match
the conventions of the paper and of the carbon-accounting literature it
builds on (GHG protocol, ACT, Li et al.):

===============  ======================  ==========================
Quantity          Canonical unit          Rationale
===============  ======================  ==========================
power             watt (W)                node/component power caps
energy            kilowatt-hour (kWh)     grid billing convention
carbon mass       gram CO2-eq (gCO2e)     carbon-intensity convention
carbon intensity  gCO2e per kWh           ElectricityMaps convention
time              second (s)              simulator clock
die area          square millimetre       ACT convention
===============  ======================  ==========================

Keeping conversions in one module avoids the classic failure mode of
carbon accounting code: silently mixing g/kg/t or J/kWh.  All helpers are
plain functions over floats/arrays so they vectorize transparently with
NumPy inputs.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------

SECONDS_PER_MINUTE: float = 60.0
SECONDS_PER_HOUR: float = 3_600.0
SECONDS_PER_DAY: float = 86_400.0
SECONDS_PER_YEAR: float = 365.0 * SECONDS_PER_DAY
HOURS_PER_DAY: float = 24.0
HOURS_PER_YEAR: float = 8_760.0

# --- energy ----------------------------------------------------------------

JOULES_PER_KWH: float = 3.6e6
WH_PER_KWH: float = 1_000.0

# --- carbon mass -----------------------------------------------------------

GRAMS_PER_KG: float = 1_000.0
GRAMS_PER_TONNE: float = 1e6
KG_PER_TONNE: float = 1_000.0

# --- power -----------------------------------------------------------------

WATTS_PER_KW: float = 1_000.0
WATTS_PER_MW: float = 1e6
KW_PER_MW: float = 1_000.0

# --- storage ---------------------------------------------------------------

#: decimal petabytes -> gigabytes, the convention of quoted capacities
GB_PER_PB: float = 1e6


def joules_to_kwh(joules):
    """Convert energy in joules to kilowatt-hours."""
    return joules / JOULES_PER_KWH


def kwh_to_joules(kwh):
    """Convert energy in kilowatt-hours to joules."""
    return kwh * JOULES_PER_KWH


def watts_to_kw(watts):
    """Convert power in watts to kilowatts."""
    return watts / WATTS_PER_KW


def kw_to_watts(kw):
    """Convert power in kilowatts to watts."""
    return kw * WATTS_PER_KW


def mw_to_watts(mw):
    """Convert power in megawatts to watts."""
    return mw * WATTS_PER_MW


def watts_to_mw(watts):
    """Convert power in watts to megawatts."""
    return watts / WATTS_PER_MW


def grams_to_kg(grams):
    """Convert carbon mass in grams CO2e to kilograms CO2e."""
    return grams / GRAMS_PER_KG


def kg_to_grams(kg):
    """Convert carbon mass in kilograms CO2e to grams CO2e."""
    return kg * GRAMS_PER_KG


def grams_to_tonnes(grams):
    """Convert carbon mass in grams CO2e to metric tonnes CO2e."""
    return grams / GRAMS_PER_TONNE


def tonnes_to_grams(tonnes):
    """Convert carbon mass in metric tonnes CO2e to grams CO2e."""
    return tonnes * GRAMS_PER_TONNE


def kg_to_tonnes(kg):
    """Convert carbon mass in kilograms CO2e to metric tonnes CO2e."""
    return kg / KG_PER_TONNE


def hours_to_seconds(hours):
    """Convert a duration in hours to seconds."""
    return hours * SECONDS_PER_HOUR


def seconds_to_hours(seconds):
    """Convert a duration in seconds to hours."""
    return seconds / SECONDS_PER_HOUR


def days_to_seconds(days):
    """Convert a duration in days to seconds."""
    return days * SECONDS_PER_DAY


def seconds_to_days(seconds):
    """Convert a duration in seconds to days."""
    return seconds / SECONDS_PER_DAY


def years_to_seconds(years):
    """Convert a duration in years (365-day) to seconds."""
    return years * SECONDS_PER_YEAR


def seconds_to_years(seconds):
    """Convert a duration in seconds to years (365-day)."""
    return seconds / SECONDS_PER_YEAR


def energy_kwh(power_watts, duration_seconds):
    """Energy in kWh drawn by a constant ``power_watts`` load for ``duration_seconds``.

    This is the elementary building block of operational carbon accounting:
    operational gCO2e = carbon_intensity [g/kWh] * energy [kWh].
    """
    return power_watts * duration_seconds / SECONDS_PER_HOUR / WH_PER_KWH


def operational_carbon_g(power_watts, duration_seconds, intensity_g_per_kwh):
    """Operational carbon (gCO2e) of a constant load under constant intensity.

    For time-varying power or intensity, the RJMS accrual
    (:mod:`repro.scheduler.rjms`) integrates each piecewise-constant
    power step against the provider's exact intensity integral.
    """
    return energy_kwh(power_watts, duration_seconds) * intensity_g_per_kwh
