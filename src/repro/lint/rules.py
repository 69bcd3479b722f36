"""The linter's rules: pure decision functions over inferred units.

Each ``check_*`` function receives already-inferred units (or values) from
the engine and returns ``None`` for "fine" or a ``(rule, message)`` pair.
Keeping the decisions here — free of any :mod:`ast` traversal — makes each
rule unit-testable against plain :class:`~repro.lint.dimensions.Unit`
values and keeps :mod:`repro.lint.engine` purely about syntax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.lint.dimensions import MAGIC_CONSTANTS, Unit, parse_name

__all__ = [
    "RULES",
    "Rule",
    "QUANTITY_WORDS",
    "DIMENSIONLESS_WORDS",
    "check_additive",
    "check_assignment",
    "check_dataclass_field",
    "check_magic_literal",
]

RuleHit = Optional[Tuple[str, str]]


@dataclass(frozen=True)
class Rule:
    code: str
    summary: str


#: registry of every rule the engine can emit, keyed by code.  The codes
#: double as the suppression vocabulary: ``# repro-lint: ignore[unit-mix]``.
RULES: Dict[str, Rule] = {
    r.code: r for r in (
        Rule("unit-mix",
             "+/-/comparison between incompatible dimensions or scales"),
        Rule("unit-assign",
             "value of one unit bound to a name/keyword carrying another"),
        Rule("derived-dim",
             "product/quotient dimension contradicts the target name"),
        Rule("unsuffixed-field",
             "numeric dataclass field holds a quantity but has no unit suffix"),
        Rule("magic-constant",
             "inline conversion constant shadowing a named repro.units one"),
    )
}

#: words that mark a dataclass field as carrying a physical quantity.
QUANTITY_WORDS = frozenset({
    "power", "energy", "carbon", "intensity", "emission", "emissions",
    "footprint", "embodied", "operational", "wattage",
})

#: words that mark a field as a pure number even if a quantity word is
#: also present (``embodied_share``, ``power_factor``, ...).
DIMENSIONLESS_WORDS = frozenset({
    "share", "fraction", "frac", "ratio", "pct", "percent", "factor",
    "efficiency", "index", "rank", "score", "count", "n", "num", "weight",
    "coeff", "coefficient", "exponent", "scale", "slope",
})


def _fmt(unit: Unit) -> str:
    return str(unit)


def _scale_hint(have: Unit, want: Unit) -> str:
    ratio = have.scale_ratio(want)
    if ratio >= 1:
        return f"value is {ratio:g}x too large in the target unit"
    return f"value is {1 / ratio:g}x too small in the target unit"


def check_additive(op: str, left: Optional[Unit],
                   right: Optional[Unit]) -> RuleHit:
    """``unit-mix``: +, -, or comparison between incompatible quantities.

    Only fires when *both* sides carry an inferred unit; an unknown or
    pure-number operand is given the benefit of the doubt.
    """
    if left is None or right is None:
        return None
    if left.is_dimensionless or right.is_dimensionless:
        return None
    if left.compatible(right):
        return None
    if left.same_dims(right):
        return ("unit-mix",
                f"{op} between same dimension at different scales "
                f"({_fmt(left)} vs {_fmt(right)}): {_scale_hint(left, right)}")
    return ("unit-mix",
            f"{op} between incompatible dimensions "
            f"({_fmt(left)} vs {_fmt(right)})")


def check_assignment(target_name: str, target_unit: Optional[Unit],
                     value_unit: Optional[Unit], *,
                     derived: bool) -> RuleHit:
    """``unit-assign`` / ``derived-dim``: value unit vs the name it feeds.

    ``derived`` selects the rule code: a value built from ``*``/``/`` that
    lands in the wrong unit is a *derivation* bug (``derived-dim``, e.g. a
    missing ``WH_PER_KWH`` factor); a plain value passed into the wrong
    slot is a *plumbing* bug (``unit-assign``).
    """
    if target_unit is None or value_unit is None:
        return None
    if value_unit.is_dimensionless:
        return None
    if target_unit.compatible(value_unit):
        return None
    code = "derived-dim" if derived else "unit-assign"
    if target_unit.same_dims(value_unit):
        return (code,
                f"{_fmt(value_unit)} value bound to {target_name!r} "
                f"({_fmt(target_unit)}): {_scale_hint(value_unit, target_unit)}"
                " — apply the matching repro.units conversion")
    return (code,
            f"{_fmt(value_unit)} value bound to {target_name!r} which "
            f"declares {_fmt(target_unit)}")


def check_dataclass_field(field_name: str, annotation: str) -> RuleHit:
    """``unsuffixed-field``: quantity-named numeric field with no suffix."""
    if parse_name(field_name) is not None:
        return None
    if not any(t in ("float", "int", "ndarray") for t in
               annotation.replace("[", " ").replace("]", " ")
               .replace(".", " ").split()):
        return None
    words = set(field_name.lower().split("_"))
    if not words & QUANTITY_WORDS:
        return None
    if words & DIMENSIONLESS_WORDS:
        return None
    return ("unsuffixed-field",
            f"field {field_name!r} holds a physical quantity but declares "
            "no unit suffix (_kwh, _watts, _g, _kg, _g_per_kwh, ...)")


def check_magic_literal(value: float, other_unit: Optional[Unit]) -> RuleHit:
    """``magic-constant``: inline conversion constant in a ``*``/``/``.

    Unambiguous constants (3600, 86400, 8760, 3.6e6, 365*86400) are
    flagged wherever they scale something; overloaded ones (1000, 1e6)
    only when the other operand demonstrably carries a unit, so plain
    counts like ``5e6`` budgets stay legal.
    """
    try:
        entry = MAGIC_CONSTANTS.get(float(value))
    except (TypeError, OverflowError):
        return None
    if entry is None:
        return None
    names, always = entry
    if not always and (other_unit is None or other_unit.is_dimensionless):
        return None
    return ("magic-constant",
            f"inline conversion constant {value:g}; use "
            f"{' or '.join(names)}")
