"""Carbon-aware total-power-budget policies (§3.1).

"Scaling up/down the total system power constraint in accordance with
the carbon intensity changes is essential.  This can be achieved by
adding two properties to the PowerStack: a carbon intensity monitor and
a simple mechanism to automatically determine the total system power
budget based on it."

A :class:`PowerBudgetPolicy` is that mechanism: given the provider (the
monitor) and the current time, return the total system power budget.
Four implementations:

* :class:`StaticBudgetPolicy` — the carbon-blind baseline;
* :class:`LinearScalingPolicy` — budget interpolates from ``max`` at/below
  a low-intensity anchor to ``min`` at/above a high-intensity anchor;
* :class:`StepScalingPolicy` — discrete green/normal/red budget tiers
  (the operationally popular variant: admins like predictable states);
* :class:`ForecastScalingPolicy` — wraps another policy but feeds it
  the *forecast mean* over a smoothing horizon instead of the spot
  intensity, damping reaction to short spikes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.forecast import Forecaster, SeasonalNaiveForecaster
from repro.grid.providers import CarbonIntensityProvider
from repro import units

__all__ = [
    "PowerBudgetPolicy",
    "StaticBudgetPolicy",
    "LinearScalingPolicy",
    "StepScalingPolicy",
    "ForecastScalingPolicy",
]


class PowerBudgetPolicy(ABC):
    """Maps (provider, now) -> total system power budget (watts)."""

    @abstractmethod
    def budget(self, provider: CarbonIntensityProvider, now: float) -> float:
        """Total system power budget in watts at time ``now``."""


class StaticBudgetPolicy(PowerBudgetPolicy):
    """Constant budget — the carbon-blind baseline."""

    def __init__(self, budget_watts: float) -> None:
        if budget_watts <= 0:
            raise ValueError("budget must be positive")
        self.budget_watts = float(budget_watts)

    def budget(self, provider: CarbonIntensityProvider, now: float) -> float:
        return self.budget_watts


class LinearScalingPolicy(PowerBudgetPolicy):
    """Linear interpolation between intensity anchors.

    Budget = ``max_watts`` when intensity <= ``ci_low``, ``min_watts``
    when intensity >= ``ci_high``, linear in between.  The energy-neutral
    comparison against a static baseline sets the anchors so the
    *time-average* budget matches the static one (see bench E8).
    """

    def __init__(self, min_watts: float, max_watts: float,
                 ci_low: float, ci_high: float) -> None:
        if not 0 < min_watts <= max_watts:
            raise ValueError("need 0 < min_watts <= max_watts")
        if not 0 <= ci_low < ci_high:
            raise ValueError("need 0 <= ci_low < ci_high")
        self.min_watts = float(min_watts)
        self.max_watts = float(max_watts)
        self.ci_low = float(ci_low)
        self.ci_high = float(ci_high)

    def budget(self, provider: CarbonIntensityProvider, now: float) -> float:
        ci = provider.intensity_at(now)
        if ci <= self.ci_low:
            return self.max_watts
        if ci >= self.ci_high:
            return self.min_watts
        frac = (ci - self.ci_low) / (self.ci_high - self.ci_low)
        return self.max_watts - frac * (self.max_watts - self.min_watts)


class StepScalingPolicy(PowerBudgetPolicy):
    """Discrete budget tiers by intensity thresholds.

    ``thresholds`` are ascending intensity boundaries; ``budgets`` has
    one more entry than ``thresholds`` (budget below the first boundary,
    between each pair, and above the last), descending.
    """

    def __init__(self, thresholds: Sequence[float],
                 budgets: Sequence[float]) -> None:
        if len(budgets) != len(thresholds) + 1:
            raise ValueError("need len(budgets) == len(thresholds) + 1")
        th = list(thresholds)
        if th != sorted(th) or len(set(th)) != len(th):
            raise ValueError("thresholds must be strictly ascending")
        if any(b <= 0 for b in budgets):
            raise ValueError("budgets must be positive")
        if list(budgets) != sorted(budgets, reverse=True):
            raise ValueError("budgets must be descending (greener = more power)")
        self.thresholds = np.asarray(th, dtype=np.float64)
        self.budgets = np.asarray(list(budgets), dtype=np.float64)

    def budget(self, provider: CarbonIntensityProvider, now: float) -> float:
        ci = provider.intensity_at(now)
        idx = int(np.searchsorted(self.thresholds, ci, side="right"))
        return float(self.budgets[idx])


class ForecastScalingPolicy(PowerBudgetPolicy):
    """Smooth another policy's input with a forecast mean (§3.1's
    "carbon intensity prediction can support the job scheduler").

    The inner policy is evaluated against the mean *forecast* intensity
    over ``horizon_s``, so short spikes do not bounce the budget (which
    would churn every running job's caps).
    """

    def __init__(self, inner: PowerBudgetPolicy,
                 forecaster: Optional[Forecaster] = None,
                 horizon_s: float = 4 * units.SECONDS_PER_HOUR,
                 history_s: float = 3 * units.SECONDS_PER_DAY) -> None:
        if horizon_s <= 0 or history_s <= 0:
            raise ValueError("horizon and history must be positive")
        self.inner = inner
        self.forecaster = forecaster or SeasonalNaiveForecaster()
        self.horizon_s = float(horizon_s)
        self.history_s = float(history_s)

    def budget(self, provider: CarbonIntensityProvider, now: float) -> float:
        t0 = max(0.0, now - self.history_s)
        if now - t0 < 2 * units.SECONDS_PER_HOUR:
            return self.inner.budget(provider, now)
        history = provider.history(t0, now)
        self.forecaster.fit(history)
        steps = max(1, int(np.ceil(self.horizon_s / history.step_seconds)))
        forecast = self.forecaster.predict(steps)
        smoothed = forecast.mean()

        class _Spot:
            """Present the smoothed value as the spot intensity."""
            zone_code = provider.zone_code

            @staticmethod
            def intensity_at(t: float) -> float:
                return smoothed

            @staticmethod
            def history(a: float, b: float):
                return provider.history(a, b)

        return self.inner.budget(_Spot(), now)
