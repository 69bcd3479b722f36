"""Shared fixtures for the serving-layer suite: synthetic clocks and
sleep recorders, so every backoff/breaker transition is driven
without wall-clock waits."""

from __future__ import annotations

import pytest


class FakeClock:
    """Manually advanced monotonic clock."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class SleepRecorder:
    """No-op sleep that records every requested delay."""

    def __init__(self) -> None:
        self.delays: list = []

    def __call__(self, delay_s: float) -> None:
        self.delays.append(delay_s)


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def sleeper() -> SleepRecorder:
    return SleepRecorder()
