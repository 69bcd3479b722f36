"""Tests for the fault-injection wrappers themselves."""

import numpy as np
import pytest

from repro.grid import StaticProvider, SyntheticProvider
from repro.service import FlakyProvider, SlowProvider, TransientBackendError


class TestFlakyProvider:
    def test_never_fails_at_zero_rate(self):
        f = FlakyProvider(StaticProvider(100.0), failure_rate=0.0)
        for t in range(10):
            assert f.intensity_at(float(t)) == 100.0
        assert f.calls == 10 and f.failures == 0

    def test_always_fails_at_full_rate(self):
        f = FlakyProvider(StaticProvider(100.0), failure_rate=1.0)
        with pytest.raises(TransientBackendError):
            f.intensity_at(0.0)
        assert f.failures == 1

    def test_failure_sequence_is_seed_deterministic(self):
        def sequence(seed):
            f = FlakyProvider(StaticProvider(1.0), failure_rate=0.5,
                              seed=seed)
            out = []
            for t in range(40):
                try:
                    f.intensity_at(float(t))
                    out.append(True)
                except TransientBackendError:
                    out.append(False)
            return out

        assert sequence(3) == sequence(3)
        assert sequence(3) != sequence(4)

    def test_fail_all_switch_simulates_outage_and_recovery(self):
        f = FlakyProvider(StaticProvider(100.0))
        assert f.intensity_at(0.0) == 100.0
        f.fail_all = True
        with pytest.raises(TransientBackendError):
            f.intensity_at(0.0)
        f.fail_all = False
        assert f.intensity_at(0.0) == 100.0

    def test_covers_all_three_calls(self):
        f = FlakyProvider(SyntheticProvider("DE", seed=0), fail_all=True)
        with pytest.raises(TransientBackendError):
            f.intensity_at(0.0)
        with pytest.raises(TransientBackendError):
            f.average_intensity_at(0.0)
        with pytest.raises(TransientBackendError):
            f.history(0.0, 3600.0)
        assert f.calls == f.failures == 3

    def test_passthrough_matches_inner(self):
        inner = SyntheticProvider("DE", seed=0)
        f = FlakyProvider(SyntheticProvider("DE", seed=0))
        t = 36 * 3600.0
        assert f.intensity_at(t) == inner.intensity_at(t)
        assert f.zone_code == inner.zone_code
        np.testing.assert_array_equal(
            f.history(0.0, 86400.0).values,
            inner.history(0.0, 86400.0).values)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlakyProvider(StaticProvider(1.0), failure_rate=1.5)


class TestSlowProvider:
    def test_records_latency_without_real_sleep(self, sleeper):
        s = SlowProvider(StaticProvider(50.0), latency_s=0.2, sleep=sleeper)
        assert s.intensity_at(0.0) == 50.0
        assert s.average_intensity_at(0.0) == 50.0
        s.history(0.0, 3600.0)
        assert s.calls == 3
        assert s.slept_s == pytest.approx(0.6)
        assert sleeper.delays == [0.2, 0.2, 0.2]

    def test_validation(self):
        with pytest.raises(ValueError):
            SlowProvider(StaticProvider(1.0), latency_s=-0.1)

    def test_no_jitter_means_fixed_latency(self, sleeper):
        s = SlowProvider(StaticProvider(1.0), latency_s=0.2,
                         sleep=sleeper)
        s.intensity_at(0.0)
        assert sleeper.delays == [0.2]
