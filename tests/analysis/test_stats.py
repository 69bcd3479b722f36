"""Tests for the analysis statistics helpers."""

import pytest

from repro.analysis import daily_statistics, relative_saving, zone_ratio, zone_statistics_table
from repro.grid import generate_month


class TestDailyStatistics:
    def test_matches_trace_methods(self):
        t = generate_month("DE", seed=0)
        s = daily_statistics(t)
        assert s["mean"] == pytest.approx(t.mean())
        assert s["daily_std"] == pytest.approx(t.daily_means().std())
        assert s["n_days"] == 31

    def test_finland_paper_value(self):
        s = daily_statistics(generate_month("FI", seed=0))
        assert s["daily_std"] == pytest.approx(47.21, abs=1e-6)


class TestZoneRatio:
    def test_fi_fr_is_2_1(self):
        assert zone_ratio("FI", "FR") == pytest.approx(2.1)

    def test_self_ratio_is_one(self):
        assert zone_ratio("DE", "DE") == pytest.approx(1.0)


class TestZoneTable:
    def test_sorted_by_mean(self):
        rows = zone_statistics_table(["DE", "NO", "FR"])
        assert [r["zone"] for r in rows] == ["NO", "FR", "DE"]

    def test_contains_statistics(self):
        rows = zone_statistics_table(["FI"])
        assert rows[0]["daily_std"] == pytest.approx(47.21, abs=1e-6)


class TestRelativeSaving:
    def test_basic(self):
        assert relative_saving(100.0, 90.0) == pytest.approx(0.1)
        assert relative_saving(100.0, 110.0) == pytest.approx(-0.1)

    def test_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            relative_saving(0.0, 1.0)
