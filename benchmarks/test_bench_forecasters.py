"""E13 (extension) — Carbon-intensity forecast skill table (§3.1/§3.3).

The paper leans on "forecasting techniques that leverage historical
carbon intensity data" without quantifying them; this bench supplies
the missing table: rolling-origin 24h-ahead skill of every forecaster
on two contrasting zones (diurnal-dominated ES vs synoptic-dominated
DE).

Expected shape: persistence is worst; seasonal-naive is strong where
the diurnal cycle dominates; the AR-on-anomalies model wins where
synoptic (multi-day weather) variability dominates; the ensemble hedges
between them.
"""

from benchmarks.conftest import report
from repro import units
from repro.grid import (
    ARForecaster,
    EnsembleForecaster,
    ExponentialSmoothingForecaster,
    PersistenceForecaster,
    SeasonalNaiveForecaster,
    SyntheticProvider,
    compare_forecasters,
)


def build_tables():
    out = {}
    for zone in ("ES", "DE"):
        provider = SyntheticProvider(zone, seed=3)
        out[zone] = compare_forecasters(
            provider,
            {
                "persistence": PersistenceForecaster(),
                "seasonal-naive": SeasonalNaiveForecaster(),
                "exp-smoothing": ExponentialSmoothingForecaster(),
                "ar4": ARForecaster(order=4),
                "ensemble": EnsembleForecaster(),
            },
            fit_window_s=10 * units.SECONDS_PER_DAY, horizon_steps=24,
            n_folds=6)
    return out


def test_bench_forecasters(benchmark):
    tables = benchmark.pedantic(build_tables, rounds=1, iterations=1)

    for zone, table in tables.items():
        # persistence is the floor everywhere
        assert table["persistence"]["rmse"] >= \
            table["ar4"]["rmse"] - 1e-9, zone
        # the ensemble never does worse than its worst member
        members = ("seasonal-naive", "exp-smoothing", "ar4")
        worst = max(table[m]["rmse"] for m in members)
        assert table["ensemble"]["rmse"] <= worst + 1e-9, zone

    # AR exploits DE's synoptic persistence
    assert tables["DE"]["ar4"]["rmse"] < \
        tables["DE"]["persistence"]["rmse"] * 0.9

    lines = []
    for zone, table in tables.items():
        lines.append(f"zone {zone} (24h-ahead, 6 rolling folds):")
        lines.append(f"  {'forecaster':>15s} {'MAE':>7s} {'RMSE':>7s} "
                     f"{'MAPE%':>7s}")
        for name, row in sorted(table.items(),
                                key=lambda kv: kv[1]["rmse"]):
            lines.append(f"  {name:>15s} {row['mae']:7.1f} "
                         f"{row['rmse']:7.1f} {row['mape']:7.1f}")
        lines.append("")
    report("E13 — forecast skill table (extension)", "\n".join(lines))
