"""Command-line interface: ``python -m repro <command>``.

Operational entry points for the reproduction's artifacts and tools:

====================  ====================================================
command                what it does
====================  ====================================================
``fig1``               render Figure 1 (embodied breakdown, Top-3 systems)
``fig2``               render Figure 2 (European daily intensities)
``table1``             render Table 1 (LRZ system lifetimes)
``carbon500``          render the Carbon500 ranking
``audit SYSTEM``       embodied + siting audit of a known system
``simulate``           run a carbon-aware scheduling simulation
``forecast ZONE``      rolling forecast-skill table for one zone
``advise``             allocation advice for a job's scaling profile
``lint``               dimensional-consistency linter (repro.lint)
``service stats``      drive the carbon serving layer, print its metrics
``service query``      one intensity lookup through the serving layer
``sweep``              run a named scenario grid, optionally under faults
``obs trace``          traced sweep -> Chrome/JSONL timeline (repro.obs)
``obs stats``          instrumented run -> Prometheus text exposition
``obs top``            rank the slowest spans of a trace
``chaos plan``         print a deterministic fault schedule (repro.chaos)
====================  ====================================================

Everything prints to stdout; machine-readable exports go through
:mod:`repro.accounting.export` and :mod:`repro.grid.io` instead.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import units

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Sustainability-in-HPC reproduction toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("fig1", help="Figure 1: embodied carbon breakdown")

    fig2 = sub.add_parser("fig2", help="Figure 2: daily carbon intensities")
    fig2.add_argument("--zones", default=None,
                      help="comma-separated zone codes (default: all)")
    fig2.add_argument("--seed", type=int, default=0)

    sub.add_parser("table1", help="Table 1: LRZ system lifetimes")
    sub.add_parser("carbon500", help="the Carbon500 ranking")

    audit = sub.add_parser("audit", help="audit a known system inventory")
    audit.add_argument("system", help='e.g. "SuperMUC-NG"')
    audit.add_argument("--intensity", type=float, default=20.0,
                       help="site grid intensity gCO2/kWh (default: LRZ 20)")

    sim = sub.add_parser("simulate", help="carbon-aware scheduling run")
    sim.add_argument("--nodes", type=int, default=32)
    sim.add_argument("--jobs", type=int, default=100)
    sim.add_argument("--zone", default="DE")
    sim.add_argument("--policy", choices=["fcfs", "easy", "carbon"],
                     default="carbon")
    sim.add_argument("--seed", type=int, default=0)

    fc = sub.add_parser("forecast", help="forecast-skill table for a zone")
    fc.add_argument("zone")
    fc.add_argument("--seed", type=int, default=3)

    adv = sub.add_parser("advise", help="allocation advice for a job")
    adv.add_argument("--work-hours", type=float, required=True,
                     help="single-node runtime in hours")
    adv.add_argument("--parallel-fraction", type=float, default=0.98)
    adv.add_argument("--max-nodes", type=int, default=64)
    adv.add_argument("--objective", default="efficiency",
                     choices=["efficiency", "energy", "deadline"])
    adv.add_argument("--deadline-hours", type=float, default=None)

    from repro.lint.cli import add_arguments as add_lint_arguments
    add_lint_arguments(sub.add_parser(
        "lint", help="dimensional-consistency linter (see repro.lint)"))

    svc = sub.add_parser(
        "service", help="carbon-data serving layer (see repro.service)")
    svc_sub = svc.add_subparsers(dest="service_command", required=True)

    st = svc_sub.add_parser(
        "stats", help="run a scripted query loop, print service metrics")
    st.add_argument("--zone", default="DE")
    st.add_argument("--queries", type=int, default=2000,
                    help="number of spot queries in the loop")
    st.add_argument("--span-days", type=float, default=2.0,
                    help="time span the queries are drawn from")
    st.add_argument("--quantize-minutes", type=float, default=5.0,
                    help="cache quantization window (0 = exact times)")
    st.add_argument("--repeat-fraction", type=float, default=0.8,
                    help="fraction of queries re-asking a recent time "
                         "(models polling consumers)")
    st.add_argument("--failure-rate", type=float, default=0.0,
                    help="injected backend failure probability")
    st.add_argument("--batch", type=int, default=0,
                    help="issue queries in coalesced batches of this "
                         "size (0 = one by one)")
    st.add_argument("--seed", type=int, default=0)

    q = svc_sub.add_parser(
        "query", help="one intensity lookup through the serving layer")
    q.add_argument("zone")
    q.add_argument("--at-hours", type=float, default=24.0,
                   help="query time, hours since trace start")
    q.add_argument("--signal", choices=["marginal", "average"],
                   default="marginal")
    q.add_argument("--seed", type=int, default=0)

    sw = sub.add_parser(
        "sweep", help="run a registered scenario grid (see repro.parallel)")
    sw.add_argument("scenario", nargs="?", default=None,
                    help="registered sweep name (omit with --list)")
    sw.add_argument("--list", action="store_true", dest="list_sweeps",
                    help="list registered sweeps and exit")
    sw.add_argument("--workers", type=int, default=1,
                    help="process-pool size; 1 = serial in-process, "
                         "0 = one per CPU (default: 1)")
    sw.add_argument("--no-strict", action="store_true",
                    help="report failing cells in the output instead "
                         "of aborting the sweep")
    sw.add_argument("--set", action="append", default=[], metavar="P=V,V",
                    dest="overrides",
                    help="override one grid parameter's value list, "
                         "e.g. --set max_delay_h=3,6,12")
    sw.add_argument("--journal", default=None, metavar="FILE",
                    help="write an fsync'd JSONL cell-outcome journal "
                         "(the sweep's checkpoint; see repro.chaos)")
    sw.add_argument("--resume", action="store_true",
                    help="replay --journal's completed cells, "
                         "re-execute only the missing/failed ones")
    sw.add_argument("--cell-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="per-cell watchdog: quarantine a cell running "
                         "longer than this (needs --workers > 1)")
    sw.add_argument("--retries", type=int, default=0,
                    help="re-run a failing cell up to this many extra "
                         "times before giving up on it (default: 0)")
    from repro.chaos.cli import _add_plan_arguments, add_chaos_subparsers
    _add_plan_arguments(sw)

    from repro.obs.cli import add_obs_subparsers
    add_obs_subparsers(sub.add_parser(
        "obs", help="observability: tracing, metrics, profiling "
                    "(see repro.obs)"))

    add_chaos_subparsers(sub.add_parser(
        "chaos", help="fault injection + crash-safe sweep harness "
                      "(see repro.chaos)"))
    return p


def _cmd_fig1() -> None:
    from repro.analysis import render_fig1
    print(render_fig1())


def _cmd_fig2(args) -> None:
    from repro.analysis import render_fig2
    zones = args.zones.split(",") if args.zones else None
    print(render_fig2(zones=zones, seed=args.seed))


def _cmd_table1() -> None:
    from repro.analysis import render_table1
    print(render_table1())


def _cmd_carbon500() -> None:
    from repro.analysis import render_carbon500
    from repro.embodied import carbon500_ranking
    from repro.grid.zones import EUROPE_JAN2023

    zi = {z: p.mean_intensity_g_per_kwh
          for z, p in EUROPE_JAN2023.items()}
    print(render_carbon500(carbon500_ranking(zone_intensities=zi)))


def _cmd_audit(args) -> None:
    from repro.analysis import render_fig1
    from repro.core import FootprintModel
    from repro.embodied import KNOWN_SYSTEMS, system_embodied_breakdown

    system = KNOWN_SYSTEMS.get(args.system)
    if system is None:
        raise SystemExit(
            f"unknown system {args.system!r}; known: "
            f"{', '.join(sorted(KNOWN_SYSTEMS))}")
    print(render_fig1([system]))
    b = system_embodied_breakdown(system)
    model = FootprintModel(b["total"],
                           system.avg_power_mw * units.WATTS_PER_MW,
                           system.lifetime_years, args.intensity)
    r = model.lifetime_report()
    print(f"lifetime footprint @ {args.intensity:.0f} g/kWh: "
          f"{r.total_kg / units.KG_PER_TONNE:.0f} t "
          f"(embodied share {r.embodied_share:.1%})")


def _cmd_simulate(args) -> None:
    from repro.grid import SyntheticProvider
    from repro.scheduler import (
        RJMS,
        CarbonBackfillPolicy,
        EasyBackfillPolicy,
        FCFSPolicy,
    )
    from repro.simulator import (
        Cluster,
        ComponentPowerModel,
        NodePowerModel,
        WorkloadConfig,
        WorkloadGenerator,
    )

    policies = {"fcfs": FCFSPolicy, "easy": EasyBackfillPolicy,
                "carbon": CarbonBackfillPolicy}
    import math

    pm = NodePowerModel(cpus=(ComponentPowerModel("cpu", 50, 240),) * 2)
    cluster = Cluster(args.nodes, pm, idle_power_off=True)
    # jobs must fit the cluster: cap sizes at the largest power of two
    # that fits (the RJMS rejects guaranteed-deadlock workloads)
    max_log2 = min(5, int(math.log2(args.nodes)))
    jobs = WorkloadGenerator(
        WorkloadConfig(n_jobs=args.jobs, max_nodes_log2=max_log2),
        seed=args.seed).generate()
    provider = SyntheticProvider(args.zone, seed=args.seed)
    result = RJMS(cluster, jobs, policies[args.policy](),
                  provider=provider).run()
    print(f"policy={args.policy} zone={args.zone} "
          f"nodes={args.nodes} jobs={args.jobs}")
    print(result.summary())


def _cmd_forecast(args) -> None:
    from repro.grid import (
        ARForecaster,
        EnsembleForecaster,
        PersistenceForecaster,
        SeasonalNaiveForecaster,
        SyntheticProvider,
        compare_forecasters,
    )

    provider = SyntheticProvider(args.zone, seed=args.seed)
    table = compare_forecasters(
        provider,
        {
            "persistence": PersistenceForecaster(),
            "seasonal-naive": SeasonalNaiveForecaster(),
            "ar4": ARForecaster(order=4),
            "ensemble": EnsembleForecaster(),
        },
        fit_window_s=10 * units.SECONDS_PER_DAY, horizon_steps=24,
        n_folds=6)
    print(f"24h-ahead forecast skill, zone {args.zone.upper()}:")
    print(f"{'forecaster':>15s} {'MAE':>7s} {'RMSE':>7s} {'MAPE%':>7s}")
    for name, row in sorted(table.items(), key=lambda kv: kv[1]["rmse"]):
        print(f"{name:>15s} {row['mae']:7.1f} {row['rmse']:7.1f} "
              f"{row['mape']:7.1f}")


def _cmd_advise(args) -> None:
    from repro.accounting.advisor import recommend_allocation
    from repro.simulator import ComponentPowerModel, NodePowerModel, SpeedupModel

    pm = NodePowerModel(cpus=(ComponentPowerModel("cpu", 50, 240),) * 2)
    advice = recommend_allocation(
        work_1node_s=args.work_hours * units.SECONDS_PER_HOUR,
        speedup=SpeedupModel(args.parallel_fraction),
        power_model=pm,
        max_nodes=args.max_nodes,
        objective=args.objective,
        deadline_s=(args.deadline_hours * units.SECONDS_PER_HOUR
                    if args.deadline_hours else None),
    )
    print(f"objective: {advice.objective}")
    print(f"recommended allocation: {advice.recommended_nodes} nodes")
    print(f"expected runtime: "
          f"{advice.runtime_s / units.SECONDS_PER_HOUR:.2f} h  "
          f"(parallel efficiency {advice.efficiency:.0%})")
    print(f"expected energy: {advice.energy_kwh:.1f} kWh")


def _cmd_service_stats(args) -> None:
    """Scripted query loop against a CarbonService — the ``repro serve``
    stand-in: a deterministic traffic generator plus the operator's
    metrics view, with optional fault injection."""
    import numpy as np

    from repro.grid import StaticProvider, SyntheticProvider, get_zone
    from repro.service import CarbonService, FlakyProvider

    zone = get_zone(args.zone)
    backend = SyntheticProvider(zone, seed=args.seed)
    if args.failure_rate > 0:
        backend = FlakyProvider(backend, failure_rate=args.failure_rate,
                                seed=args.seed)
    service = CarbonService(
        backend,
        quantize_s=args.quantize_minutes * units.SECONDS_PER_MINUTE,
        fallback=StaticProvider(zone.mean_intensity_g_per_kwh,
                                zone_code=f"{zone.code}-fallback"),
        sleep=lambda _s: None,  # scripted loop: don't stall on backoff
    )

    rng = np.random.default_rng(args.seed)
    span_s = args.span_days * units.SECONDS_PER_DAY
    recent: list = []
    times: list = []
    for _ in range(args.queries):
        if recent and float(rng.random()) < args.repeat_fraction:
            t = recent[int(rng.integers(len(recent)))]
        else:
            t = float(rng.uniform(0.0, span_s))
            recent.append(t)
            if len(recent) > 32:  # polling consumers revisit a small
                recent.pop(0)    # working set of recent timestamps
        times.append(t)

    if args.batch > 0:
        for i in range(0, len(times), args.batch):
            service.batch_intensity(times[i:i + args.batch])
    else:
        for t in times:
            service.intensity_at(t)

    snap = service.snapshot()
    total = snap.get("cache.hits", 0) + snap.get("cache.misses", 0)
    print(f"ran {args.queries} queries over {args.span_days:g} days "
          f"(zone {zone.code}, repeat={args.repeat_fraction:.0%}, "
          f"failure-rate={args.failure_rate:.0%})")
    print(f"cache hit rate: {service.cache.hit_rate:.1%} "
          f"({snap.get('cache.hits', 0):.0f}/{total:.0f})")
    print()
    print(service.render_stats())


def _cmd_service_query(args) -> None:
    from repro.grid import StaticProvider, SyntheticProvider, get_zone
    from repro.service import CarbonService

    zone = get_zone(args.zone)
    service = CarbonService(
        SyntheticProvider(zone, seed=args.seed),
        fallback=StaticProvider(zone.mean_intensity_g_per_kwh))
    t = args.at_hours * units.SECONDS_PER_HOUR
    value = (service.intensity_at(t) if args.signal == "marginal"
             else service.average_intensity_at(t))
    print(f"{zone.code} {args.signal} intensity at "
          f"t={args.at_hours:g}h: {value:.1f} gCO2e/kWh")


def _parse_grid_overrides(pairs):
    """``["p=1,2", "q=a,b"]`` -> ``{"p": [1.0, 2.0], "q": ["a", "b"]}``.

    Values parse as numbers when they look numeric, else stay strings.
    """
    def parse_value(text: str):
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            return text

    overrides = {}
    for pair in pairs:
        name, sep, values = pair.partition("=")
        if not sep or not name or not values:
            raise SystemExit(
                f"bad --set {pair!r}: expected PARAM=V1,V2,...")
        overrides[name] = [parse_value(v) for v in values.split(",")]
    return overrides


def _cmd_sweep(args) -> int:
    from repro import obs
    from repro.analysis.sweep import SweepCellError
    from repro.chaos.cli import build_plan
    from repro.parallel import SWEEPS, run_registered

    if args.list_sweeps:
        print(f"{'name':>16s} {'cells':>6s}  description")
        for name, spec in sorted(SWEEPS.items()):
            print(f"{name:>16s} {spec.cell_count():6d}  "
                  f"{spec.description}")
        return 0
    if args.scenario is None:
        raise SystemExit("sweep: name a registered scenario "
                         "(or use --list)")
    plan = build_plan(args)
    if plan.faults:
        print(plan.describe())
        print()
        obs.reset()
    try:
        result = run_registered(
            args.scenario,
            workers=args.workers,
            strict=not args.no_strict,
            grid_overrides=_parse_grid_overrides(args.overrides),
            journal_path=args.journal,
            resume=args.resume,
            cell_timeout_s=args.cell_timeout,
            retries=args.retries,
            chaos=plan if plan.faults else None)
    except (KeyError, ValueError) as e:
        raise SystemExit(f"sweep: {e.args[0] if e.args else e}")
    except SweepCellError as e:
        raise SystemExit(f"sweep: {e}")

    print(result.render())
    for failure in result.failures:
        print(f"FAILED {failure.describe()}")
    for q in result.quarantined:
        print(f"QUARANTINED {q.describe()}")
    s = result.stats
    print()
    print(f"{s.n_cells} cells in {s.wall_s:.2f} s wall "
          f"({s.mode}, workers={s.workers}, dispatches={s.n_dispatches}): "
          f"{len(result.rows)} rows, {len(result.failures)} failed, "
          f"{len(result.quarantined)} quarantined, "
          f"{s.n_retried} retried")
    if s.cell_times_s:  # a fully resumed run executed nothing
        print(f"cell time total {s.cell_time_total_s:.2f} s -> "
              f"speedup {s.effective_parallelism:.2f}x over one-by-one")
    if s.fallback_reason:
        print(f"serial fallback: {s.fallback_reason}")
    if s.journal_path:
        extra = (f", {s.n_replayed} replayed, {s.n_executed} executed"
                 if s.n_replayed else "")
        print(f"journal: {s.journal_path}{extra}")
    if plan.faults:
        print("fault accounting (obs registry):")
        for line in obs.metrics().render_prometheus(
                prefix="repro").splitlines():
            if ("chaos_" in line or "sweep_cells" in line
                    or "sweep_worker" in line):
                print(f"  {line}")
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import run
    return run(args.paths, fmt=args.format)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "fig1":
        _cmd_fig1()
    elif args.command == "fig2":
        _cmd_fig2(args)
    elif args.command == "table1":
        _cmd_table1()
    elif args.command == "carbon500":
        _cmd_carbon500()
    elif args.command == "audit":
        _cmd_audit(args)
    elif args.command == "simulate":
        _cmd_simulate(args)
    elif args.command == "forecast":
        _cmd_forecast(args)
    elif args.command == "advise":
        _cmd_advise(args)
    elif args.command == "service":
        if args.service_command == "stats":
            _cmd_service_stats(args)
        else:
            _cmd_service_query(args)
    elif args.command == "sweep":
        return _cmd_sweep(args)
    elif args.command == "obs":
        from repro.obs.cli import run as _obs_run
        return _obs_run(args)
    elif args.command == "chaos":
        from repro.chaos.cli import run as _chaos_run
        return _chaos_run(args)
    elif args.command == "lint":
        return _cmd_lint(args)
    else:  # pragma: no cover - argparse enforces choices
        raise SystemExit(f"unknown command {args.command!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
