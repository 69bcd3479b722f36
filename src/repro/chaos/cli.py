"""``repro chaos`` subcommands: plan, run.

Operator entry points into the fault-injection harness:

* ``repro chaos plan`` — build a :class:`~repro.chaos.ChaosPlan` from
  command-line fault specs and print the deterministic schedule (what
  will fire, where, and how much of it lands on a given grid);
* ``repro chaos run SWEEP`` — run a registered sweep under that plan
  with the robustness harness engaged (retries, watchdog, journal),
  then print the result table, the quarantine list, and the injection
  / recovery counters from the :mod:`repro.obs` registry.

The point of the CLI pair: ``plan`` shows you the faults before you
pay for the run, and ``run`` demonstrates — on a real grid — that the
harness absorbs them without losing rows.
"""

from __future__ import annotations

from typing import List

from repro.chaos.plan import ChaosPlan, FaultSpec

__all__ = ["add_chaos_subparsers", "run"]


def _parse_delay_spec(text: str):
    """``"N:SECONDS"`` -> ``(cell_index, delay_s)``."""
    head, sep, tail = text.partition(":")
    try:
        if not sep:
            raise ValueError
        return int(head), float(tail)
    except ValueError:
        raise SystemExit(
            f"chaos: bad --delay-at {text!r}: expected CELL:SECONDS "
            "(e.g. --delay-at 3:0.5)") from None


def build_plan(args) -> ChaosPlan:
    """Assemble the plan described by parsed chaos arguments."""
    faults: List[FaultSpec] = []
    for index in args.raise_at:
        faults.append(FaultSpec.raise_at(index, times=args.times))
    for index in args.kill_at:
        faults.append(FaultSpec.kill_worker_at(index, times=args.times))
    for spec in args.delay_at:
        index, delay_s = _parse_delay_spec(spec)
        faults.append(FaultSpec.delay_at(index, delay_s,
                                         times=args.times))
    if args.flaky_rate > 0:
        faults.append(FaultSpec.flaky_provider(args.flaky_rate))
    if args.node_mtbf is not None:
        faults.append(FaultSpec.node_mtbf(args.node_mtbf))
    try:
        return ChaosPlan(faults=tuple(faults), seed=args.seed)
    except ValueError as e:
        raise SystemExit(f"chaos: {e}") from None


def run_plan(args) -> int:
    """``repro chaos plan``: print the deterministic fault schedule."""
    plan = build_plan(args)
    print(plan.describe(n_cells=args.cells))
    return 0


def run_run(args) -> int:
    """``repro chaos run``: registered sweep under an active plan."""
    from repro import obs
    from repro.analysis.sweep import SweepCellError
    from repro.parallel import run_registered

    plan = build_plan(args)
    print(plan.describe())
    print()
    obs.reset()
    try:
        result = run_registered(
            args.scenario,
            workers=args.workers,
            strict=not args.no_strict,
            journal_path=args.journal,
            resume=args.resume,
            cell_timeout_s=args.cell_timeout,
            retries=args.retries,
            chaos=plan)
    except (KeyError, ValueError) as e:
        raise SystemExit(f"chaos: {e.args[0] if e.args else e}")
    except SweepCellError as e:
        raise SystemExit(f"chaos: {e}")

    print(result.render())
    for failure in result.failures:
        print(f"FAILED {failure.describe()}")
    for q in result.quarantined:
        print(f"QUARANTINED {q.describe()}")
    s = result.stats
    print()
    print(f"{s.n_cells} cells in {s.wall_s:.2f} s wall "
          f"({s.mode}, workers={s.workers}, dispatches={s.n_chunks}): "
          f"{len(result.rows)} rows, {len(result.failures)} failed, "
          f"{len(result.quarantined)} quarantined, "
          f"{s.n_retried} retried, {s.n_replayed} replayed")
    if s.journal_path:
        print(f"journal: {s.journal_path}")
    chaos_lines = [
        line for line in obs.metrics().render_prometheus(
            prefix="repro").splitlines()
        if "chaos_" in line or "sweep_cells" in line
        or "sweep_worker" in line]
    if chaos_lines:
        print("fault accounting (obs registry):")
        for line in chaos_lines:
            print(f"  {line}")
    return 0


def _add_plan_arguments(parser) -> None:
    """The fault-spec flags shared by ``plan`` and ``run``."""
    parser.add_argument("--raise-at", type=int, action="append",
                        default=[], metavar="CELL",
                        help="raise ChaosInjectedError in this cell "
                             "(repeatable)")
    parser.add_argument("--kill-at", type=int, action="append",
                        default=[], metavar="CELL",
                        help="SIGKILL the worker running this cell "
                             "(repeatable; needs --workers > 1)")
    parser.add_argument("--delay-at", action="append", default=[],
                        metavar="CELL:SECONDS",
                        help="sleep before this cell (repeatable; "
                             "feeds the --cell-timeout watchdog)")
    parser.add_argument("--flaky-rate", type=float, default=0.0,
                        help="failure rate for providers wrapped via "
                             "the plan (default: 0)")
    parser.add_argument("--node-mtbf", type=float, default=None,
                        metavar="SECONDS",
                        help="simulator node MTBF for the plan's "
                             "FailureInjector")
    parser.add_argument("--times", type=int, default=1,
                        help="attempts each cell fault fires on "
                             "(default: 1 — first attempt fails, "
                             "retry succeeds)")
    parser.add_argument("--seed", type=int, default=0,
                        help="plan seed (substrate fault streams "
                             "derive from it)")


def add_chaos_subparsers(chaos_parser) -> None:
    """Attach plan/run to the ``repro chaos`` subparser."""
    sub = chaos_parser.add_subparsers(dest="chaos_command", required=True)

    pl = sub.add_parser(
        "plan", help="print a deterministic fault schedule")
    _add_plan_arguments(pl)
    pl.add_argument("--cells", type=int, default=None,
                    help="grid size to report effective fault count "
                         "against")

    rn = sub.add_parser(
        "run", help="run a registered sweep under a chaos plan")
    rn.add_argument("scenario",
                    help="registered sweep name (see `repro sweep "
                         "--list`)")
    _add_plan_arguments(rn)
    rn.add_argument("--workers", type=int, default=2,
                    help="process-pool size (default: 2 — kill faults "
                         "and the watchdog need a pool)")
    rn.add_argument("--retries", type=int, default=1,
                    help="per-cell retry budget (default: 1)")
    rn.add_argument("--cell-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="per-cell watchdog timeout")
    rn.add_argument("--journal", default=None, metavar="FILE",
                    help="JSONL cell-outcome journal path")
    rn.add_argument("--resume", action="store_true",
                    help="replay journaled cells, re-execute the rest")
    rn.add_argument("--no-strict", action="store_true",
                    help="report failing cells instead of aborting")


def run(args) -> int:
    """Dispatch one parsed ``repro chaos`` invocation."""
    if args.chaos_command == "plan":
        return run_plan(args)
    return run_run(args)
