"""``repro chaos plan`` and the fault flags ``repro sweep`` shares.

``repro chaos plan`` builds a :class:`~repro.chaos.ChaosPlan` from
command-line fault specs and prints the deterministic schedule (what
will fire, where, and how much of it lands on a given grid), so the
faults can be read before paying for a run.  The same flags on
``repro sweep NAME`` run a named sweep under that plan and print the
injection / recovery counters from the :mod:`repro.obs` registry.
"""

from __future__ import annotations

from typing import List

from repro.chaos.plan import ChaosPlan, FaultSpec

__all__ = ["add_chaos_subparsers", "build_plan", "run"]


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
    """Assemble the plan described by parsed fault flags."""
    faults: List[FaultSpec] = []
    try:
        for index in args.raise_at:
            faults.append(FaultSpec.raise_at(index, times=args.times))
        for index in args.kill_at:
            faults.append(FaultSpec.kill_worker_at(index, times=args.times))
        for spec in args.delay_at:
            index, delay_s = _parse_delay_spec(spec)
            faults.append(FaultSpec.delay_at(index, delay_s,
                                             times=args.times))
    except ValueError as e:  # a negative cell, times or delay
        raise SystemExit(f"chaos: {e}") from None
    return ChaosPlan(faults=tuple(faults))


def _add_plan_arguments(parser) -> None:
    """The fault-spec flags shared by ``chaos plan`` and ``sweep``."""
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
    parser.add_argument("--times", type=int, default=1,
                        help="attempts each cell fault fires on "
                             "(default: 1 — first attempt fails, "
                             "retry succeeds)")


def add_chaos_subparsers(chaos_parser) -> None:
    """Attach ``plan`` to the ``repro chaos`` subparser."""
    sub = chaos_parser.add_subparsers(dest="chaos_command", required=True)
    pl = sub.add_parser(
        "plan", help="print a deterministic fault schedule")
    _add_plan_arguments(pl)
    pl.add_argument("--cells", type=int, default=None,
                    help="grid size to report effective fault count "
                         "against")


def run(args) -> int:
    """``repro chaos plan``: print the deterministic fault schedule."""
    print(build_plan(args).describe(n_cells=args.cells))
    return 0
