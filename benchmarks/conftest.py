"""Shared helpers for the benchmark/experiment harness.

Each ``test_bench_*.py`` file regenerates one of the paper's figures,
tables, or quantitative claims (experiment ids E1-E23 in DESIGN.md §4).
The ``benchmark`` fixture times the core computation; the experiment's
reproduced rows are printed via :func:`report` so that

    pytest benchmarks/ --benchmark-only -s

emits the full paper-vs-measured record (EXPERIMENTS.md embeds it).
Host timings stay out of the printed rows (a bench that wants one
records it in ``benchmark.extra_info``), so two runs' report blocks
can be compared line for line.
"""

from __future__ import annotations


def report(title: str, body: str) -> None:
    """Print one experiment block: a ruled title, then ``body``.

    A plain ``print``: pytest shows it with ``-s``, or with a failing
    test's captured output.
    """
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(body)
