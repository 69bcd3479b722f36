"""Command-line front end: ``python -m repro.lint`` / ``repro lint``.

Exit status: 0 clean, 1 unsuppressed findings, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.engine import lint_paths
from repro.lint.report import render_json, render_text

__all__ = ["add_arguments", "build_parser", "main", "run"]


def add_arguments(parser) -> None:
    """The arguments shared by ``python -m repro.lint`` and
    ``repro lint``."""
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="report format (default: text)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.lint",
        description="dimensional-consistency linter for the repro carbon "
                    "stack (unit suffixes, conversion constants)")
    add_arguments(p)
    return p


def run(paths, fmt: str = "text", stream=None) -> int:
    """Programmatic entry point; returns the process exit code."""
    out = stream if stream is not None else sys.stdout
    try:
        findings = lint_paths(paths)
    except (OSError, SyntaxError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    renderer = render_json if fmt == "json" else render_text
    try:
        print(renderer(findings), file=out)
    except BrokenPipeError:  # report piped into head/less that exited
        sys.stderr.close()
        return 0
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run(args.paths, fmt=args.format)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
