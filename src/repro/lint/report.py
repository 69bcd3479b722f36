"""Finding records and text/JSON rendering for the linter."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List, Sequence

__all__ = ["Finding", "render_json", "render_text", "summary_line"]


@dataclass(frozen=True)
class Finding:
    """One linter diagnostic, anchored to a file position."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


def summary_line(findings: Sequence[Finding]) -> str:
    if not findings:
        return "repro-lint: clean (0 findings)"
    by_rule: dict = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    parts = ", ".join(f"{n} {r}" for r, n in sorted(by_rule.items()))
    noun = "finding" if len(findings) == 1 else "findings"
    return f"repro-lint: {len(findings)} {noun} ({parts})"


def render_text(findings: Sequence[Finding]) -> str:
    lines: List[str] = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule)):
        lines.append(f"{f.location()}: [{f.rule}] {f.message}")
        if f.snippet:
            lines.append(f"    {f.snippet.strip()}")
    lines.append(summary_line(findings))
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    payload = {
        "findings": [
            asdict(f)
            for f in sorted(findings,
                            key=lambda f: (f.path, f.line, f.col, f.rule))
        ],
        "count": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
