"""Meta-test: the linter, self-applied, finds nothing in ``src/repro``
or in ``benchmarks/``, and no module there or in ``examples/`` imports a
name it never reads.

This is the CI gate the issue asks for — any new unit-mixing bug,
unsuffixed quantity field, or reintroduced magic constant fails the
suite until it is fixed or explicitly suppressed with a
``# repro-lint: ignore[rule]`` comment.
"""

import ast
from pathlib import Path

from repro.lint import lint_paths, render_text

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
BENCHMARKS = ROOT / "benchmarks"
EXAMPLES = ROOT / "examples"


def test_source_tree_exists():
    assert SRC.is_dir(), f"expected package source at {SRC}"


def test_repo_has_zero_unsuppressed_findings():
    findings = lint_paths([SRC])
    assert not findings, (
        "repro.lint found unit-consistency problems in src/repro:\n"
        + render_text(findings))


def test_benchmarks_have_zero_unsuppressed_findings():
    """The benches print the paper-vs-measured record, so their unit
    conversions go through ``repro.units`` like the library's."""
    assert len(list(BENCHMARKS.glob("test_bench_*.py"))) > 20
    findings = lint_paths([BENCHMARKS])
    assert not findings, (
        "repro.lint found unit-consistency problems in benchmarks/:\n"
        + render_text(findings))


def test_linter_actually_scanned_the_tree():
    """Guard against a silently-empty run (e.g. wrong path, skip-all)."""
    py_files = list(SRC.rglob("*.py"))
    assert len(py_files) > 50, "suspiciously few files scanned"


def unused_imports(source, filename="<string>"):
    """``(line, name)`` of each imported name the module never reads.

    A name counts as read when it appears as a name anywhere, is listed
    in ``__all__``, or is named inside a string annotation (a
    ``TYPE_CHECKING`` import is read only there)."""
    tree = ast.parse(source, filename)
    bound, used, quoted = {}, set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.partition(".")[0],
                                 node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            quoted.append(node.value)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            quoted.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            quoted.append(node.returns)
    for expr in quoted:
        for const in ast.walk(expr):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                used.update(n.id for n in ast.walk(
                    ast.parse(const.value, mode="eval"))
                    if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_unused_imports():
    """Every non-package module of the library, the benches and the
    examples reads each name it imports."""
    paths = [p for root in (SRC, BENCHMARKS, EXAMPLES)
             for p in sorted(root.rglob("*.py")) if p.name != "__init__.py"]
    assert len(paths) > 100
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in paths
                 for line, name in unused_imports(path.read_text(), str(path))]
    assert not offenders, "imported but never read:\n" + "\n".join(offenders)


def test_unused_import_scan_reads_every_use():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING, Dict, List\n"
        "if TYPE_CHECKING:\n"
        "    from x import Later\n"
        "from y import Exported, Unread\n"
        "__all__ = ['Exported']\n"
        "def f(a: 'Later', b: Dict) -> None:\n"
        "    return os.path.join(np.pi)\n")
    assert unused_imports(source) == [(4, "List"), (7, "Unread")]


def test_no_deprecation_shims():
    """No module imports the removed ``repro._compat`` helpers or emits
    a ``DeprecationWarning``: renames move every caller instead."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                names = [mod] + [f"{mod}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if any(n == "DeprecationWarning" or n == "repro._compat"
                   or n.startswith("repro._compat.") for n in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, "deprecation shims in src/repro: " + ", ".join(
        offenders)


class TestServicePackageCovered:
    """The serving layer is part of the carbon stack and must stay
    under the same dimensional-consistency gate — its dataclasses carry
    latencies, TTLs, cooldowns, and gCO2/kWh values."""

    def test_service_package_is_in_the_scanned_tree(self):
        service = SRC / "service"
        assert service.is_dir()
        modules = {p.name for p in service.glob("*.py")}
        assert {"core.py", "cache.py", "retry.py",
                "faults.py", "errors.py"} <= modules

    def test_service_package_is_clean(self):
        findings = lint_paths([SRC / "service"])
        assert not findings, (
            "repro.lint found problems in src/repro/service:\n"
            + render_text(findings))


class TestObsPackageCovered:
    """The observability layer measures the carbon stack — its spans
    carry wall-clock seconds and durations, its histograms latency
    bounds, its exporters microsecond conversions.  It stays under the
    same dimensional-consistency gate as the code it observes."""

    def test_obs_package_is_in_the_scanned_tree(self):
        obs = SRC / "obs"
        assert obs.is_dir()
        modules = {p.name for p in obs.glob("*.py")}
        assert {"trace.py", "registry.py", "export.py",
                "cli.py", "__init__.py"} <= modules

    def test_obs_package_is_clean(self):
        findings = lint_paths([SRC / "obs"])
        assert not findings, (
            "repro.lint found problems in src/repro/obs:\n"
            + render_text(findings))


class TestChaosPackageCovered:
    """The robustness harness carries cell timings, watchdog timeouts,
    and journaled metrics in carbon units — it stays under the same
    dimensional-consistency gate as the sweeps it protects."""

    def test_chaos_package_is_in_the_scanned_tree(self):
        chaos = SRC / "chaos"
        assert chaos.is_dir()
        modules = {p.name for p in chaos.glob("*.py")}
        assert {"journal.py", "plan.py", "cli.py",
                "__init__.py"} <= modules

    def test_chaos_package_is_clean(self):
        findings = lint_paths([SRC / "chaos"])
        assert not findings, (
            "repro.lint found problems in src/repro/chaos:\n"
            + render_text(findings))


class TestParallelPackageCovered:
    """The sweep executor carries wall-clock seconds, per-cell times,
    and scenario metrics in carbon units — it stays under the same
    dimensional-consistency gate as the rest of the carbon stack."""

    def test_parallel_package_is_in_the_scanned_tree(self):
        parallel = SRC / "parallel"
        assert parallel.is_dir()
        modules = {p.name for p in parallel.glob("*.py")}
        assert {"executor.py", "grid.py", "registry.py",
                "scenarios.py", "seeds.py"} <= modules

    def test_parallel_package_is_clean(self):
        findings = lint_paths([SRC / "parallel"])
        assert not findings, (
            "repro.lint found problems in src/repro/parallel:\n"
            + render_text(findings))
