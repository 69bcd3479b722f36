"""Meta-test: the linter, self-applied, finds nothing in ``src/repro``
or in ``benchmarks/``.

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
