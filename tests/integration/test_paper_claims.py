"""Paper-claims regression suite: the headline numbers, pinned.

Every quantitative claim the reproduction makes about the source paper
(Fig. 1/Fig. 2 in-text values, §2.3 lifecycle factors) is recomputed
here through the *public API* and pinned with explicit tolerances.
The benchmarks print these numbers; this module is the tier-1 gate
that refuses to let a refactor drift them — including refactors of the
sweep machinery itself, which is why the share claims are also routed
through the parallel executor.

Tolerance convention:
* model-calibrated values (intensity ratio, daily sigma, reuse factor)
  are pinned tight — they are deterministic functions of seeds and
  calibration constants, so any drift is a behavior change;
* the Fig. 1 shares are pinned to the paper's quoted precision
  (±1 percentage point), matching the E1 bench.
"""

import pytest

from repro.analysis import zone_ratio, zone_statistics_table
from repro.embodied import (
    HAWK,
    JUWELS_BOOSTER,
    KNOWN_SYSTEMS,
    SUPERMUC_NG,
    memory_storage_share,
    reuse_vs_recycle_factor,
)
from repro.parallel import run_sweep

#: Fig. 1 in-text claim: memory+storage share of embodied carbon.
PAPER_MEMORY_STORAGE_SHARES = {
    "Juwels Booster": 0.435,
    "SuperMUC-NG": 0.596,
    "Hawk": 0.555,
}


class TestFig2IntensityClaims:
    def test_fi_fr_ratio_is_2_1x(self):
        """'Finland averaged 2.1x France' (Fig. 2 in-text)."""
        assert zone_ratio("FI", "FR", seed=0) == pytest.approx(
            2.1, rel=1e-9)

    def test_fi_daily_sigma_47_21(self):
        """'sigma = 47.21 gCO2/kWh for the Finnish daily series'."""
        rows = zone_statistics_table(["FI"], seed=0)
        (fi,) = rows
        assert fi["daily_std"] == pytest.approx(47.21, abs=1e-6)

    def test_january_coverage_backs_the_statistics(self):
        """The claims are monthly statistics — 31 days must back them."""
        rows = zone_statistics_table(["FI", "FR"], seed=0)
        assert all(r["n_days"] == 31 for r in rows)


def memory_storage_cell(system_name):
    """Sweep cell over KNOWN_SYSTEMS — picklable, public-API only."""
    return {"share": memory_storage_share(KNOWN_SYSTEMS[system_name])}


class TestFig1EmbodiedClaims:
    @pytest.mark.parametrize("system,target", [
        (JUWELS_BOOSTER, 0.435),
        (SUPERMUC_NG, 0.596),
        (HAWK, 0.555),
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_memory_storage_share(self, system, target):
        """'memory and storage account for 43.5/59.6/55.5% of embodied
        carbon' — pinned at the paper's quoted precision."""
        assert memory_storage_share(system) == pytest.approx(
            target, abs=0.01)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shares_survive_the_parallel_sweep_layer(self, workers):
        """The same claim, computed as a sweep grid: the executor must
        deliver identical shares at any worker count."""
        result = run_sweep(
            memory_storage_cell,
            {"system_name": sorted(PAPER_MEMORY_STORAGE_SHARES)},
            workers=workers)
        measured = dict(zip(result.column("system_name"),
                            result.column("share")))
        for name, target in PAPER_MEMORY_STORAGE_SHARES.items():
            assert measured[name] == pytest.approx(target, abs=0.01)


class TestClaimsUnderTracing:
    """Observability must never perturb results (DESIGN.md §5e): the
    headline numbers re-run with tracing enabled and must come out
    bit-identical — the tracer reads clocks, never RNG."""

    @pytest.fixture(autouse=True)
    def traced(self):
        from repro import obs
        obs.reset()
        with obs.scope():
            yield
        obs.reset()

    def test_headline_numbers_identical_with_tracing_on(self):
        from repro import obs
        assert obs.enabled()
        assert zone_ratio("FI", "FR", seed=0) == pytest.approx(
            2.1, rel=1e-9)
        (fi,) = zone_statistics_table(["FI"], seed=0)
        assert fi["daily_std"] == pytest.approx(47.21, abs=1e-6)
        for system, target in [(JUWELS_BOOSTER, 0.435),
                               (SUPERMUC_NG, 0.596), (HAWK, 0.555)]:
            assert memory_storage_share(system) == pytest.approx(
                target, abs=0.01)
        assert reuse_vs_recycle_factor("hdd") == pytest.approx(
            275.0, rel=1e-9)

    def test_traced_parallel_sweep_matches_untraced_rows(self):
        from repro import obs
        grid = {"system_name": sorted(PAPER_MEMORY_STORAGE_SHARES)}
        traced = run_sweep(memory_storage_cell, grid, workers=2)
        spans = obs.get_tracer().drain()
        with obs.scope(on=False):
            plain = run_sweep(memory_storage_cell, grid, workers=2)
        assert traced.rows == plain.rows
        # and the traced run actually recorded the cells it computed
        cell_spans = [s for s in spans if s.name == "sweep.cell"]
        assert len(cell_spans) == len(traced.rows)


class TestClaimsUnderChaos:
    """The robustness harness must never perturb results (DESIGN.md
    §5f): the headline sweep re-runs under an *active* chaos plan
    whose faults all fall outside the grid — zero effective faults —
    plus journal and retry budget, and must come out bit-identical."""

    def test_shares_pinned_under_inert_chaos_plan(self, tmp_path):
        from repro.chaos import ChaosPlan, FaultSpec

        grid = {"system_name": sorted(PAPER_MEMORY_STORAGE_SHARES)}
        plan = ChaosPlan(faults=(FaultSpec.raise_at(97),
                                 FaultSpec.delay_at(98, 5.0),
                                 FaultSpec.kill_worker_at(99)))
        assert plan.effective_fault_count(len(grid["system_name"])) == 0
        plain = run_sweep(memory_storage_cell, grid, workers=2)
        chaotic = run_sweep(memory_storage_cell, grid, workers=2,
                            retries=1, chaos=plan,
                            journal_path=tmp_path / "claims.jsonl")
        assert chaotic.rows == plain.rows
        assert not chaotic.failures and not chaotic.quarantined
        measured = dict(zip(chaotic.column("system_name"),
                            chaotic.column("share")))
        for name, target in PAPER_MEMORY_STORAGE_SHARES.items():
            assert measured[name] == pytest.approx(target, abs=0.01)

    def test_resumed_claims_match_uninterrupted(self, tmp_path):
        """Journal-resume over the claim grid: replayed rows carry
        the same pinned numbers the fresh computation produced."""
        grid = {"system_name": sorted(PAPER_MEMORY_STORAGE_SHARES)}
        journal = tmp_path / "claims.jsonl"
        plain = run_sweep(memory_storage_cell, grid, workers=1)
        run_sweep(memory_storage_cell, grid, workers=1,
                  journal_path=journal)
        resumed = run_sweep(memory_storage_cell, grid, workers=1,
                            journal_path=journal, resume=True)
        assert resumed.stats.n_replayed == len(plain.rows)
        assert resumed.rows == plain.rows


class TestLifecycleClaims:
    def test_hdd_reuse_275x_recycling(self):
        """'reusing HDDs leads to 275x more carbon emissions reductions
        than recycling' (§2.3)."""
        assert reuse_vs_recycle_factor("hdd") == pytest.approx(
            275.0, rel=1e-9)

    def test_reuse_beats_recycling_for_every_component_class(self):
        """The qualitative §2.3 claim behind the 275x headline."""
        from repro.embodied.lifecycle import REUSE_EFFECTIVENESS
        factors = {k: reuse_vs_recycle_factor(k)
                   for k in REUSE_EFFECTIVENESS}
        assert all(f > 1.0 for f in factors.values())
        # and HDD is the extreme case the paper chose to quote
        assert max(factors, key=factors.get) == "hdd"
