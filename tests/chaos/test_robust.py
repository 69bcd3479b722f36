"""End-to-end tests of the sweep loop's robustness keywords.

The contract under test is DESIGN §5f: any robustness feature —
journal, resume, watchdog, retry, chaos plan — may change *how* a
sweep executes, never *what* it computes.  Every test here compares
against a plain serial run and demands bit-identical rows.
"""

import inspect
import time

import pytest

from repro import obs
from repro.analysis.sweep import SweepCellError
from repro.chaos import ChaosInjectedError, ChaosPlan, FaultSpec
from repro.chaos.journal import JournalError
from repro.parallel import run_sweep

GRID = {"lane": [0, 1, 2, 3, 4, 5], "rep": [0, 1]}


def stable_cell(lane, rep):
    """Pure arithmetic — the ground truth every robust run must match."""
    return {"m": lane * 10.0 + rep, "sq": float(lane * lane)}


def hang_cell(lane, rep, hang_s=0.0):
    """Sleeps forever-ish on lane 2 — watchdog prey."""
    if lane == 2 and hang_s > 0.0:
        time.sleep(hang_s)
    return {"m": lane * 10.0 + rep}


@pytest.fixture
def baseline():
    return run_sweep(stable_cell, GRID, workers=1)


@pytest.fixture(autouse=True)
def fresh_obs():
    obs.reset()
    yield
    obs.reset()


class TestJournalAndResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_journaled_run_matches_plain(self, tmp_path, baseline,
                                         workers):
        r = run_sweep(stable_cell, GRID, workers=workers,
                      journal_path=tmp_path / "j.jsonl")
        assert r.rows == baseline.rows
        assert r.stats.n_executed == 12
        assert r.stats.journal_path == str(tmp_path / "j.jsonl")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_resume_replays_everything(self, tmp_path, baseline,
                                            workers):
        jp = tmp_path / "j.jsonl"
        run_sweep(stable_cell, GRID, workers=workers, journal_path=jp)
        r = run_sweep(stable_cell, GRID, workers=workers, journal_path=jp,
                      resume=True)
        assert r.rows == baseline.rows
        assert r.stats.n_replayed == 12
        assert r.stats.n_executed == 0

    def test_partial_resume_executes_only_the_gap(self, tmp_path,
                                                  baseline):
        """Drop journaled cells, resume, and demand the merged rows
        stay bit-identical — the tentpole's core guarantee."""
        jp = tmp_path / "j.jsonl"
        run_sweep(stable_cell, GRID, workers=1, journal_path=jp)
        # simulate a crash after 5 cells: truncate the journal
        lines = jp.read_text().splitlines(keepends=True)
        jp.write_text("".join(lines[:6]))  # header + 5 cell records
        r = run_sweep(stable_cell, GRID, workers=2, journal_path=jp,
                      resume=True)
        assert r.rows == baseline.rows
        assert r.stats.n_replayed == 5
        assert r.stats.n_executed == 7

    def test_resume_tolerates_torn_tail(self, tmp_path, baseline):
        jp = tmp_path / "j.jsonl"
        run_sweep(stable_cell, GRID, workers=1, journal_path=jp)
        with open(jp, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "cell", "ind')  # crash mid-append
        r = run_sweep(stable_cell, GRID, workers=1, journal_path=jp,
                      resume=True)
        assert r.rows == baseline.rows

    def test_resume_rejects_a_different_grid(self, tmp_path):
        jp = tmp_path / "j.jsonl"
        run_sweep(stable_cell, GRID, workers=1, journal_path=jp)
        with pytest.raises(JournalError, match="different run"):
            run_sweep(stable_cell, {"lane": [0, 1], "rep": [0]},
                      workers=1, journal_path=jp, resume=True)

    def test_failed_cells_are_journaled_but_not_replayed(self,
                                                         tmp_path):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(3, times=99),))
        jp = tmp_path / "j.jsonl"
        r1 = run_sweep(stable_cell, GRID, workers=1, strict=False,
                       journal_path=jp, chaos=plan)
        assert [f.index for f in r1.failures] == [3]
        # the fault is gone on resume: the failed cell re-executes
        r2 = run_sweep(stable_cell, GRID, workers=1, journal_path=jp,
                       resume=True)
        assert not r2.failures
        assert r2.stats.n_replayed == 11
        assert r2.stats.n_executed == 1

    def test_replay_is_seed_faithful(self, tmp_path):
        """Cells that consume derived seeds resume bit-identically:
        derive_seed is keyed on grid position, so the re-executed gap
        gets exactly the seeds the interrupted run would have used."""
        jp = tmp_path / "j.jsonl"
        base = run_sweep(seeded_cell, GRID, workers=1, base_seed=11)
        run_sweep(seeded_cell, GRID, workers=1, base_seed=11,
                  journal_path=jp)
        lines = jp.read_text().splitlines(keepends=True)
        jp.write_text("".join(lines[:4]))
        r = run_sweep(seeded_cell, GRID, workers=1, base_seed=11,
                      journal_path=jp, resume=True)
        assert r.rows == base.rows


def seeded_cell(lane, rep, seed=0):
    return {"m": float((seed % 1000) * 2 + lane * 3 + rep)}


class TestRetries:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_transient_fault_recovered_by_retry(self, baseline,
                                                workers):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(4),))  # times=1
        r = run_sweep(stable_cell, GRID, workers=workers, retries=1,
                      chaos=plan)
        assert r.rows == baseline.rows
        assert r.stats.n_retried == 1
        assert not r.failures and not r.quarantined

    def test_persistent_fault_exhausts_budget_non_strict(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(4, times=99),))
        r = run_sweep(stable_cell, GRID, workers=1, retries=2,
                      strict=False, chaos=plan)
        assert [f.index for f in r.failures] == [4]
        assert isinstance(r.failures[0].error, ChaosInjectedError)
        assert r.stats.n_retried == 2

    def test_persistent_fault_still_raises_in_strict(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(4, times=99),))
        with pytest.raises(SweepCellError):
            run_sweep(stable_cell, GRID, workers=1, retries=1, chaos=plan)

    def test_retry_alone_engages_robust_path(self, baseline):
        r = run_sweep(stable_cell, GRID, workers=2, retries=3)
        assert r.rows == baseline.rows
        assert r.stats.n_retried == 0  # nothing failed, nothing spent


class TestWorkerDeath:
    def test_kill_fault_recovered_by_retry(self, baseline):
        plan = ChaosPlan(faults=(FaultSpec.kill_worker_at(3),))
        r = run_sweep(stable_cell, GRID, workers=2, retries=2, chaos=plan)
        assert r.rows == baseline.rows
        assert not r.quarantined
        assert r.stats.n_retried >= 1  # victim, plus any bystanders

    def test_kill_without_budget_quarantines_victim(self, baseline):
        # strict mode is the default: quarantine must NOT abort
        plan = ChaosPlan(faults=(FaultSpec.kill_worker_at(3,
                                                          times=99),))
        r = run_sweep(stable_cell, GRID, workers=2, retries=0, chaos=plan)
        statuses = {q.index: q.status for q in r.quarantined}
        assert statuses.get(3) == "killed"
        # surviving rows are a (bit-identical) subset of the baseline
        assert all(row in baseline.rows for row in r.rows)
        assert len(r.rows) + len(r.quarantined) == 12

    def test_killed_then_resumed_matches_baseline(self, tmp_path,
                                                  baseline):
        plan = ChaosPlan(faults=(FaultSpec.kill_worker_at(5,
                                                          times=99),))
        jp = tmp_path / "j.jsonl"
        r1 = run_sweep(stable_cell, GRID, workers=2, retries=0,
                       journal_path=jp, chaos=plan)
        assert any(q.status == "killed" for q in r1.quarantined)
        assert len(r1.rows) < 12
        r2 = run_sweep(stable_cell, GRID, workers=2, journal_path=jp,
                       resume=True)  # no chaos: the "node" came back
        assert r2.rows == baseline.rows
        assert r2.stats.n_replayed == len(r1.rows)


class TestWatchdog:
    def test_hung_cell_quarantined_others_complete(self):
        """Acceptance: a cell sleeping past the timeout is retired
        ``timed_out`` while every other cell still lands."""
        r = run_sweep(hang_cell, dict(GRID, hang_s=[30.0]), workers=2,
                      cell_timeout_s=0.5)
        timed_out = [q for q in r.quarantined
                     if q.status == "timed_out"]
        assert sorted(q.params["rep"] for q in timed_out) == [0, 1]
        assert all(q.params["lane"] == 2 for q in timed_out)
        assert r.rows == [
            {"lane": lane, "rep": rep, "hang_s": 30.0,
             "m": lane * 10.0 + rep}
            for lane in [0, 1, 3, 4, 5] for rep in [0, 1]]

    def test_generous_timeout_quarantines_nothing(self):
        r = run_sweep(hang_cell, dict(GRID, hang_s=[0.0]), workers=2,
                      cell_timeout_s=5.0)
        assert not r.quarantined
        assert len(r.rows) == 12


class TestValidation:
    def test_resume_needs_journal(self):
        with pytest.raises(ValueError, match="journal"):
            run_sweep(stable_cell, GRID, workers=1, resume=True)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            run_sweep(stable_cell, GRID, workers=1, retries=-1)

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ValueError, match="cell_timeout_s"):
            run_sweep(stable_cell, GRID, workers=2, cell_timeout_s=0.0)

    def test_watchdog_needs_a_pool(self):
        with pytest.raises(ValueError, match="process pool"):
            run_sweep(stable_cell, GRID, workers=1, cell_timeout_s=1.0)

    def test_kill_faults_need_a_pool(self):
        plan = ChaosPlan(faults=(FaultSpec.kill_worker_at(0),))
        with pytest.raises(ValueError, match="process pool"):
            run_sweep(stable_cell, GRID, workers=1, chaos=plan)

    def test_serial_fallback_with_watchdog_is_an_error(self):
        """An unpicklable scenario cannot silently drop the watchdog."""
        local_cell = lambda lane, rep: {"m": 0.0}  # noqa: E731
        with pytest.raises(ValueError, match="process pool"):
            run_sweep(local_cell, GRID, workers=2, cell_timeout_s=1.0)


class TestObsAccounting:
    def test_injected_and_recovered_faults_counted(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(2),))
        run_sweep(stable_cell, GRID, workers=1, retries=1, chaos=plan)
        reg = obs.metrics()
        injected = reg.counter("chaos.faults_injected_total",
                               labels={"kind": "raise"})
        recovered = reg.counter("chaos.faults_recovered_total",
                                labels={"kind": "raise"})
        assert injected.value == 1
        assert recovered.value == 1
        assert reg.counter("sweep.cells_retried_total").value == 1

    def test_quarantine_counted_by_status(self):
        run_sweep(hang_cell, dict(GRID, hang_s=[30.0]), workers=2,
                  cell_timeout_s=0.5)
        reg = obs.metrics()
        assert reg.counter("sweep.cells_quarantined_total",
                           labels={"status": "timed_out"}).value == 2
        assert reg.counter("sweep.worker_deaths_total").value >= 2

    def test_replay_counted(self, tmp_path):
        jp = tmp_path / "j.jsonl"
        run_sweep(stable_cell, GRID, workers=1, journal_path=jp)
        run_sweep(stable_cell, GRID, workers=1, journal_path=jp,
                  resume=True)
        assert obs.metrics().counter(
            "sweep.journal_replayed_total").value == 12

    def test_injections_visible_in_traces(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(2),))
        with obs.scope() as tracer:
            run_sweep(stable_cell, GRID, workers=1, retries=1, chaos=plan)
            spans = tracer.drain()
        names = [s.name for s in spans]
        assert "chaos.inject" in names
        inject = next(s for s in spans if s.name == "chaos.inject")
        assert inject.attrs["kind"] == "raise"
        assert inject.attrs["cell_index"] == 2

    def test_pool_chaos_run_keeps_merged_timeline(self, baseline):
        """Tracing + chaos + retries still produce one coherent
        timeline (worker spans shipped inside outcomes) and pinned
        rows."""
        plan = ChaosPlan(faults=(FaultSpec.raise_at(1),))
        with obs.scope() as tracer:
            r = run_sweep(stable_cell, GRID, workers=2, retries=1,
                          chaos=plan)
            spans = tracer.drain()
        assert r.rows == baseline.rows
        cell_spans = [s for s in spans if s.name == "sweep.cell"]
        # one span per successful cell (the injected raise fires
        # before the faulted attempt's span opens), one merged lane
        # per worker process
        assert len(cell_spans) == 12
        assert "chaos.inject" in {s.name for s in spans}


class TestResumedStats:
    """``cell_times_s`` covers only the cells this invocation executed,
    so a resumed run's parallelism is not inflated by replayed time."""

    def test_full_resume_reports_no_cell_time(self, tmp_path):
        jp = tmp_path / "j.jsonl"
        run_sweep(stable_cell, GRID, workers=2, journal_path=jp)
        r = run_sweep(stable_cell, GRID, workers=2, journal_path=jp,
                      resume=True)
        assert r.stats.n_executed == 0
        assert r.stats.cell_times_s == []
        assert r.stats.effective_parallelism == 0.0

    def test_partial_resume_times_only_the_gap(self, tmp_path):
        jp = tmp_path / "j.jsonl"
        run_sweep(stable_cell, GRID, workers=1, journal_path=jp)
        lines = jp.read_text().splitlines(keepends=True)
        jp.write_text("".join(lines[:6]))  # header + 5 cell records
        r = run_sweep(stable_cell, GRID, workers=2, journal_path=jp,
                      resume=True)
        assert r.stats.n_executed == 7
        assert len(r.stats.cell_times_s) == r.stats.n_executed


#: the cell every fault targets, and the value every other required
#: builder argument gets (the sleep, for ``delay_at``)
FAULT_CELL, FAULT_VALUE = 1, 0.3
#: every FaultSpec builder, one per fault kind
BUILDERS = sorted(name for name, attr in vars(FaultSpec).items()
                  if isinstance(attr, classmethod))


class TestEveryFaultKindFires:
    """A fault kind the executor never applies is dead code that a
    chaos run reports as injected.  Each kind ``FaultSpec`` accepts must
    visibly change an unretried two-worker sweep."""

    def test_builders_cover_every_kind(self):
        from repro.chaos.plan import CELL_FAULT_KINDS

        kinds = {build(name).kind for name in BUILDERS}
        assert kinds == set(CELL_FAULT_KINDS)

    @pytest.mark.parametrize("name", BUILDERS)
    def test_fault_changes_the_sweep(self, name):
        spec = build(name)
        r = run_sweep(stable_cell, GRID, workers=2, strict=False,
                      chaos=ChaosPlan(faults=(spec,)))
        deaths = obs.metrics().counter("sweep.worker_deaths_total").value
        effects = set()
        if r.failures:
            effects.add("raise")
        if deaths or any(q.status == "killed" for q in r.quarantined):
            effects.add("kill_worker")
        if max(r.stats.cell_times_s) >= FAULT_VALUE:
            effects.add("delay")
        assert spec.kind in effects, (
            f"a {spec.kind} fault left the sweep unchanged "
            f"(effects seen: {sorted(effects)})")


def build(name):
    """Build a fault with ``FaultSpec.<name>``, filling every required
    argument with ``FAULT_CELL`` or ``FAULT_VALUE``."""
    builder = getattr(FaultSpec, name)
    kwargs = {p.name: FAULT_CELL if p.name == "cell_index" else FAULT_VALUE
              for p in inspect.signature(builder).parameters.values()
              if p.default is inspect.Parameter.empty}
    return builder(**kwargs)
