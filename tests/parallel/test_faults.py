"""Failure capture: a broken cell must not take the sweep down with it.

Non-strict mode turns a raising cell into ``(params, exception)`` on
``result.failures`` while every other cell still runs (the pool is not
poisoned).  Strict mode re-raises as ``SweepCellError`` naming the
offending parameter assignment, with the original exception chained.

``TestWorkerDeathRecovery`` covers the harder boundary: a worker
process SIGKILLed mid-cell (a real node loss, not a Python
exception) — every pool sweep must survive the resulting
``BrokenProcessPool``, journal everything that completed, and a
resumed run must reproduce the exact serial rows.
"""

import os
import pickle
import signal

import pytest

from repro.analysis.sweep import CellFailure, SweepCellError
from repro.parallel import run_sweep

GRID = {"x": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]}


def brittle_cell(x):
    """Fails on exactly one cell of GRID."""
    if x == 3.0:
        raise ValueError(f"cannot handle x={x}")
    return {"m": x * 10.0}


def half_broken_cell(x):
    """Fails on half the grid — exercises multi-failure capture."""
    if int(x) % 2 == 1:
        raise RuntimeError(f"odd lane {x}")
    return {"m": x}


class Unpicklable(Exception):
    def __init__(self, msg):
        super().__init__(msg)
        self.handle = lambda: None  # lambdas never pickle


def unpicklable_failure_cell(x):
    if x == 1.0:
        raise Unpicklable("held an open handle")
    return {"m": x}


@pytest.mark.parametrize("workers", [1, 2, 4])
class TestNonStrict:
    def test_failure_reported_as_params_and_exception(self, workers):
        r = run_sweep(brittle_cell, GRID, workers=workers, strict=False)
        assert len(r.failures) == 1
        failure = r.failures[0]
        assert isinstance(failure, CellFailure)
        assert failure.params == {"x": 3.0}
        assert isinstance(failure.error, ValueError)
        assert "x=3.0" in str(failure.error)
        assert failure.index == 3

    def test_pool_not_poisoned_remaining_cells_complete(self, workers):
        r = run_sweep(brittle_cell, GRID, workers=workers, strict=False)
        assert r.column("x") == [0.0, 1.0, 2.0, 4.0, 5.0]
        assert r.column("m") == [0.0, 10.0, 20.0, 40.0, 50.0]

    def test_many_failures_all_captured_in_order(self, workers):
        r = run_sweep(half_broken_cell, GRID, workers=workers,
                      strict=False)
        assert [f.index for f in r.failures] == [1, 3, 5]
        assert [f.params["x"] for f in r.failures] == [1.0, 3.0, 5.0]
        assert r.column("x") == [0.0, 2.0, 4.0]

    def test_failures_identical_serial_vs_parallel(self, workers):
        serial = run_sweep(half_broken_cell, GRID, workers=1,
                           strict=False)
        parallel = run_sweep(half_broken_cell, GRID, workers=workers,
                             strict=False)
        assert parallel.rows == serial.rows
        assert ([(f.index, f.params, type(f.error), str(f.error))
                 for f in parallel.failures]
                == [(f.index, f.params, type(f.error), str(f.error))
                    for f in serial.failures])


@pytest.mark.parametrize(
    "workers,retries",
    [(1, 0), (2, 0), (4, 0), (1, 1), (2, 1), (4, 1)],
    ids=["1", "2", "4", "1-retries1", "2-retries1", "4-retries1"])
class TestStrict:
    def test_reraises_naming_offending_params(self, workers, retries):
        with pytest.raises(SweepCellError, match=r"x=3\.0") as excinfo:
            run_sweep(brittle_cell, GRID, workers=workers, strict=True,
                      retries=retries)
        assert excinfo.value.params == {"x": 3.0}
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_lowest_index_failure_wins(self, workers, retries):
        """Deterministic choice regardless of which cell finishes
        first: the reported cell is the one the serial loop would have
        hit."""
        with pytest.raises(SweepCellError) as excinfo:
            run_sweep(half_broken_cell, GRID, workers=workers,
                      strict=True, retries=retries)
        assert excinfo.value.failure.index == 1


@pytest.mark.parametrize("retries,expected_calls", [
    (0, [0.0, 1.0, 2.0, 3.0]),
    (1, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 3.0]),
])
def test_strict_serial_loop_stops_at_first_final_failure(retries,
                                                         expected_calls):
    """Serially, strict mode runs nothing past the failure it raises: a
    retry goes to the back of the queue, and the loop stops once the
    cell's last attempt has failed."""
    calls = []

    def counting_cell(x):
        calls.append(x)
        return brittle_cell(x)

    with pytest.raises(SweepCellError, match=r"x=3\.0"):
        run_sweep(counting_cell, GRID, workers=1, strict=True,
                  retries=retries)
    assert calls == expected_calls


class TestWorkerBoundary:
    def test_unpicklable_exception_degrades_gracefully(self):
        r = run_sweep(unpicklable_failure_cell, {"x": [0.0, 1.0, 2.0]},
                      workers=2, strict=False)
        assert r.column("x") == [0.0, 2.0]
        assert len(r.failures) == 1
        # the stand-in still names the original type and message
        assert "Unpicklable" in str(r.failures[0].error)
        assert "open handle" in str(r.failures[0].error)
        pickle.dumps(r.failures[0].error)  # and is itself portable

    def test_unpicklable_stand_in_carries_worker_traceback(self):
        """The degraded stand-in keeps the real stack as a
        ``__notes__`` entry, which pickles with the exception — the
        diagnostics are not reduced to a bare repr."""
        r = run_sweep(unpicklable_failure_cell, {"x": [0.0, 1.0, 2.0]},
                      workers=2, strict=False)
        error = r.failures[0].error
        notes = "\n".join(getattr(error, "__notes__", []))
        assert "unpicklable_failure_cell" in notes
        assert "Unpicklable" in notes
        # and the notes survive the pickle round trip themselves
        revived = pickle.loads(pickle.dumps(error))
        assert "unpicklable_failure_cell" in \
            "\n".join(revived.__notes__)

    def test_traceback_text_travels_with_the_failure(self):
        r = run_sweep(brittle_cell, GRID, workers=2, strict=False)
        assert "brittle_cell" in r.failures[0].traceback_text

    def test_base_seed_requires_seed_parameter(self):
        with pytest.raises(ValueError, match="seed"):
            run_sweep(brittle_cell, GRID, workers=1, base_seed=7)


def kill_once_cell(x, sentinel):
    """SIGKILLs its own worker on x=2.0 — once.

    The sentinel file records that the kill already happened, so the
    retried attempt (or the resumed run) computes normally: exactly
    the shape of a node that died and was replaced.
    """
    if x == 2.0 and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as fh:
            fh.write("killed once\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"m": x * 10.0, "half": x / 2.0}


class TestWorkerDeathRecovery:
    """A SIGKILLed worker mid-sweep: recovery, journal, resume parity."""

    def serial_rows(self, sentinel):
        with open(sentinel, "w", encoding="utf-8") as fh:
            fh.write("pre-armed: serial baseline must not die\n")
        rows = run_sweep(kill_once_cell,
                         dict(GRID, sentinel=[str(sentinel)]),
                         workers=1).rows
        os.unlink(sentinel)
        return rows

    def test_retry_recovers_from_sigkill_in_one_run(self, tmp_path):
        sentinel = tmp_path / "killed"
        expected = self.serial_rows(sentinel)
        r = run_sweep(kill_once_cell,
                      dict(GRID, sentinel=[str(sentinel)]),
                      workers=2, retries=2)
        assert r.rows == expected
        assert not r.quarantined
        assert r.stats.n_retried >= 1

    def test_journal_plus_resume_reproduces_serial_rows(self, tmp_path):
        """The satellite's acceptance shape: SIGKILL a pool worker
        mid-sweep, then resume from the journal and get rows
        bit-identical to the uninterrupted serial run."""
        sentinel = tmp_path / "killed"
        expected = self.serial_rows(sentinel)
        journal = tmp_path / "sweep.jsonl"
        grid = dict(GRID, sentinel=[str(sentinel)])

        first = run_sweep(kill_once_cell, grid, workers=2,
                          journal_path=journal)  # retries=0: no mercy
        killed = {q.index for q in first.quarantined
                  if q.status == "killed"}
        assert 2 in killed  # the self-killing cell was charged
        assert len(first.rows) == 6 - len(killed)

        resumed = run_sweep(kill_once_cell, grid, workers=2,
                            journal_path=journal, resume=True)
        assert resumed.rows == expected
        assert resumed.stats.n_replayed == len(first.rows)
        assert resumed.stats.n_executed == len(killed)

    def test_death_without_journal_still_quarantines(self, tmp_path):
        """No journal, no retries — a plain sweep, or one with only the
        watchdog: the grid still completes minus the quarantined cells
        instead of dying with BrokenProcessPool."""
        sentinel = tmp_path / "killed"
        expected = self.serial_rows(sentinel)
        for robustness in ({}, {"cell_timeout_s": 60.0}):
            if sentinel.exists():
                sentinel.unlink()
            r = run_sweep(kill_once_cell,
                          dict(GRID, sentinel=[str(sentinel)]),
                          workers=2, **robustness)
            assert all(row in expected for row in r.rows)
            assert any(q.status == "killed" for q in r.quarantined)
            assert len(r.rows) + len(r.quarantined) == 6
