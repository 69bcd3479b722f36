"""Tests for the JSONL cell-outcome journal (repro.chaos.journal)."""

import json

import pytest

from repro.chaos.journal import (
    JournalError,
    SweepJournal,
    grid_hash,
    make_header,
    params_hash,
)


def scenario_stub(x):  # the header fingerprints module.qualname
    return {"m": x}


def header_for(n_cells=4, base_seed=7):
    cells = [{"x": float(i)} for i in range(n_cells)]
    return make_header(n_cells, grid_hash(["x"], cells),
                       scenario_stub, base_seed)


class TestHashes:
    def test_params_hash_is_order_independent(self):
        assert (params_hash({"a": 1, "b": 2.5})
                == params_hash({"b": 2.5, "a": 1}))

    def test_params_hash_separates_values(self):
        assert params_hash({"a": 1}) != params_hash({"a": 2})

    def test_grid_hash_covers_names_and_cells(self):
        cells = [{"x": 1.0}, {"x": 2.0}]
        assert grid_hash(["x"], cells) != grid_hash(["y"], cells)
        assert (grid_hash(["x"], cells)
                != grid_hash(["x"], list(reversed(cells))))


class TestForRun:
    def test_fresh_run_writes_header_first(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, replay = SweepJournal.for_run(path, header_for())
        journal.close()
        assert replay == {}
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "header"
        assert first["scenario"].endswith("scenario_stub")

    def test_non_resume_truncates_existing_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j1, _ = SweepJournal.for_run(path, header_for())
        j1.record_cell(0, {"x": 0.0}, "ok", metrics={"m": 0.0})
        j1.close()
        _, replay = SweepJournal.for_run(path, header_for())
        assert replay == {}
        assert len(path.read_text().splitlines()) == 1  # header only

    def test_resume_replays_only_ok_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j1, _ = SweepJournal.for_run(path, header_for())
        j1.record_cell(0, {"x": 0.0}, "ok", metrics={"m": 0.25},
                       elapsed_s=0.01)
        j1.record_cell(1, {"x": 1.0}, "failed", error="ValueError: no")
        j1.record_quarantine(2, {"x": 2.0}, "timed_out", attempts=1)
        j1.close()
        _, replay = SweepJournal.for_run(path, header_for(), resume=True)
        assert set(replay) == {0}
        assert replay[0]["metrics"] == {"m": 0.25}

    def test_resume_rejects_fingerprint_mismatch(self, tmp_path):
        path = tmp_path / "j.jsonl"
        SweepJournal.for_run(path, header_for(n_cells=4))[0].close()
        with pytest.raises(JournalError, match="n_cells"):
            SweepJournal.for_run(path, header_for(n_cells=8),
                                 resume=True)

    def test_resume_rejects_different_base_seed(self, tmp_path):
        """Replaying cells computed under different seeds would break
        the bit-identical-merge guarantee silently — must refuse."""
        path = tmp_path / "j.jsonl"
        SweepJournal.for_run(path, header_for(base_seed=7))[0].close()
        with pytest.raises(JournalError, match="base_seed"):
            SweepJournal.for_run(path, header_for(base_seed=8),
                                 resume=True)

    def test_resume_on_missing_file_starts_fresh(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal, replay = SweepJournal.for_run(path, header_for(),
                                               resume=True)
        journal.close()
        assert replay == {}
        assert path.exists()


class TestRead:
    def test_torn_final_line_is_tolerated(self, tmp_path):
        """A crash mid-append leaves a half-written last line; that
        cell just re-executes, it must not poison the journal."""
        path = tmp_path / "j.jsonl"
        j, _ = SweepJournal.for_run(path, header_for())
        j.record_cell(0, {"x": 0.0}, "ok", metrics={"m": 1.0})
        j.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "cell", "index": 1, "met')  # torn
        header, records = SweepJournal.read(path)
        assert header["kind"] == "header"
        assert [r["index"] for r in records] == [0]

    def test_corrupt_interior_line_is_an_error(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j, _ = SweepJournal.for_run(path, header_for())
        j.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
            fh.write(json.dumps({"kind": "cell", "index": 0,
                                 "status": "ok"}) + "\n")
        with pytest.raises(JournalError, match="corrupt"):
            SweepJournal.read(path)

    def test_missing_header_is_an_error(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"kind": "cell", "index": 0}) + "\n")
        with pytest.raises(JournalError, match="header"):
            SweepJournal.read(path)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
            SweepJournal.read(path)


class TestRecords:
    def test_metrics_floats_round_trip_exactly(self, tmp_path):
        """JSON floats serialize via repr, so replayed rows can be
        bit-identical to freshly-computed ones."""
        path = tmp_path / "j.jsonl"
        value = 0.1 + 0.2  # a float with no short decimal form
        j, _ = SweepJournal.for_run(path, header_for())
        j.record_cell(0, {"x": 0.0}, "ok", metrics={"m": value})
        j.close()
        _, records = SweepJournal.read(path)
        assert records[0]["metrics"]["m"] == value

    def test_failed_record_keeps_error_and_traceback(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j, _ = SweepJournal.for_run(path, header_for())
        j.record_cell(1, {"x": 1.0}, "failed", attempt=2,
                      error="ValueError: no",
                      traceback_text="Traceback ...")
        j.close()
        _, (rec,) = SweepJournal.read(path)
        assert rec["status"] == "failed"
        assert rec["attempt"] == 2
        assert rec["error"] == "ValueError: no"
        assert rec["traceback"] == "Traceback ..."

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal.for_run(path, header_for())[0] as j:
            j.record_cell(0, {"x": 0.0}, "ok", metrics={})
        assert j._fh is None
