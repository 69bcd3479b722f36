"""Tests for accounting CSV/JSON export."""

import csv
import io
import json

import pytest

from repro.accounting import (
    CoreHourLedger,
    JobCarbonReport,
    ledger_to_csv,
    reports_to_csv,
    reports_to_json,
)
from repro.accounting.export import LEDGER_COLUMNS, REPORT_COLUMNS


def sample_report(job_id=1):
    return JobCarbonReport(
        job_id=job_id, user="alice", project="climate", n_nodes=8,
        runtime_s=7200.0, energy_kwh=33.1, carbon_kg=9.93,
        mean_intensity_g_per_kwh=300.0, green_fraction=0.25,
        overallocation_waste_kwh=4.1,
        analogy="~= driving a car for 83 km")


class TestReportsCSV:
    def test_header_and_rows(self):
        buf = io.StringIO()
        reports_to_csv([sample_report(1), sample_report(2)], buf)
        buf.seek(0)
        rows = list(csv.reader(buf))
        assert rows[0] == REPORT_COLUMNS
        assert len(rows) == 3
        assert rows[1][0] == "1"
        assert float(rows[1][6]) == pytest.approx(9.93)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "reports.csv"
        reports_to_csv([sample_report()], path)
        text = path.read_text()
        assert "alice" in text and "climate" in text


class TestReportsJSON:
    def test_valid_json_with_analogy(self):
        data = json.loads(reports_to_json([sample_report()]))
        assert len(data) == 1
        assert data[0]["user"] == "alice"
        assert data[0]["carbon_kg"] == pytest.approx(9.93)
        assert "driving" in data[0]["analogy"]

    def test_empty(self):
        assert json.loads(reports_to_json([])) == []


class TestLedgerCSV:
    def test_records_exported(self):
        ledger = CoreHourLedger()
        ledger.open_project("p", 1000.0)
        ledger.charge_job(1, "p", 100.0, 80.0, green_fraction=0.4)
        ledger.charge_job(2, "p", 50.0, 50.0)
        buf = io.StringIO()
        ledger_to_csv(ledger, buf)
        buf.seek(0)
        rows = list(csv.reader(buf))
        assert rows[0] == LEDGER_COLUMNS
        assert len(rows) == 3
        assert float(rows[1][4]) == pytest.approx(20.0)  # discount
        assert float(rows[2][4]) == pytest.approx(0.0)
