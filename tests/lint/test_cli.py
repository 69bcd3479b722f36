"""End-to-end tests of the linter CLI: exit codes and formats."""

import io
import json

import pytest

from repro.lint.cli import main, run

BAD = "carbon_g = embodied_kg\n"
GOOD = "carbon_g = kg_to_grams(embodied_kg)\n"


@pytest.fixture
def bad_file(tmp_path):
    p = tmp_path / "bad.py"
    p.write_text(BAD)
    return p


@pytest.fixture
def good_file(tmp_path):
    p = tmp_path / "good.py"
    p.write_text(GOOD)
    return p


class TestExitCodes:
    def test_clean_file_exits_zero(self, good_file):
        out = io.StringIO()
        assert run([str(good_file)], stream=out) == 0
        assert "clean (0 findings)" in out.getvalue()

    def test_findings_exit_one(self, bad_file):
        out = io.StringIO()
        assert run([str(bad_file)], stream=out) == 1
        assert "[unit-assign]" in out.getvalue()

    def test_missing_path_exits_two(self, tmp_path):
        assert run([str(tmp_path / "nope.py")], stream=io.StringIO()) == 2

    def test_syntax_error_exits_two(self, tmp_path):
        p = tmp_path / "broken.py"
        p.write_text("def f(:\n")
        assert run([str(p)], stream=io.StringIO()) == 2

    def test_directory_is_walked(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(BAD)
        out = io.StringIO()
        assert run([str(tmp_path)], stream=out) == 1


class TestJsonFormat:
    def test_json_report_shape(self, bad_file):
        out = io.StringIO()
        run([str(bad_file)], fmt="json", stream=out)
        doc = json.loads(out.getvalue())
        assert doc["count"] == 1
        (f,) = doc["findings"]
        assert f["rule"] == "unit-assign"
        assert f["line"] == 1
        assert set(f) == {"path", "line", "col", "rule", "message",
                          "snippet"}


class TestArgparseMain:
    def test_main_parses_flags(self, good_file, capsys):
        assert main([str(good_file), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 0
