"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.nodes == 32
        assert args.policy == "carbon"

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "random"])


class TestCommands:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Juwels Booster" in out
        assert "43.5%" in out

    def test_fig2_subset(self, capsys):
        assert main(["fig2", "--zones", "FI,FR"]) == 0
        out = capsys.readouterr().out
        assert "47.21" in out
        assert "PL" not in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "ExaMUC" in capsys.readouterr().out

    def test_carbon500(self, capsys):
        assert main(["carbon500"]) == 0
        assert "Frontier" in capsys.readouterr().out

    def test_audit(self, capsys):
        assert main(["audit", "Hawk", "--intensity", "420"]) == 0
        out = capsys.readouterr().out
        assert "Hawk" in out and "embodied share" in out

    def test_audit_unknown_system(self):
        with pytest.raises(SystemExit, match="unknown system"):
            main(["audit", "Deep Thought"])

    def test_advise(self, capsys):
        assert main(["advise", "--work-hours", "100",
                     "--objective", "deadline",
                     "--deadline-hours", "10",
                     "--parallel-fraction", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "10 nodes" in out

    def test_simulate_small(self, capsys):
        assert main(["simulate", "--jobs", "10", "--nodes", "8",
                     "--zone", "FR", "--policy", "easy"]) == 0
        out = capsys.readouterr().out
        assert "jobs completed: 10/10" in out

    def test_forecast(self, capsys):
        assert main(["forecast", "FR"]) == 0
        out = capsys.readouterr().out
        assert "seasonal-naive" in out and "RMSE" in out


class TestSweepRobustnessFlags:
    def test_defaults_leave_the_fast_path_alone(self):
        args = build_parser().parse_args(["sweep", "footprint"])
        assert args.journal is None
        assert args.resume is False
        assert args.cell_timeout is None
        assert args.retries == 0

    def test_flags_parse(self, tmp_path):
        args = build_parser().parse_args(
            ["sweep", "footprint", "--journal",
             str(tmp_path / "j.jsonl"), "--resume",
             "--cell-timeout", "30", "--retries", "2"])
        assert args.journal.endswith("j.jsonl")
        assert args.resume is True
        assert args.cell_timeout == 30.0
        assert args.retries == 2

    def test_journal_then_resume_replays(self, capsys, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        assert main(["sweep", "backfill-delay", "--journal",
                     journal]) == 0
        out = capsys.readouterr().out
        assert f"journal: {journal}" in out
        assert main(["sweep", "backfill-delay", "--journal", journal,
                     "--resume"]) == 0
        out = capsys.readouterr().out
        assert "4 replayed, 0 executed" in out


class TestSweepFaultFlags:
    def test_run_recovers_injected_raise(self, capsys, tmp_path):
        assert main(["sweep", "backfill-delay",
                     "--raise-at", "1", "--retries", "1",
                     "--workers", "2", "--journal",
                     str(tmp_path / "j.jsonl")]) == 0
        out = capsys.readouterr().out
        # the plan is printed first; all rows are delivered despite the
        # fault, and the obs registry shows the injection and recovery
        assert out.startswith("chaos plan (1 fault spec(s))")
        assert "1 retried" in out
        assert "0 failed, 0 quarantined" in out
        assert 'repro_chaos_faults_injected_total{kind="raise"} 1' in out
        assert 'repro_chaos_faults_recovered_total{kind="raise"} 1' in out

    def test_run_unknown_scenario(self):
        with pytest.raises(SystemExit, match="unknown sweep"):
            main(["sweep", "no-such-sweep", "--raise-at", "1"])

    def test_no_fault_flag_prints_no_plan(self, capsys):
        assert main(["sweep", "footprint"]) == 0
        out = capsys.readouterr().out
        assert "chaos plan" not in out
        assert "fault accounting" not in out

    def test_kill_fault_needs_a_pool(self):
        with pytest.raises(SystemExit, match="need a process pool"):
            main(["sweep", "spin", "--kill-at", "3", "--workers", "1"])


class TestChaosCommand:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos"])

    def test_plan_prints_schedule_and_effective_count(self, capsys):
        assert main(["chaos", "plan", "--raise-at", "2",
                     "--delay-at", "3:0.5", "--cells", "15"]) == 0
        out = capsys.readouterr().out
        assert "raise ChaosInjectedError at cell #2" in out
        assert "delay cell #3 by 0.5 s" in out
        assert "effective on a 15-cell grid: 2 cell-level fault(s)" in out

    def test_plan_rejects_bad_delay_spec(self):
        with pytest.raises(SystemExit, match="CELL:SECONDS"):
            main(["chaos", "plan", "--delay-at", "oops"])

    @pytest.mark.parametrize("flags", [["--raise-at", "-1"],
                                       ["--kill-at", "0", "--times", "0"],
                                       ["--delay-at", "2:-1"]])
    def test_plan_rejects_out_of_range_faults(self, flags):
        with pytest.raises(SystemExit, match="chaos: "):
            main(["chaos", "plan", *flags])

    def test_run_is_not_a_subcommand(self, capsys):
        """Sweeps run under faults through ``repro sweep``'s fault
        flags; ``chaos`` only plans."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["chaos", "run", "footprint"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestServiceCommand:
    def test_service_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["service"])

    def test_stats_defaults(self):
        args = build_parser().parse_args(["service", "stats"])
        assert args.service_command == "stats"
        assert args.zone == "DE"
        assert args.queries == 2000

    def test_stats_runs_and_prints_metrics(self, capsys):
        assert main(["service", "stats", "--queries", "200",
                     "--zone", "FR"]) == 0
        out = capsys.readouterr().out
        assert "cache hit rate" in out
        assert "cache.hits" in out and "backend.calls" in out

    def test_stats_with_failure_injection(self, capsys):
        assert main(["service", "stats", "--queries", "200",
                     "--failure-rate", "0.2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        # a 20%-flaky backend leaves visible scars in the counters,
        # but the loop itself never fails
        assert "cache hit rate" in out

    def test_stats_batched(self, capsys):
        assert main(["service", "stats", "--queries", "300",
                     "--batch", "50"]) == 0
        out = capsys.readouterr().out
        assert "coalesce.fetches" in out

    def test_query(self, capsys):
        assert main(["service", "query", "DE", "--at-hours", "12"]) == 0
        out = capsys.readouterr().out
        assert "gCO2e/kWh" in out

    def test_query_average_signal(self, capsys):
        assert main(["service", "query", "DE", "--signal", "average"]) == 0
        assert "gCO2e/kWh" in capsys.readouterr().out
