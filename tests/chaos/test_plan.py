"""Tests for ChaosPlan / FaultSpec (repro.chaos.plan)."""

import pickle

import pytest

from repro.chaos import ChaosInjectedError, ChaosPlan, FaultSpec


class TestFaultSpecValidation:
    def test_cell_faults_need_a_cell_index(self):
        with pytest.raises(ValueError, match="cell_index"):
            FaultSpec(kind="raise")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor", cell_index=0)

    def test_times_must_be_positive(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec.raise_at(0, times=0)

    def test_delay_must_be_non_negative(self):
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec.delay_at(0, -1.0)

    def test_describe_names_every_kind(self):
        specs = [FaultSpec.raise_at(1), FaultSpec.kill_worker_at(2),
                 FaultSpec.delay_at(3, 0.5)]
        text = " | ".join(s.describe() for s in specs)
        for needle in ("ChaosInjectedError", "SIGKILL", "delay"):
            assert needle in text


class TestCellFaults:
    def test_fault_fires_on_its_cell_only(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(3),))
        assert plan.cell_faults(3) and not plan.cell_faults(2)

    def test_times_bounds_the_attempts(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(3, times=2),))
        assert plan.cell_faults(3, attempt=1)
        assert plan.cell_faults(3, attempt=2)
        assert not plan.cell_faults(3, attempt=3)

    def test_apply_raise_throws_injected_error(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(1),))
        with pytest.raises(ChaosInjectedError, match="cell #1"):
            plan.apply_in_worker(1)
        plan.apply_in_worker(0)  # other cells untouched

    def test_apply_delay_sleeps_before_surviving(self):
        plan = ChaosPlan(faults=(FaultSpec.delay_at(0, 0.0),))
        plan.apply_in_worker(0)  # zero delay: returns immediately

    def test_has_kill_faults(self):
        assert ChaosPlan(
            faults=(FaultSpec.kill_worker_at(0),)).has_kill_faults
        assert not ChaosPlan(
            faults=(FaultSpec.raise_at(0),)).has_kill_faults

    def test_effective_fault_count_respects_grid_size(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(2),
                                 FaultSpec.raise_at(99)))
        assert plan.effective_fault_count(10) == 1
        assert plan.effective_fault_count(100) == 2

    def test_plan_pickles_by_value(self):
        """Plans cross the pool's process boundary inside submits."""
        plan = ChaosPlan(faults=(FaultSpec.raise_at(1),
                                 FaultSpec.delay_at(2, 0.5)))
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_describe_reports_schedule(self):
        plan = ChaosPlan(faults=(FaultSpec.raise_at(2),))
        text = plan.describe(n_cells=8)
        assert "cell #2" in text
        assert "8-cell grid" in text
        assert "<empty" in ChaosPlan().describe()

