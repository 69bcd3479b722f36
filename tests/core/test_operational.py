"""Tests for PowerTrace and the §3.1 operational carbon integral.

The simulator computes ∫ CI·P dt in one place: the RJMS accrual charges
each piecewise-constant power step with the provider's exact intensity
integral over it.  :class:`TestOperationalCarbon` drives that path with
closed-form power profiles (nodes that draw 0 W idle and a fixed
wattage busy) and closed-form intensity traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.core import PowerTrace
from repro.grid import CarbonIntensityTrace, TraceProvider
from repro.scheduler import RJMS, FCFSPolicy
from repro.simulator import Cluster, ComponentPowerModel, Job, NodePowerModel

HOUR = 3600.0


def flat_node(watts):
    """A node that draws 0 W idle and ``watts`` at full utilization."""
    return NodePowerModel(cpus=(ComponentPowerModel("cpu", 0.0, watts),),
                          dram=ComponentPowerModel("dram", 0.0, 0.0),
                          base_watts=0.0)


def run_loads(ci, loads, n_nodes=1, watts=1000.0, tick_seconds=900.0,
              until=None):
    """Run ``(submit_s, nodes, hours)`` full-utilization jobs on
    ``watts`` nodes under the intensity trace ``ci``."""
    jobs = [Job(job_id=i + 1, submit_time=submit, nodes_requested=nodes,
                runtime_estimate=hours * HOUR, work_seconds=hours * HOUR,
                utilization=1.0)
            for i, (submit, nodes, hours) in enumerate(loads)]
    rjms = RJMS(Cluster(n_nodes, flat_node(watts)), jobs, FCFSPolicy(),
                provider=TraceProvider(ci), tick_seconds=tick_seconds)
    return rjms.run(until)


def carbon_g(result):
    return result.total_carbon_kg * units.GRAMS_PER_KG


class TestPowerTrace:
    def test_basic(self):
        p = PowerTrace(np.array([1000.0, 2000.0]), HOUR)
        assert len(p) == 2
        assert p.energy_kwh() == pytest.approx(3.0)
        assert p.mean_power() == 1500.0
        assert p.peak_power() == 2000.0

    def test_immutable(self):
        p = PowerTrace(np.array([1.0]), HOUR)
        with pytest.raises(ValueError):
            p.values[0] = 5.0

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            PowerTrace(np.array([-1.0]), HOUR)

    def test_rejects_empty_and_nan(self):
        with pytest.raises(ValueError):
            PowerTrace(np.array([]), HOUR)
        with pytest.raises(ValueError):
            PowerTrace(np.array([np.nan]), HOUR)

    def test_constant(self):
        p = PowerTrace.constant(500.0, 2 * HOUR)
        assert p.energy_kwh() == pytest.approx(1.0)

    def test_times(self):
        p = PowerTrace(np.array([1.0, 2.0]), HOUR, start_time=10.0)
        np.testing.assert_allclose(p.times, [10.0, 10.0 + HOUR])


class TestOperationalCarbon:
    def test_constant_times_constant(self):
        """1 kW for 2 h at 300 g/kWh = 600 g."""
        ci = CarbonIntensityTrace.constant(300.0, 2 * HOUR)
        result = run_loads(ci, [(0.0, 1, 2)])
        assert carbon_g(result) == pytest.approx(600.0)

    def test_paper_definition_integral(self):
        """§3.1: operational carbon is the time integral of CI x P."""
        ci = CarbonIntensityTrace(np.array([100.0, 400.0]), HOUR)
        # 1 kW in hour 1, 2 kW in hour 2: 1 kWh * 100 g + 2 kWh * 400 g
        result = run_loads(ci, [(0.0, 1, 2), (HOUR, 1, 1)], n_nodes=2)
        assert carbon_g(result) == pytest.approx(100.0 + 800.0)

    def test_mismatched_steps_exact(self):
        """Half-hour accrual steps against an hourly intensity trace."""
        ci = CarbonIntensityTrace(np.array([100.0, 300.0]), HOUR)
        result = run_loads(ci, [(0.0, 1, 2)], tick_seconds=0.5 * HOUR)
        assert carbon_g(result) == pytest.approx(1.0 * 100.0 + 1.0 * 300.0)

    def test_phase_offset_exact(self):
        """One accrual step straddles an intensity bin boundary."""
        ci = CarbonIntensityTrace(np.array([100.0, 300.0]), HOUR)
        # 2 kW over [0.5 h, 1.5 h); no tick falls inside it
        result = run_loads(ci, [(0.5 * HOUR, 2, 1)], n_nodes=2,
                           tick_seconds=2 * HOUR)
        assert (0.5 * HOUR, 1.5 * HOUR, 2000.0) in result.power_segments
        assert carbon_g(result) == pytest.approx(1.0 * 100.0 + 1.0 * 300.0)

    def test_window_restriction(self):
        """Only the hour the load runs is charged."""
        ci = CarbonIntensityTrace.constant(100.0, 4 * HOUR)
        result = run_loads(ci, [(HOUR, 1, 1)])
        assert carbon_g(result) == pytest.approx(100.0)
        assert result.accounts[1].carbon_g == pytest.approx(100.0)

    def test_empty_window(self):
        ci = CarbonIntensityTrace.constant(100.0, HOUR)
        result = run_loads(ci, [(0.0, 1, 1)], until=0.0)
        assert result.total_carbon_kg == 0.0
        assert result.power_segments == []

    def test_constant_helper_matches(self):
        """A constant load is charged what the trace's constant-load
        helper gives."""
        ci = CarbonIntensityTrace(np.array([100.0, 300.0]), HOUR)
        result = run_loads(ci, [(0.0, 1, 2)], watts=1500.0)
        assert carbon_g(result) == pytest.approx(
            ci.carbon_for_power(1500.0, 0.0, 2 * HOUR), rel=1e-12)

    @given(watts=st.floats(0, 1e6), ci_val=st.floats(0, 2000),
           hours=st.integers(1, 72))
    @settings(max_examples=50, deadline=None)
    def test_matches_closed_form_for_constants(self, watts, ci_val, hours):
        ci = CarbonIntensityTrace.constant(ci_val, hours * HOUR)
        result = run_loads(ci, [(0.0, 1, hours)], watts=watts)
        expected = watts / 1000.0 * hours * ci_val
        assert carbon_g(result) == pytest.approx(
            expected, rel=1e-9, abs=1e-6)

    @given(vals=st.lists(st.floats(0, 2000), min_size=1, max_size=24),
           watts=st.floats(1.0, 5000.0))
    @settings(max_examples=50, deadline=None)
    def test_linearity_in_power(self, vals, watts):
        ci = CarbonIntensityTrace(np.asarray(vals), HOUR)
        load = [(0.0, 1, len(vals))]
        single = run_loads(ci, load, watts=watts)
        double = run_loads(ci, load, watts=2 * watts)
        assert carbon_g(double) == pytest.approx(
            2 * carbon_g(single), rel=1e-9)
