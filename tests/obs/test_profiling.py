"""Profiling hooks in the hot paths: simulator, scheduler, service,
embodied, and the parallel executor (cross-process span capture)."""

import os

import pytest

from repro import obs
from repro.embodied import SUPERMUC_NG, system_embodied_breakdown
from repro.obs import merge_spans
from repro.parallel import run_sweep
from repro.simulator import SimulationEngine


def traced_cell(lane: int, reps: int):
    """Module-level (picklable) cell opening one inner span."""
    with obs.span("cell.work", attrs={"lane": lane}):
        acc = 0.0
        for i in range(reps):
            acc += (i * lane) % 7
    return {"acc": acc}


GRID = {"lane": [0, 1, 2, 3], "reps": [100, 200]}


class TestEngineProfiling:
    def _engine_with_events(self, n=5):
        eng = SimulationEngine()
        for i in range(n):
            eng.schedule_at(float(i), lambda: None)
        return eng

    def test_run_records_span_and_metrics(self):
        with obs.scope() as tracer:
            self._engine_with_events(5).run()
            (span,) = tracer.drain()
        assert span.name == "sim.run"
        assert span.attrs["events"] == 5
        assert span.attrs["events_per_s"] > 0
        assert obs.metrics().counter("sim.events").value == 5

    def test_run_until_records_queue_depth_gauge(self):
        eng = self._engine_with_events(5)
        with obs.scope() as tracer:
            eng.run_until(2.0)
            (span,) = tracer.drain()
        assert span.name == "sim.run_until"
        assert span.attrs["t_end"] == 2.0
        assert span.attrs["events"] == 3  # t = 0, 1, 2
        assert obs.metrics().gauge("sim.queue_depth").value == 2
        assert obs.metrics().gauge("sim.clock_s").value == 2.0

    def test_disabled_run_is_untraced_and_unmetered(self):
        self._engine_with_events(3).run()
        assert obs.get_tracer().spans == []
        assert obs.metrics().counters == {}


class TestEmbodiedProfiling:
    def test_breakdown_emits_component_act_spans(self):
        with obs.scope() as tracer:
            b = system_embodied_breakdown(SUPERMUC_NG)
            spans = tracer.drain()
        names = [s.name for s in spans]
        for stage in ("embodied.act.cpu", "embodied.act.gpu",
                      "embodied.act.memory", "embodied.act.storage"):
            assert stage in names
        (root,) = [s for s in spans if s.name == "embodied.breakdown"]
        assert root.attrs["system"] == "SuperMUC-NG"
        assert root.attrs["total_kg"] == pytest.approx(b["total"])
        for s in spans:
            if s.name.startswith("embodied.act."):
                assert s.parent_id == root.span_id

    def test_breakdown_unperturbed_by_tracing(self):
        plain = system_embodied_breakdown(SUPERMUC_NG)
        with obs.scope():
            traced = system_embodied_breakdown(SUPERMUC_NG)
        assert traced == plain


class TestSchedulerProfiling:
    def test_rjms_run_emits_schedule_spans_and_metrics(self):
        from repro.grid import SyntheticProvider
        from repro.scheduler import RJMS, FCFSPolicy
        from repro.simulator import (
            Cluster,
            ComponentPowerModel,
            NodePowerModel,
            WorkloadConfig,
            WorkloadGenerator,
        )

        pm = NodePowerModel(
            cpus=(ComponentPowerModel("cpu", 50, 240),) * 2)
        jobs = WorkloadGenerator(
            WorkloadConfig(n_jobs=10, max_nodes_log2=2),
            seed=0).generate()

        class CountingRJMS(RJMS):
            """Counts the passes asked for, and those with a job pending,
            and records any pass whose queue gauges do not read the queue
            it was asked with."""

            asked = with_pending = 0
            stale = []

            def _schedule_pass(self):
                self.asked += 1
                self.with_pending += bool(self.pending)
                queue = (len(self.pending), len(self.running))
                super()._schedule_pass()
                reg = obs.metrics()
                gauges = (reg.gauge("rjms.pending_jobs").value,
                          reg.gauge("rjms.running_jobs").value)
                if gauges != queue:
                    self.stale.append((self.now, queue, gauges))

        rjms = CountingRJMS(Cluster(8, pm), jobs, FCFSPolicy(),
                            provider=SyntheticProvider("DE", seed=0))
        with obs.scope() as tracer:
            rjms.run()
            spans = tracer.drain()
        (run_span,) = [s for s in spans if s.name == "rjms.run"]
        assert run_span.attrs["n_jobs"] == 10
        assert run_span.attrs["policy"] == "FCFSPolicy"
        passes = [s for s in spans if s.name == "rjms.schedule"]
        assert passes, "no scheduling passes traced"
        assert all("pending" in s.attrs and "decisions" in s.attrs
                   for s in passes)
        reg = obs.metrics()
        assert reg.counter("rjms.jobs_started").value == 10
        # a pass with nothing pending is skipped: no span, not counted
        assert reg.counter("rjms.schedule_passes").value == len(passes) \
            == rjms.with_pending
        assert rjms.asked > rjms.with_pending
        # every pass, skipped or not, sets the gauges to its queue
        assert rjms.stale == []
        assert reg.gauge("rjms.pending_jobs").value == 0
        assert reg.gauge("rjms.running_jobs").value == 0


class TestServiceProfiling:
    def test_backend_call_span_carries_zone_and_errors(self):
        from repro.grid import SyntheticProvider, get_zone
        from repro.service import CarbonService, FlakyProvider

        zone = get_zone("DE")
        service = CarbonService(SyntheticProvider(zone, seed=0))
        with obs.scope() as tracer:
            service.intensity_at(3600.0)
            spans = [s for s in tracer.drain()
                     if s.name == "service.backend_call"]
        assert len(spans) == 1
        assert spans[0].attrs["zone"] == "DE"
        assert not spans[0].error

        flaky = CarbonService(
            FlakyProvider(SyntheticProvider(zone, seed=0),
                          failure_rate=1.0, seed=1),
            sleep=lambda _s: None)
        with obs.scope() as tracer:
            with pytest.raises(Exception):
                flaky.intensity_at(3600.0)
            errored = [s for s in tracer.drain()
                       if s.name == "service.backend_call"]
        assert errored and all(s.error for s in errored)


class TestExecutorCapture:
    """Satellite: cross-process trace merge ordering + parity."""

    def test_parallel_spans_cross_the_process_boundary(self):
        with obs.scope() as tracer:
            result = run_sweep(traced_cell, GRID, workers=2)
            spans = tracer.drain()
        assert result.stats.mode == "process-pool"
        cells = [s for s in spans if s.name == "sweep.cell"]
        inner = [s for s in spans if s.name == "cell.work"]
        assert len(cells) == len(inner) == 8
        assert {s.attrs["cell_index"] for s in cells} == set(range(8))
        parent_pid = os.getpid()
        assert all(s.pid != parent_pid for s in cells)
        assert all(s.worker.startswith("worker-") for s in cells)
        by_id = {s.span_id: s for s in spans}
        for s in inner:  # nesting survives serialization
            assert by_id[s.parent_id].name == "sweep.cell"
            assert by_id[s.parent_id].pid == s.pid

    def test_merge_ordering_is_canonical_across_processes(self):
        with obs.scope() as tracer:
            run_sweep(traced_cell, GRID, workers=2)
            spans = tracer.drain()
        merged = merge_spans(spans)
        key = [(s.start_s, s.pid, s.span_id) for s in merged]
        assert key == sorted(key)
        assert ([s.span_id for s in merge_spans(reversed(spans))]
                == [s.span_id for s in merged])

    def test_rows_identical_with_tracing_on_off_and_across_workers(self):
        plain = run_sweep(traced_cell, GRID, workers=1)
        with obs.scope():
            serial = run_sweep(traced_cell, GRID, workers=1)
            parallel = run_sweep(traced_cell, GRID, workers=2)
        assert serial.rows == plain.rows
        assert parallel.rows == plain.rows

    def test_serial_traced_sweep_has_inline_spans(self):
        with obs.scope() as tracer:
            run_sweep(traced_cell, GRID, workers=1)
            spans = tracer.drain()
        names = [s.name for s in spans]
        assert names.count("sweep.cell") == 8
        assert names.count("sweep.run") == 1
        (run_span,) = [s for s in spans if s.name == "sweep.run"]
        cells = [s for s in spans if s.name == "sweep.cell"]
        assert all(c.parent_id == run_span.span_id for c in cells)

    def test_failing_cell_span_is_marked_and_captured(self):
        with obs.scope() as tracer:
            result = run_sweep(failing_cell, {"x": [0, 1]},
                               workers=2, strict=False)
            spans = tracer.drain()
        assert len(result.failures) == 1
        errored = [s for s in spans
                   if s.name == "sweep.cell" and s.error]
        assert len(errored) == 1
        assert errored[0].attrs["error_type"] == "ValueError"

    def test_untraced_parallel_sweep_stays_clean(self):
        run_sweep(traced_cell, GRID, workers=2)
        assert obs.get_tracer().spans == []


def failing_cell(x: int):
    """Module-level (picklable) cell that fails for odd x."""
    if x % 2:
        raise ValueError("odd")
    return {"y": float(x)}
