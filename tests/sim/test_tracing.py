"""Unit tests for the trace recorder."""

import numpy as np
import pytest

from repro.energy.storage import IdealStorage
from repro.experiments.common import PaperSetup
from repro.sched.registry import make_scheduler
from repro.sim.simulator import HarvestingRtSimulator, SimulationConfig
from repro.sim.tracing import Trace, TraceKind, TraceRecord


class TestTraceRecord:
    def test_field_access(self):
        record = TraceRecord(time=1.0, kind="energy", fields={"stored": 5.0})
        assert record["stored"] == 5.0
        assert record.get("missing", 42) == 42

    def test_frozen(self):
        record = TraceRecord(time=1.0, kind="x")
        with pytest.raises(AttributeError):
            record.time = 2.0


class TestTraceRecording:
    def test_record_and_iterate(self):
        trace = Trace()
        trace.record(0.0, "a", value=1)
        trace.record(1.0, "b", value=2)
        assert len(trace) == 2
        assert [r.kind for r in trace] == ["a", "b"]
        assert trace[1]["value"] == 2

    def test_kind_filter_drops_unwanted(self):
        trace = Trace(kinds=["a"])
        trace.record(0.0, "a")
        trace.record(1.0, "b")
        assert len(trace) == 1
        assert trace.accepts("a")
        assert not trace.accepts("b")

    def test_unfiltered_accepts_everything(self):
        trace = Trace()
        for kind in TraceKind.ALL:
            assert trace.accepts(kind)

    def test_clear_keeps_filter(self):
        trace = Trace(kinds=["a"])
        trace.record(0.0, "a")
        trace.clear()
        assert len(trace) == 0
        assert not trace.accepts("b")


class TestTraceQueries:
    @pytest.fixture
    def trace(self):
        trace = Trace()
        trace.record(0.0, "energy", stored=10.0)
        trace.record(1.0, "job_release", job="t1#0")
        trace.record(2.0, "energy", stored=8.0)
        trace.record(3.0, "energy", harvest=1.0)  # no 'stored' field
        return trace

    def test_by_kind(self, trace):
        assert len(trace.by_kind("energy")) == 3
        assert len(trace.by_kind("job_release")) == 1
        assert trace.by_kind("nothing") == []

    def test_count(self, trace):
        assert trace.count("energy") == 3
        assert trace.count("nope") == 0

    def test_times(self, trace):
        np.testing.assert_allclose(trace.times(), [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(trace.times("energy"), [0.0, 2.0, 3.0])

    def test_series_skips_missing_fields(self, trace):
        times, values = trace.series("energy", "stored")
        np.testing.assert_allclose(times, [0.0, 2.0])
        np.testing.assert_allclose(values, [10.0, 8.0])

    def test_filter_predicate(self, trace):
        late = trace.filter(lambda r: r.time >= 2.0)
        assert len(late) == 2

    def test_records_snapshot_is_immutable_copy(self, trace):
        snapshot = trace.records
        trace.record(9.0, "energy")
        assert len(snapshot) == 4
        assert len(trace.records) == 5


class TestTracingIsObservationOnly:
    """Enabling trace kinds records what happened and changes nothing."""

    @staticmethod
    def _run(scheduler_name, trace_kinds):
        setup = PaperSetup(horizon=600.0)
        source = setup.source(3)
        simulator = HarvestingRtSimulator(
            taskset=setup.taskset(3, 0.8),
            source=source,
            storage=IdealStorage(capacity=15.0),
            scheduler=make_scheduler(scheduler_name, setup.scale()),
            predictor=setup.predictor(source),
            config=SimulationConfig(
                horizon=600.0,
                trace_kinds=trace_kinds,
                energy_sample_interval=7.0,
            ),
        )
        return simulator.run()

    @pytest.mark.parametrize("scheduler_name", ["ea-dvfs", "lsa", "edf"])
    def test_all_kinds_and_none_agree(self, scheduler_name):
        quiet = self._run(scheduler_name, ())
        loud = self._run(scheduler_name, TraceKind.ALL)
        assert len(quiet.trace) == 0

        def observable(result):
            return (
                result.released_count,
                result.completed_count,
                result.missed_count,
                result.judged_count,
                result.harvested_energy,
                result.drawn_energy,
                result.overflow_energy,
                result.leaked_energy,
                result.final_stored,
                result.busy_time_profile,
                result.idle_time,
                result.switch_count,
                result.stall_count,
                result.stall_time,
                result.per_task_released,
                result.per_task_missed,
                [job.completion_time for job in result.jobs],
            )

        assert observable(loud) == observable(quiet)
        # The traced run recorded every counted event.
        assert loud.trace.count(TraceKind.JOB_RELEASE) == loud.released_count
        assert loud.trace.count(TraceKind.JOB_COMPLETE) == loud.completed_count
        assert loud.trace.count(TraceKind.JOB_MISS) == loud.missed_count
        assert loud.trace.count(TraceKind.STALL) == loud.stall_count
        assert loud.trace.count(TraceKind.ENERGY) > 0
        # The world is tight enough for misses and stalls to happen.
        assert loud.missed_count > 0 and loud.stall_count > 0
