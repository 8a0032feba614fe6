"""Tests for the multi-process sweep executor and the sweep grid helper."""

import dataclasses

import pytest

from repro.analysis.parallel import RunSpec, run_parallel_salvage
from repro.analysis.sweep import run_replications
from repro.experiments.common import PaperSetup
from repro.runtime.sweep import journaled_capacity_sweep
from repro.serialization import result_to_dict
from repro.timeutils import time_eq

FAST_SETUP = PaperSetup(horizon=400.0)


class TestRunParallel:
    """``run_parallel_salvage`` on healthy cells: the scalar executor."""

    def test_empty(self):
        assert run_parallel_salvage([]) == []

    def test_single_spec_runs_inline(self):
        spec = RunSpec("edf", 0.4, 50.0, 0, setup=FAST_SETUP)
        (result,) = run_parallel_salvage([spec])
        assert result.scheduler_name == "edf"
        assert result.released_count > 0

    def test_order_preserved(self):
        specs = [
            RunSpec("edf", 0.4, 50.0, 0, setup=FAST_SETUP),
            RunSpec("lsa", 0.4, 50.0, 0, setup=FAST_SETUP),
            RunSpec("ea-dvfs", 0.4, 50.0, 0, setup=FAST_SETUP),
        ]
        results = run_parallel_salvage(specs, max_workers=2)
        assert [r.scheduler_name for r in results] == ["edf", "lsa", "ea-dvfs"]

    def test_matches_serial_execution(self):
        spec = RunSpec("lsa", 0.4, 60.0, 3, setup=FAST_SETUP)
        serial = run_parallel_salvage([spec], max_workers=1)[0]
        parallel = run_parallel_salvage([spec, spec], max_workers=2)[0]
        assert parallel.missed_count == serial.missed_count
        assert parallel.drawn_energy == pytest.approx(serial.drawn_energy)

    def test_slim_strips_jobs(self):
        spec = RunSpec("edf", 0.4, 50.0, 0, setup=FAST_SETUP)
        slim = run_parallel_salvage([spec])[0]
        fat = FAST_SETUP.run("edf", 0.4, 50.0, 0)
        assert slim.jobs == ()
        assert len(fat.jobs) == fat.released_count
        # Counters survive slimming; nothing but the job list differs.
        assert slim.released_count == fat.released_count
        assert result_to_dict(slim) == result_to_dict(
            dataclasses.replace(fat, jobs=())
        )


class TestParallelCapacitySweep:
    def test_matches_serial_sweep(self):
        factory = FAST_SETUP.factory(0.4)
        parallel = journaled_capacity_sweep(
            scheduler_names=("lsa", "ea-dvfs"),
            utilization=0.4,
            capacities=(20.0, 80.0),
            seeds=range(2),
            setup=FAST_SETUP,
            max_workers=2,
            engine="scalar",
        )
        assert len(parallel) == 2
        for point, capacity in zip(parallel, (20.0, 80.0)):
            assert time_eq(point.capacity, capacity)
            for name in ("lsa", "ea-dvfs"):
                serial = run_replications(factory, name, capacity, range(2))
                assert point.miss_rate(name) == pytest.approx(
                    serial.metrics.pooled_miss_rate
                )


class TestWorkersEnv:
    def test_default_is_one(self, monkeypatch):
        from repro.experiments.common import workers

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert workers() == 1

    def test_parsing(self, monkeypatch):
        from repro.experiments.common import workers

        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert workers() == 4
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ValueError, match="integer"):
            workers()
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            workers()


def _one_capacity_rates(scheduler_names, max_workers):
    """Per-scheduler miss rates of one capacity cell (a Table 1 probe)."""
    (point,) = journaled_capacity_sweep(
        scheduler_names=scheduler_names,
        utilization=0.4,
        capacities=(30.0,),
        seeds=range(2),
        setup=FAST_SETUP,
        max_workers=max_workers,
        engine="scalar",
    )
    return {name: point.miss_rate(name) for name in scheduler_names}


class TestParallelMissRates:
    def test_rates_per_scheduler(self):
        rates = _one_capacity_rates(("lsa", "ea-dvfs"), max_workers=2)
        assert set(rates) == {"lsa", "ea-dvfs"}
        assert all(0.0 <= r <= 1.0 for r in rates.values())

    def test_matches_serial_pooling(self):
        serial = _one_capacity_rates(("lsa",), max_workers=1)
        parallel = _one_capacity_rates(("lsa",), max_workers=2)
        assert parallel == serial
