"""Unit tests for metric aggregation and the sweep drivers."""

import dataclasses

import pytest

from repro.analysis.metrics import (
    aggregate_results,
    energy_series,
    miss_rate_by_task,
)
from repro.analysis.sweep import run_replications
from repro.cpu.presets import xscale_pxa
from repro.energy.source import ConstantSource, SolarStochasticSource
from repro.energy.storage import IdealStorage
from repro.experiments.common import PaperSetup
from repro.runtime.sweep import journaled_capacity_sweep
from repro.sched.edf import GreedyEdfScheduler
from repro.sched.registry import make_scheduler
from repro.serialization import result_to_dict
from repro.sim.simulator import HarvestingRtSimulator, SimulationConfig
from repro.sim.tracing import TraceKind
from repro.tasks.task import PeriodicTask, TaskSet
from repro.timeutils import time_eq


def tiny_factory(scheduler_name, capacity, seed):
    """A fast real-simulation factory for driver tests."""
    scale = xscale_pxa()
    source = SolarStochasticSource(seed=seed)
    taskset = TaskSet([PeriodicTask(period=10.0, wcet=3.0, name="t")])
    sim = HarvestingRtSimulator(
        taskset=taskset,
        source=source,
        storage=IdealStorage(capacity=capacity),
        scheduler=make_scheduler(scheduler_name, scale),
        config=SimulationConfig(horizon=300.0),
    )
    return sim.run()


class TestAggregateResults:
    def test_pooled_vs_mean_miss_rate(self):
        results = [tiny_factory("edf", 5.0, s) for s in range(3)]
        agg = aggregate_results(results)
        assert agg.n_runs == 3
        total_missed = sum(r.missed_count for r in results)
        total_judged = sum(r.judged_count for r in results)
        assert agg.pooled_miss_rate == pytest.approx(total_missed / total_judged)
        assert 0.0 <= agg.miss_rate.mean <= 1.0

    def test_mixed_schedulers_rejected(self):
        results = [tiny_factory("edf", 5.0, 0), tiny_factory("lsa", 5.0, 0)]
        with pytest.raises(ValueError, match="mixed schedulers"):
            aggregate_results(results)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_results([])

    def test_str_renders(self):
        agg = aggregate_results([tiny_factory("edf", 5.0, 0)])
        assert "edf" in str(agg)


class TestEnergySeries:
    def test_extracts_traced_series(self):
        scale = xscale_pxa()
        sim = HarvestingRtSimulator(
            taskset=TaskSet([PeriodicTask(period=10.0, wcet=1.0, name="t")]),
            source=ConstantSource(1.0),
            storage=IdealStorage(capacity=50.0),
            scheduler=GreedyEdfScheduler(scale),
            config=SimulationConfig(
                horizon=100.0,
                trace_kinds=(TraceKind.ENERGY,),
                energy_sample_interval=10.0,
            ),
        )
        times, fractions = energy_series(sim.run())
        assert times.size >= 10
        assert ((fractions >= 0) & (fractions <= 1)).all()

    def test_untraced_run_raises(self):
        result = tiny_factory("edf", 50.0, 0)
        with pytest.raises(ValueError, match="no energy trace"):
            energy_series(result)


class TestMissRateByTask:
    def test_rates_per_task(self):
        result = tiny_factory("edf", 5.0, 1)
        rates = miss_rate_by_task(result)
        assert set(rates) == {"t"}
        assert 0.0 <= rates["t"] <= 1.0


class TestReplicationDriver:
    def test_runs_all_seeds(self):
        rep = run_replications(tiny_factory, "edf", 20.0, seeds=[0, 1, 2])
        assert len(rep.results) == 3
        assert rep.scheduler_name == "edf"
        assert time_eq(rep.capacity, 20.0)

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_replications(tiny_factory, "edf", 20.0, seeds=[])


class TestCapacitySweepDriver:
    """The sweep grid helper every capacity experiment runs through."""

    SETUP = PaperSetup(horizon=300.0)

    def sweep(self, scheduler_names, capacities, seeds):
        return journaled_capacity_sweep(
            scheduler_names,
            utilization=0.4,
            capacities=capacities,
            seeds=seeds,
            setup=self.SETUP,
            max_workers=1,
            engine="scalar",
        )

    def test_sweep_structure(self):
        points = self.sweep(("edf", "lsa"), (5.0, 50.0), seeds=(0, 1))
        assert len(points) == 2
        assert set(points[0].by_scheduler) == {"edf", "lsa"}
        assert time_eq(points[0].capacity, 5.0)

    def test_miss_rate_accessor(self):
        points = self.sweep(("edf",), (5.0,), seeds=(0,))
        assert 0.0 <= points[0].miss_rate("edf") <= 1.0

    def test_larger_capacity_helps(self):
        """Sanity: a much bigger storage cannot miss more (pooled)."""
        points = self.sweep(("edf",), (2.0, 500.0), seeds=(0, 1, 2))
        assert points[1].miss_rate("edf") <= points[0].miss_rate("edf")

    def test_paired_seeds_across_schedulers(self):
        """Every scheduler at a capacity runs the same seeds, in order."""
        points = self.sweep(("edf", "lsa"), (50.0,), seeds=(2, 0))
        for name in ("edf", "lsa"):
            direct = [
                result_to_dict(
                    dataclasses.replace(
                        self.SETUP.run(name, 0.4, 50.0, seed), jobs=()
                    )
                )
                for seed in (2, 0)
            ]
            swept = points[0].by_scheduler[name].results
            assert [result_to_dict(r) for r in swept] == direct

    def test_empty_schedulers_rejected(self):
        with pytest.raises(ValueError):
            self.sweep((), (5.0,), seeds=(0,))
