"""Tests for the supervised sweep loop: resume, quarantine, budgets."""

import dataclasses
import time
from dataclasses import dataclass

import pytest

from repro.analysis.parallel import RunFailure, RunSpec
from repro.experiments.common import PaperSetup
from repro.faults.chaos import FlakySetup
from repro.runtime.journal import ResultJournal, journal_key, result_to_payload
from repro.runtime.supervisor import (
    SupervisorPolicy,
    SweepReport,
    run_supervised,
)
from repro.runtime.sweep import (
    SweepFailedError,
    journal_from_env,
    journaled_capacity_sweep,
    run_journaled_sweep,
)
from repro.serialization import canonical_json
from repro.sim.simulator import SimulationResult

FAST_SETUP = PaperSetup(horizon=200.0)


@dataclass(frozen=True)
class RaisingSetup(PaperSetup):
    def run(self, *args, **kwargs):
        raise RuntimeError("injected crash")


@dataclass(frozen=True)
class SlowSetup(PaperSetup):
    """Healthy, but slow enough that a tiny wall-clock budget trips."""

    def run(self, *args, **kwargs):
        time.sleep(0.05)
        return super().run(*args, **kwargs)


def specs_for(n, setup=FAST_SETUP, name="edf"):
    return [RunSpec(name, 0.4, 50.0, seed, setup=setup) for seed in range(n)]


class TestPolicyValidation:
    def test_bad_retries(self):
        with pytest.raises(ValueError, match="retries"):
            SupervisorPolicy(retries=-1)

    def test_bad_quarantine(self):
        with pytest.raises(ValueError, match="quarantine_after"):
            SupervisorPolicy(quarantine_after=0)

    def test_bad_budgets(self):
        with pytest.raises(ValueError, match="max_wall_clock"):
            SupervisorPolicy(max_wall_clock=0.0)
        with pytest.raises(ValueError, match="max_rss_mb"):
            SupervisorPolicy(max_rss_mb=-1.0)


class TestSupervisedNoJournal:
    def test_all_healthy(self):
        report = run_supervised(specs_for(3), max_workers=1)
        assert report.ok
        assert report.executed == 3
        assert report.journal_hits == 0
        assert len(report.results()) == 3
        assert "3 cell(s)" in report.format_text()

    def test_failures_reported_in_order(self):
        specs = specs_for(1) + specs_for(1, setup=RaisingSetup())
        report = run_supervised(
            specs, policy=SupervisorPolicy(retries=0, backoff=0.0), max_workers=1
        )
        assert not report.ok
        assert report.failed == 1
        assert isinstance(report.outcomes[0], SimulationResult)
        failure = report.outcomes[1]
        assert isinstance(failure, RunFailure)
        assert "FAILED" in report.format_text()

    def test_wall_clock_budget_flushes_partial(self):
        # A budget is checked between batches, so it makes the scalar
        # engine checkpoint one worker round (here: one cell) at a time.
        policy = SupervisorPolicy(max_wall_clock=0.06)
        report = run_supervised(
            specs_for(30, setup=SlowSetup()), policy=policy, max_workers=1
        )
        assert report.budget_exhausted == "wall-clock"
        assert report.not_run > 0
        assert report.executed + report.not_run == 30
        assert "budget exhausted" in report.format_text()

    def test_memory_budget_trips_immediately(self):
        # Any real process exceeds 1 MiB RSS, so the first check trips.
        policy = SupervisorPolicy(max_rss_mb=1.0)
        report = run_supervised(specs_for(2), policy=policy, max_workers=1)
        assert report.budget_exhausted == "memory"
        assert report.executed == 0
        assert report.not_run == 2


class TestSupervisedWithJournal:
    def test_resume_skips_journaled_results(self, tmp_path):
        specs = specs_for(4)
        with ResultJournal(tmp_path / "j.journal") as journal:
            first = run_supervised(specs, journal=journal, max_workers=1)
            assert (first.journal_hits, first.executed) == (0, 4)
            second = run_supervised(specs, journal=journal, max_workers=1)
            assert (second.journal_hits, second.executed) == (4, 0)
        assert canonical_json(
            [result_to_payload(r) for r in first.results()]
        ) == canonical_json([result_to_payload(r) for r in second.results()])

    def test_partial_journal_runs_only_missing(self, tmp_path):
        specs = specs_for(4)
        with ResultJournal(tmp_path / "j.journal") as journal:
            run_supervised(specs[:2], journal=journal, max_workers=1)
            report = run_supervised(specs, journal=journal, max_workers=1)
            assert (report.journal_hits, report.executed) == (2, 2)
            assert report.ok

    def test_failures_retried_on_resume_until_quarantined(self, tmp_path):
        specs = specs_for(1, setup=RaisingSetup())
        policy = SupervisorPolicy(retries=0, backoff=0.0, quarantine_after=3)
        with ResultJournal(tmp_path / "j.journal") as journal:
            for expected_attempts in (1, 2):
                report = run_supervised(
                    specs, policy=policy, journal=journal, max_workers=1
                )
                failure = report.outcomes[0]
                assert failure.attempts == expected_attempts
                assert failure.quarantined is False
                assert report.executed == 1
            # Third run reaches the threshold and quarantines.
            report = run_supervised(
                specs, policy=policy, journal=journal, max_workers=1
            )
            assert report.outcomes[0].quarantined is True
            assert report.quarantined == 1
            # Fourth run: quarantined failure is a journal hit, no retry.
            report = run_supervised(
                specs, policy=policy, journal=journal, max_workers=1
            )
            assert report.executed == 0
            assert report.journal_hits == 1
            assert report.outcomes[0].quarantined is True

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_flaky_cell_heals_through_journaled_retries(
        self, tmp_path, engine
    ):
        setup = FlakySetup(
            horizon=200.0,
            scratch_dir=str(tmp_path / "scratch"),
            fail_attempts=1,
            mode="raise",
        )
        specs = specs_for(1, setup=setup)
        policy = SupervisorPolicy(retries=1, backoff=0.0)
        with ResultJournal(tmp_path / "j.journal") as journal:
            report = run_supervised(
                specs, policy=policy, journal=journal, max_workers=1,
                engine=engine,
            )
            assert report.ok  # failed once, healed on the in-run retry
            result = report.outcomes[0]
            assert isinstance(result, SimulationResult)


class TestEngineParity:
    """Cells the batch core does not answer get the scalar engine's policy."""

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_stalled_fallback_times_out(self, tmp_path, engine):
        setup = FlakySetup(
            horizon=200.0,
            scratch_dir=str(tmp_path / "scratch"),
            mode="stall",
            stall_seconds=5.0,
        )
        report = run_supervised(
            specs_for(2, setup=setup),
            policy=SupervisorPolicy(timeout=0.5, retries=0),
            max_workers=2,
            engine=engine,
        )
        assert report.failed == 2
        for failure in report.outcomes:
            assert isinstance(failure, RunFailure)
            assert failure.timed_out is True

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_unknown_predictor_kind_fails_alike(self, engine):
        setup = PaperSetup(horizon=200.0, predictor_kind="psychic")
        report = run_supervised(
            specs_for(1, setup=setup),
            policy=SupervisorPolicy(retries=1, backoff=0.0),
            max_workers=1,
            engine=engine,
        )
        (failure,) = report.outcomes
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "ValueError"
        assert "psychic" in failure.message
        assert failure.attempts == 2


class TestJournaledSweepHelpers:
    def test_env_journal(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL", str(tmp_path / "env.journal"))
        journal = journal_from_env()
        assert journal is not None
        journal.close()
        report = run_journaled_sweep(specs_for(2), max_workers=1)
        assert report.ok
        assert report.journal_hits == 0
        # Rerun resumes from the same env journal.
        report = run_journaled_sweep(specs_for(2), max_workers=1)
        assert report.journal_hits == 2

    def test_env_unset_means_no_journal(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOURNAL", raising=False)
        assert journal_from_env() is None
        report = run_journaled_sweep(specs_for(1), max_workers=1)
        assert report.journal_path is None

    def test_one_capacity_probe_matches_serial(self, tmp_path):
        from repro.analysis.sweep import run_replications

        (point,) = journaled_capacity_sweep(
            ("edf", "lsa"),
            utilization=0.4,
            capacities=(50.0,),
            seeds=range(2),
            setup=FAST_SETUP,
            journal=ResultJournal(tmp_path / "j.journal"),
            max_workers=1,
        )
        factory = FAST_SETUP.factory(0.4)
        for name in ("edf", "lsa"):
            serial = run_replications(factory, name, 50.0, range(2))
            assert point.miss_rate(name) == pytest.approx(
                serial.metrics.pooled_miss_rate
            )

    def test_journaled_capacity_sweep_matches_parallel_shape(self, tmp_path):
        points = journaled_capacity_sweep(
            ("edf",),
            utilization=0.4,
            capacities=(25.0, 50.0),
            seeds=range(2),
            setup=FAST_SETUP,
            journal=ResultJournal(tmp_path / "j.journal"),
            max_workers=1,
        )
        assert [p.capacity for p in points] == [25.0, 50.0]
        for point in points:
            run = point.by_scheduler["edf"]
            assert len(run.results) == 2
            assert 0.0 <= point.miss_rate("edf") <= 1.0

    def test_sweep_failed_error_carries_traceback(self, tmp_path):
        with pytest.raises(SweepFailedError, match="injected crash") as info:
            journaled_capacity_sweep(
                ("edf",),
                utilization=0.4,
                capacities=(50.0,),
                seeds=range(1),
                setup=RaisingSetup(),
                journal=ResultJournal(tmp_path / "j.journal"),
                max_workers=1,
            )
        failure = info.value.failures[0]
        assert failure.traceback is not None
        assert "RuntimeError" in failure.traceback


class TestOneSweepPath:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("journaled", [False, True])
    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_every_route_matches_replications(
        self, tmp_path, engine, journaled, workers
    ):
        from repro.analysis.sweep import run_replications

        journal = ResultJournal(tmp_path / "j.journal") if journaled else None
        try:
            points = journaled_capacity_sweep(
                ("lsa", "ea-dvfs"),
                utilization=0.4,
                capacities=(25.0, 50.0),
                seeds=range(2),
                setup=FAST_SETUP,
                journal=journal,
                max_workers=workers,
                engine=engine,
            )
        finally:
            if journal is not None:
                journal.close()
        factory = FAST_SETUP.factory(0.4)
        for point in points:
            for name in ("lsa", "ea-dvfs"):
                reference = run_replications(
                    factory, name, point.capacity, range(2)
                )
                assert point.miss_rate(name) == (
                    reference.metrics.pooled_miss_rate
                )

    @pytest.mark.parametrize(
        "setups, rounds",
        [((FAST_SETUP,) * 6, 1), ((FAST_SETUP,) * 5 + (RaisingSetup(),), 2)],
    )
    def test_one_pool_per_retry_round(self, monkeypatch, setups, rounds):
        import repro.analysis.parallel as parallel

        pools = []

        class CountingPool(parallel.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
        specs = [
            RunSpec("edf", 0.4, 50.0, seed, setup=setup)
            for seed, setup in enumerate(setups)
        ]
        report = run_supervised(
            specs,
            policy=SupervisorPolicy(retries=1, backoff=0.0),
            max_workers=2,
        )
        assert report.executed == 6
        assert report.failed == rounds - 1
        assert len(pools) == rounds


class TestSweepReportShape:
    def test_counts_consistent(self):
        report = SweepReport(
            outcomes=(None,),
            journal_hits=0,
            executed=0,
            not_run=1,
            failed=0,
            quarantined=0,
            elapsed=0.0,
            budget_exhausted="wall-clock",
        )
        assert not report.ok
        assert report.completed == 0
        assert dataclasses.asdict(report)["budget_exhausted"] == "wall-clock"
