"""Failure-path tests for the crash-tolerant sweep runner."""

import time
from dataclasses import dataclass

import pytest

from repro.analysis.parallel import (
    RunFailure,
    RunSpec,
    _retry_order,
    retry_delay,
    run_parallel_salvage,
)
from repro.experiments.common import PaperSetup
from repro.runtime.supervisor import SupervisorPolicy, run_supervised
from repro.sim.simulator import SimulationResult
from repro.sim.watchdog import SimulationDiagnostics, WatchdogError

FAST_SETUP = PaperSetup(horizon=200.0)


@dataclass(frozen=True)
class RaisingSetup(PaperSetup):
    """Setup whose every run crashes (top-level class: pool-picklable)."""

    def run(self, *args, **kwargs):
        raise RuntimeError("injected worker crash")


@dataclass(frozen=True)
class WatchdogTrippingSetup(PaperSetup):
    """Setup whose every run aborts with a structured watchdog report."""

    def run(self, *args, **kwargs):
        raise WatchdogError(
            SimulationDiagnostics(
                violation="stall budget exhausted",
                time=12.5,
                segments_checked=42,
                stall_count=7,
                consecutive_stalls=7,
                completed_count=3,
                stored=0.0,
                capacity=50.0,
                detail={"budget": 5.0},
            )
        )


@dataclass(frozen=True)
class SleepingSetup(PaperSetup):
    """Setup whose every run hangs far past any reasonable timeout."""

    def run(self, *args, **kwargs):
        time.sleep(5.0)
        raise AssertionError("should have been abandoned by the timeout")


def ok_spec(seed=0):
    return RunSpec("edf", 0.4, 50.0, seed, setup=FAST_SETUP)


def bad_spec():
    return RunSpec("edf", 0.4, 50.0, 0, setup=RaisingSetup())


class TestSerialSalvage:
    def test_empty(self):
        assert run_parallel_salvage([]) == []

    def test_all_healthy_matches_plain_results(self):
        results = run_parallel_salvage([ok_spec(0), ok_spec(1)], max_workers=1)
        assert all(isinstance(r, SimulationResult) for r in results)

    def test_raising_cell_salvaged_others_complete(self):
        specs = [ok_spec(0), bad_spec(), ok_spec(1)]
        results = run_parallel_salvage(specs, max_workers=1)
        assert isinstance(results[0], SimulationResult)
        assert isinstance(results[2], SimulationResult)
        failure = results[1]
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "RuntimeError"
        assert "injected worker crash" in failure.message
        assert failure.attempts == 1
        assert failure.timed_out is False
        assert failure.spec == specs[1]

    def test_order_preserved(self):
        specs = [
            RunSpec(name, 0.4, 50.0, 0, setup=FAST_SETUP)
            for name in ("edf", "lsa", "ea-dvfs")
        ]
        results = run_parallel_salvage(specs, max_workers=1)
        assert [r.scheduler_name for r in results] == ["edf", "lsa", "ea-dvfs"]

    def test_retries_counted(self):
        results = run_parallel_salvage(
            [bad_spec(), ok_spec()], max_workers=1, retries=2, backoff=0.0
        )
        assert results[0].attempts == 3
        assert isinstance(results[1], SimulationResult)

    def test_successful_cells_not_retried(self):
        # A healthy cell succeeds in round 0 and must not run again.
        results = run_parallel_salvage(
            [ok_spec()] * 2 + [bad_spec()], max_workers=1, retries=1, backoff=0.0
        )
        assert isinstance(results[0], SimulationResult)
        assert results[2].attempts == 2


class TestPooledSalvage:
    def test_raising_cell_salvaged_others_complete(self):
        specs = [ok_spec(0), bad_spec(), ok_spec(1)]
        results = run_parallel_salvage(specs, max_workers=2, retries=1, backoff=0.0)
        assert isinstance(results[0], SimulationResult)
        assert isinstance(results[2], SimulationResult)
        failure = results[1]
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "RuntimeError"
        assert failure.attempts == 2

    def test_hanging_cell_times_out(self):
        specs = [
            ok_spec(0),
            RunSpec("edf", 0.4, 50.0, 0, setup=SleepingSetup()),
        ]
        results = run_parallel_salvage(specs, max_workers=2, timeout=0.5)
        assert isinstance(results[0], SimulationResult)
        failure = results[1]
        assert isinstance(failure, RunFailure)
        assert failure.timed_out is True
        assert failure.error_type == "TimeoutError"
        assert "0.5" in failure.message

    def test_pooled_matches_serial_for_healthy_specs(self):
        specs = [ok_spec(0), ok_spec(1)]
        serial = run_parallel_salvage(specs, max_workers=1)
        pooled = run_parallel_salvage(specs, max_workers=2)
        for s, p in zip(serial, pooled):
            assert s.missed_count == p.missed_count
            assert s.drawn_energy == pytest.approx(p.drawn_energy)


class TestDiagnosticsCapture:
    def test_serial_failure_carries_traceback(self):
        failure = run_parallel_salvage([bad_spec()], max_workers=1)[0]
        assert isinstance(failure, RunFailure)
        assert "Traceback (most recent call last)" in failure.traceback
        assert "injected worker crash" in failure.traceback
        assert "RaisingSetup" in failure.traceback or "run" in failure.traceback

    def test_pooled_failure_carries_worker_traceback(self):
        # The traceback is formatted worker-side: it must survive the
        # process boundary intact.
        failure = run_parallel_salvage([bad_spec()] * 2, max_workers=2)[0]
        assert isinstance(failure, RunFailure)
        assert "Traceback (most recent call last)" in failure.traceback
        assert "injected worker crash" in failure.traceback

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_watchdog_diagnostics_captured(self, engine):
        spec = RunSpec("edf", 0.4, 50.0, 0, setup=WatchdogTrippingSetup())
        report = run_supervised(
            [spec], policy=SupervisorPolicy(retries=0), max_workers=1,
            engine=engine,
        )
        (failure,) = report.outcomes
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "WatchdogError"
        assert failure.diagnostics is not None
        assert failure.diagnostics["violation"] == "stall budget exhausted"
        assert failure.diagnostics["stall_count"] == 7
        assert failure.diagnostics["detail"] == {"budget": 5.0}

    def test_timeout_failure_has_no_traceback(self):
        specs = [RunSpec("edf", 0.4, 50.0, 0, setup=SleepingSetup())] * 2
        failure = run_parallel_salvage(specs, max_workers=2, timeout=0.5)[0]
        assert failure.timed_out is True
        assert failure.traceback is None
        assert failure.diagnostics is None


class TestBatchEngineRunsSetupOverrides:
    @pytest.mark.parametrize("setup", [RaisingSetup(), WatchdogTrippingSetup()])
    def test_overriding_setup_fails_on_batch_engine(self, setup):
        # The batch lane builder cannot see a run() override, so such a
        # cell must run scalar (a counted fallback) and fail like it does
        # on the scalar engine, not succeed as a plain PaperSetup world.
        spec = RunSpec("edf", 0.4, 50.0, 0, setup=setup)
        report = run_supervised(
            [spec], policy=SupervisorPolicy(retries=0), max_workers=1,
            engine="batch",
        )
        assert report.failed == 1
        assert isinstance(report.outcomes[0], RunFailure)
        assert report.fallback_reasons == {
            f"setup {type(setup).__name__} overrides run": 1
        }


class TestDeterministicRetrySchedule:
    def test_retry_delay_doubles_per_round(self):
        assert retry_delay(0.5, 1) == 0.5
        assert retry_delay(0.5, 2) == 1.0
        assert retry_delay(0.5, 3) == 2.0

    def test_retry_delay_zero_backoff(self):
        assert retry_delay(0.0, 1, jitter=0.5, seed=3) == 0.0

    def test_jitter_is_seeded_and_bounded(self):
        delays = {retry_delay(1.0, 1, jitter=0.25, seed=7) for _ in range(5)}
        assert len(delays) == 1  # pure function of (round, seed)
        delay = delays.pop()
        assert 1.0 <= delay <= 1.25
        assert retry_delay(1.0, 1, jitter=0.25, seed=8) != delay

    def test_retry_order_is_seeded_permutation(self):
        pending = list(range(10))
        order = _retry_order(pending, round_no=1, seed=0)
        assert sorted(order) == pending
        assert order == _retry_order(pending, round_no=1, seed=0)
        assert order != _retry_order(pending, round_no=2, seed=0)
        assert order != _retry_order(pending, round_no=1, seed=1)

    def test_salvage_outcome_reproducible_under_fixed_seed(self):
        specs = [bad_spec(), ok_spec(0), bad_spec(), ok_spec(1)]
        kwargs = dict(max_workers=1, retries=2, backoff=0.0, jitter=0.5, seed=9)
        first = run_parallel_salvage(specs, **kwargs)
        second = run_parallel_salvage(specs, **kwargs)
        for a, b in zip(first, second):
            assert type(a) is type(b)
            if isinstance(a, RunFailure):
                assert a.attempts == b.attempts
                assert a.message == b.message


@pytest.mark.slow
class TestWorkerDeath:
    """Genuinely hostile workers: hangs and signal deaths (pooled only)."""

    def _flaky(self, tmp_path, mode, fail_attempts=1):
        from repro.faults.chaos import FlakySetup

        return FlakySetup(
            horizon=200.0,
            scratch_dir=str(tmp_path / "scratch"),
            fail_attempts=fail_attempts,
            mode=mode,
            stall_seconds=10.0,
        )

    def test_sigkilled_worker_salvaged(self, tmp_path):
        # The worker dies by SIGKILL: the pool breaks, and the cell is
        # salvaged as a BrokenProcessPool failure instead of aborting.
        # A healthy companion spec keeps the sweep on the pooled path —
        # single-spec sweeps run serially, where a kill-mode FlakySetup
        # would take down the test process itself.
        setup = self._flaky(tmp_path, "kill", fail_attempts=10)
        specs = [
            RunSpec("edf", 0.4, 50.0, 0, setup=setup),
            RunSpec("edf", 0.4, 50.0, 1, setup=FAST_SETUP),
        ]
        results = run_parallel_salvage(specs, max_workers=2, retries=0)
        failure = results[0]
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "BrokenProcessPool"
        assert failure.attempts == 1
        assert failure.timed_out is False

    def test_sigkilled_worker_heals_on_retry(self, tmp_path):
        # First attempt dies by signal; the retry round gets a fresh
        # pool and the (now healthy) cell completes.
        setup = self._flaky(tmp_path, "kill", fail_attempts=1)
        specs = [
            RunSpec("edf", 0.4, 50.0, 0, setup=setup),
            RunSpec("edf", 0.4, 50.0, 1, setup=FAST_SETUP),
        ]
        results = run_parallel_salvage(
            specs, max_workers=2, retries=1, backoff=0.0, seed=0
        )
        assert isinstance(results[0], SimulationResult)
        assert isinstance(results[1], SimulationResult)

    def test_stalling_worker_times_out_then_heals(self, tmp_path):
        setup = self._flaky(tmp_path, "stall", fail_attempts=1)
        specs = [RunSpec("edf", 0.4, 50.0, 0, setup=setup)]
        results = run_parallel_salvage(
            specs + [RunSpec("edf", 0.4, 50.0, 1, setup=FAST_SETUP)],
            max_workers=2,
            timeout=1.0,
            retries=1,
            backoff=0.0,
            seed=0,
        )
        assert isinstance(results[0], SimulationResult)
        assert isinstance(results[1], SimulationResult)


class TestValidation:
    def test_bad_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            run_parallel_salvage([ok_spec()], timeout=0.0)

    def test_bad_retries(self):
        with pytest.raises(ValueError, match="retries"):
            run_parallel_salvage([ok_spec()], retries=-1)

    def test_bad_backoff(self):
        with pytest.raises(ValueError, match="backoff"):
            run_parallel_salvage([ok_spec()], backoff=-0.5)
