"""Crash-tolerant multi-process execution of sweep cells.

The figure/table experiments replicate each configuration across many
seeded task sets; the runs are embarrassingly parallel.  This module is
the scalar executor underneath :func:`repro.runtime.supervisor.
run_supervised`:

* :class:`RunSpec` — one picklable cell (setup + scheduler + capacity +
  seed);
* :func:`run_parallel_salvage` — execute many specs in input order,
  in-process for one worker (or one spec) and over a
  :class:`~concurrent.futures.ProcessPoolExecutor` otherwise, with
  per-round timeouts, bounded retries with exponential backoff, and
  salvage semantics: a cell that keeps failing becomes a
  :class:`RunFailure` record in the result list instead of poisoning
  the whole sweep.

Results are returned *slim* (job list dropped) because
shipping thousands of job objects through IPC costs more than the
simulation itself for short runs.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
import traceback as traceback_module
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.experiments.common import PaperSetup
from repro.sim.simulator import SimulationResult

__all__ = [
    "RunFailure",
    "RunSpec",
    "retry_delay",
    "run_parallel_salvage",
]


@dataclass(frozen=True)
class RunSpec:
    """One simulation cell, fully described by picklable values."""

    scheduler_name: str
    utilization: float
    capacity: float
    seed: int
    setup: PaperSetup = PaperSetup()
    energy_sample_interval: Optional[float] = None


@dataclass(frozen=True)
class RunFailure:
    """Salvage record for one sweep cell that produced no result.

    Attributes
    ----------
    spec:
        The cell that failed.
    error_type:
        Class name of the final error (``"TimeoutError"`` for timeouts).
    message:
        The final error message.
    attempts:
        How many times the cell was tried before giving up.
    timed_out:
        Whether the final failure was a timeout (vs. a raised error).
    traceback:
        The worker-side formatted traceback of the final error, when one
        was captured (``None`` for timeouts — there is no worker stack
        to report).
    diagnostics:
        Structured :class:`~repro.sim.watchdog.SimulationDiagnostics`
        snapshot (as a plain dict) when the final error was a
        :class:`~repro.sim.watchdog.WatchdogError`.
    quarantined:
        Whether the supervisor stopped retrying this cell because it
        reached the poisoned-task threshold (see ``repro.runtime``).
    """

    spec: RunSpec
    error_type: str
    message: str
    attempts: int
    timed_out: bool = False
    traceback: Optional[str] = None
    diagnostics: Optional[dict[str, Any]] = None
    quarantined: bool = False


def _failure(spec: RunSpec, exc: BaseException) -> RunFailure:
    """Capture ``exc`` as a one-attempt failure record of ``spec``.

    Tracebacks do not survive the process boundary, so a worker formats
    its own before returning; a :class:`WatchdogError` additionally
    ships its structured diagnostics snapshot.  Executors that retry
    overwrite ``attempts`` with their own count.
    """
    from repro.sim.watchdog import WatchdogError

    diagnostics: Optional[dict[str, Any]] = None
    if isinstance(exc, WatchdogError):
        diagnostics = dataclasses.asdict(exc.diagnostics)
    return RunFailure(
        spec=spec,
        error_type=type(exc).__name__,
        message=str(exc) or type(exc).__name__,
        attempts=1,
        traceback="".join(traceback_module.format_exception(exc)),
        diagnostics=diagnostics,
    )


def _execute_captured(spec: RunSpec) -> Union[SimulationResult, RunFailure]:
    """Run one cell and return its slim result; errors return, never raise.

    This is the function the process pool submits.  The job list is
    stripped before the result crosses the process boundary (metrics and
    counters are all the sweeps consume).
    """
    try:
        result = spec.setup.run(
            scheduler_name=spec.scheduler_name,
            utilization=spec.utilization,
            capacity=spec.capacity,
            seed=spec.seed,
            energy_sample_interval=spec.energy_sample_interval,
        )
    except Exception as exc:  # noqa: BLE001 - salvage semantics
        return _failure(spec, exc)
    return dataclasses.replace(result, jobs=())


def _pooled_round(
    specs: Sequence[RunSpec],
    indices: Sequence[int],
    max_workers: Optional[int],
    timeout: Optional[float],
) -> dict[int, Union[SimulationResult, RunFailure]]:
    """Run one retry round of ``indices`` in a fresh process pool.

    The pool is per-round on purpose: a worker wedged by a previous round
    cannot poison this one, and ``shutdown(wait=False)`` after a timeout
    abandons stuck workers instead of blocking the caller on them.
    """
    outcome: dict[int, Union[SimulationResult, RunFailure]] = {}
    workers = max_workers or os.cpu_count() or 1
    budget = None
    if timeout is not None:
        # The wall-clock budget covers the whole round; queueing behind a
        # finite worker count must not count against individual cells.
        budget = timeout * max(1, math.ceil(len(indices) / workers))
    pool = ProcessPoolExecutor(max_workers=max_workers)
    timed_out = False
    try:
        futures = {
            i: pool.submit(_execute_captured, specs[i]) for i in indices
        }
        start = time.monotonic()
        for i, future in futures.items():
            remaining = None
            if budget is not None:
                remaining = max(0.0, budget - (time.monotonic() - start))
            try:
                cell = future.result(timeout=remaining)
            except FutureTimeoutError:
                timed_out = True
                future.cancel()
                outcome[i] = RunFailure(
                    spec=specs[i],
                    error_type="TimeoutError",
                    message=f"no result within {timeout:g}s",
                    attempts=1,  # overwritten by the caller
                    timed_out=True,
                )
                continue
            except Exception as exc:  # noqa: BLE001 - salvage any pool error
                # Includes BrokenProcessPool: the worker died (e.g. by
                # signal) and every sibling future of this pool is lost
                # too; salvage them all from here.
                outcome[i] = _failure(specs[i], exc)
                continue
            outcome[i] = cell
    finally:
        pool.shutdown(wait=not timed_out, cancel_futures=True)
    return outcome


def retry_delay(
    backoff: float,
    round_no: int,
    jitter: float = 0.0,
    seed: int = 0,
) -> float:
    """Backoff sleep before retry round ``round_no`` (1-based).

    The base delay doubles per round (``backoff * 2**(round_no - 1)``);
    ``jitter`` widens it by a *seeded* multiplicative factor drawn from
    ``U[1, 1 + jitter]`` via a private numpy stream, so two sweeps with
    equal seeds sleep identically — no wall-clock entropy reaches the
    schedule (exactly the discipline the simulation layer follows).
    """
    base = backoff * 2 ** (round_no - 1)
    if jitter <= 0 or base <= 0:
        return base
    rng = np.random.default_rng(seed + round_no)
    return base * (1.0 + jitter * float(rng.random()))


def _retry_order(pending: Sequence[int], round_no: int, seed: int) -> list[int]:
    """Seeded permutation of the cells retried in ``round_no``.

    Retrying in a deterministic shuffle (rather than input order)
    decorrelates neighbouring cells that failed together — e.g. a batch
    that hit one wedged worker — while keeping the whole schedule a pure
    function of the seed.
    """
    rng = np.random.default_rng(seed + 1_000_003 * round_no)
    order = list(pending)
    rng.shuffle(order)
    return order


def run_parallel_salvage(
    specs: Sequence[RunSpec],
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.5,
    jitter: float = 0.0,
    seed: int = 0,
) -> list[Union[SimulationResult, RunFailure]]:
    """Run every spec, in-process or pooled, salvaging failures.

    Every spec yields exactly one entry, in input order: its slim
    :class:`~repro.sim.SimulationResult` on success, or a
    :class:`RunFailure` record (carrying the worker traceback and, for
    watchdog aborts, the structured diagnostics snapshot) once
    ``1 + retries`` attempts are exhausted.  A raising or hanging worker
    never aborts the sweep.

    Parameters
    ----------
    max_workers:
        Worker processes; ``1`` (or a single spec) runs in-process,
        ``None`` uses one per CPU.  A pooled run opens one fresh pool
        per retry round.
    timeout:
        Per-cell wall-clock timeout in seconds.  Cells of one retry
        round run concurrently, so the round's budget is ``timeout``
        scaled by the queueing factor ``ceil(cells / workers)``; a cell
        unfinished when the budget runs out is salvaged as timed out and
        its worker abandoned.  Only enforced on pooled runs — the serial
        path (``max_workers=1`` or a single spec) cannot preempt a
        stuck call and documents timeouts as unsupported there.
    retries:
        Extra attempts per failing cell (0 = one attempt only).
    backoff:
        Sleep before retry round ``r`` is ``backoff * 2**(r-1)`` seconds,
        widened by ``jitter``.
    jitter:
        Relative width of the seeded backoff jitter (0 = pure
        exponential); see :func:`retry_delay`.
    seed:
        Seed of the retry schedule: both the backoff jitter and the
        order in which failing cells are retried are pure functions of
        it, so a sweep's retry behaviour is bit-reproducible.
    """
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0 or None, got {timeout!r}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries!r}")
    if backoff < 0:
        raise ValueError(f"backoff must be >= 0, got {backoff!r}")
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter!r}")
    if not specs:
        return []

    n = len(specs)
    serial = max_workers == 1 or n == 1
    results: list[Optional[Union[SimulationResult, RunFailure]]] = [None] * n
    failures: dict[int, RunFailure] = {}
    attempts = [0] * n
    pending = list(range(n))
    for round_no in range(1 + retries):
        if not pending:
            break
        if round_no > 0:
            delay = retry_delay(backoff, round_no, jitter=jitter, seed=seed)
            if delay > 0:
                time.sleep(delay)
            pending = _retry_order(pending, round_no, seed)
        if serial:
            outcome = {i: _execute_captured(specs[i]) for i in pending}
        else:
            outcome = _pooled_round(specs, pending, max_workers, timeout)
        still_failing: list[int] = []
        for i in pending:
            attempts[i] += 1
            cell = outcome[i]
            if isinstance(cell, RunFailure):
                failures[i] = dataclasses.replace(cell, attempts=attempts[i])
                still_failing.append(i)
            else:
                results[i] = cell
        pending = still_failing
    for i in pending:
        results[i] = failures[i]
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
