"""Crash-consistent sweep runtime.

Every reproduced figure/table is a long multi-process sweep; this
package makes those sweeps survive crashes, kills and budget limits:

* :mod:`repro.runtime.journal` — an append-only, fsync'd,
  content-addressed **result journal** keyed by ``(spec_hash,
  scheduler_name, engine_version)``, with CRC-framed records and
  torn-write recovery on open;
* :mod:`repro.runtime.supervisor` — a **worker supervisor** layering
  checkpoint/resume, deterministic seeded retry backoff, poisoned-task
  quarantine and wall-clock/memory budgets over one cell executor
  (:func:`repro.analysis.parallel.run_parallel_salvage`); on the batch
  engine the vectorized core (:func:`repro.sim.batch.execute_runspecs`)
  first answers the cells it covers and the executor runs the rest;
* :mod:`repro.runtime.sweep` — the one sweep path every experiment
  uses (:func:`~repro.runtime.sweep.run_journaled_sweep` and its grid
  helper :func:`~repro.runtime.sweep.journaled_capacity_sweep`), plus
  the ``$REPRO_JOURNAL`` / ``$REPRO_ENGINE`` wiring that makes every
  experiment resumable and engine-selectable without code changes.

The chaos harness exercising all of this lives in
:mod:`repro.faults.chaos`; format and semantics are documented in
``docs/runtime.md``.
"""

from repro.runtime.journal import (
    ENGINE_VERSION,
    JournalError,
    JournalInfo,
    JournalKey,
    ResultJournal,
    journal_key,
    result_from_payload,
    result_to_payload,
    spec_hash,
)
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

__all__ = [
    "ENGINE_VERSION",
    "JournalError",
    "JournalInfo",
    "JournalKey",
    "ResultJournal",
    "SupervisorPolicy",
    "SweepFailedError",
    "SweepReport",
    "journal_from_env",
    "journal_key",
    "journaled_capacity_sweep",
    "result_from_payload",
    "result_to_payload",
    "run_journaled_sweep",
    "run_supervised",
    "spec_hash",
]
