"""Batch-engine throughput on the *default-predictor* (profile) sweep.

Twin of ``bench_batch_throughput.py``, but on the grid that matters for
the flagship figures: the figure-8 capacity sweep under the default
``profile`` predictor.  Before the online predictors were vectorized,
this entire grid silently fell back to the scalar engine — the assert
below pins that it now runs fully vectorized, with the per-lane bin
walks and EWMA updates inside the SoA core.

Two speedups are computed (same methodology as the oracle bench):

* ``speedup_vs_live`` — live scalar cost (stratified subsample,
  extrapolated) over live batch cost; primary regression assert.
* ``speedup_vs_committed`` — committed scalar estimate from
  ``benchmarks/results/profile_throughput.json`` over live batch cost;
  loose order-of-magnitude guard, insensitive to CI hardware.

The refreshed baseline is written back to
``benchmarks/results/profile_throughput.json``.
"""

import json
import time
from pathlib import Path

from repro.analysis.parallel import RunSpec
from repro.experiments.common import PaperSetup
from repro.experiments.fig8_fig9 import DEFAULT_FRACTIONS, REFERENCE_CAPACITY
from repro.serialization import atomic_write_text
from repro.sim.batch import execute_runspecs
from repro.sim.simulator import SimulationResult

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "profile_throughput.json"

#: Seeds per (capacity, scheduler) cell — matches the oracle bench, so
#: the two baselines compare like for like.
N_SEEDS = 48

#: Every ``STRIDE``-th cell runs on the scalar engine to estimate the
#: full-grid scalar cost.  Spec order is capacity-major, so a stride of
#: 18 samples every capacity and both schedulers.
STRIDE = 18

_SCHEDULERS = ("lsa", "ea-dvfs")
_UTILIZATION = 0.4


def _grid() -> list[RunSpec]:
    # PaperSetup's default predictor_kind is "profile" — spelled out
    # anyway: this bench exists to keep the *default* path fast.
    setup = PaperSetup(horizon=2000.0, predictor_kind="profile")
    reference = REFERENCE_CAPACITY[_UTILIZATION]
    return [
        RunSpec(
            scheduler_name=name,
            utilization=_UTILIZATION,
            capacity=fraction * reference,
            seed=seed,
            setup=setup,
        )
        for fraction in DEFAULT_FRACTIONS
        for name in _SCHEDULERS
        for seed in range(N_SEEDS)
    ]


def test_profile_throughput(report):
    specs = _grid()
    n_cells = len(specs)

    # -- live batch: the whole grid through the SoA core -----------------
    started = time.perf_counter()
    batch_outcomes, fallback_reasons = execute_runspecs(specs)
    batch_total = time.perf_counter() - started
    fallbacks = sum(fallback_reasons.values())
    assert fallbacks == 0, (
        f"profile-predictor cells fell back to scalar: {fallback_reasons!r}"
    )
    assert all(
        isinstance(outcome, SimulationResult) for outcome in batch_outcomes
    )

    # -- live scalar: stratified subsample, extrapolated -----------------
    sample = list(range(0, n_cells, STRIDE))
    started = time.perf_counter()
    scalar_outcomes = []
    for i in sample:
        spec = specs[i]
        scalar_outcomes.append(spec.setup.run(
            spec.scheduler_name, spec.utilization, spec.capacity, spec.seed
        ))
    scalar_sample_total = time.perf_counter() - started
    scalar_per_cell = scalar_sample_total / len(sample)
    scalar_est_total = scalar_per_cell * n_cells

    # The engines must agree on the measured quantity (a cheap inline
    # sanity check; the real contract lives in the equivalence suite).
    for i, scalar_result in zip(sample, scalar_outcomes):
        batch_result = batch_outcomes[i]
        assert isinstance(batch_result, SimulationResult)
        assert batch_result.missed_count == scalar_result.missed_count, (
            f"engines disagree on cell {i}: batch "
            f"{batch_result.missed_count} vs scalar "
            f"{scalar_result.missed_count} misses"
        )

    speedup_vs_live = scalar_est_total / batch_total

    committed_scalar_est = None
    speedup_vs_committed = None
    if BASELINE_PATH.exists():
        committed = json.loads(BASELINE_PATH.read_text())
        if committed.get("cells") == n_cells:
            committed_scalar_est = committed.get("scalar_est_total_s")
    if committed_scalar_est is not None:
        speedup_vs_committed = committed_scalar_est / batch_total

    baseline = {
        "cells": n_cells,
        "horizon": 2000.0,
        "predictor": "profile",
        "utilization": _UTILIZATION,
        "batch_total_s": round(batch_total, 3),
        "batch_per_cell_ms": round(batch_total / n_cells * 1e3, 3),
        "batch_fallbacks": fallbacks,
        "scalar_sample_cells": len(sample),
        "scalar_per_cell_ms": round(scalar_per_cell * 1e3, 3),
        "scalar_est_total_s": round(scalar_est_total, 3),
        "speedup_vs_live": round(speedup_vs_live, 2),
    }
    if speedup_vs_committed is not None:
        baseline["speedup_vs_committed"] = round(speedup_vs_committed, 2)
    RESULTS_DIR.mkdir(exist_ok=True)
    atomic_write_text(
        BASELINE_PATH,
        json.dumps(baseline, indent=2, sort_keys=True) + "\n",
    )

    lines = [
        f"profile-predictor batch throughput ({n_cells} fig8-style "
        f"cells, horizon 2000)"
    ]
    for name, value in sorted(baseline.items()):
        lines.append(f"  {name:24} {value}")
    report("profile_throughput", "\n".join(lines))

    # The acceptance bar for vectorizing the online predictors was >=5x
    # on this grid; assert exactly that — the profile bin walk costs
    # more than the oracle's closed-form source integral, so this grid
    # sits closer to the bar than the oracle bench does.
    assert speedup_vs_live >= 5.0, (
        f"profile batch speedup collapsed: {speedup_vs_live:.1f}x vs "
        f"live scalar"
    )
    if speedup_vs_committed is not None:
        assert speedup_vs_committed >= 3.0, (
            f"batch engine slower than 1/3 of the committed scalar "
            f"estimate: {speedup_vs_committed:.1f}x"
        )
