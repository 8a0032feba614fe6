"""Coinciding releases and deadlines: one-pass due events vs the scalar loop.

With implicit deadlines every job's deadline coincides with its task's
next release, so an overloaded task set produces instants where several
deadlines (misses) and several releases are due together.  The batch
core handles all of them in one scatter pass; the scalar simulator pops
them one by one from its heap.  After every due-event phase both engines
must agree on the miss/completion counters and on the ready-queue
minimum (the EDF-earliest ready job), under both miss policies.
"""

from __future__ import annotations

import pytest

from repro.sim.batch import _BatchCore, _scenario_lane
from repro.sim.simulator import HarvestingRtSimulator
from repro.verify.batch_equivalence import compare_results
from repro.verify.scenarios import ScenarioSpec, TaskParams


def _overloaded(policy: str) -> ScenarioSpec:
    # Four tasks sharing one period: releases and deadlines coincide at
    # every multiple of 10, and U = 1.6 forces misses at most of them.
    return ScenarioSpec(
        seed=0,
        tasks=(
            TaskParams(period=10.0, wcet=4.0),
            TaskParams(period=10.0, wcet=4.0),
            TaskParams(period=10.0, wcet=4.0),
            TaskParams(period=20.0, wcet=4.0),
        ),
        source_kind="constant",
        capacity=500.0,
        miss_policy=policy,
        horizon=200.0,
    )


@pytest.mark.parametrize("policy", ["drop", "continue"])
@pytest.mark.parametrize("scheduler", ["edf", "ea-dvfs"])
def test_coinciding_events_match_scalar(monkeypatch, policy, scheduler):
    spec = _overloaded(policy)

    scalar_log = []
    process = HarvestingRtSimulator._process_due_events

    def scalar_phase(sim):
        process(sim)
        best = sim._ready.peek()
        scalar_log.append(
            (
                sim._t,
                sim._missed_count,
                sim._completed_count,
                None if best is None else best.name,
            )
        )

    monkeypatch.setattr(
        HarvestingRtSimulator, "_process_due_events", scalar_phase
    )
    scalar = spec.build_simulator(scheduler).run()
    monkeypatch.undo()

    lane = _scenario_lane(spec, scheduler)
    core = _BatchCore([lane])
    batch_log = []
    batch_process = core._process_due_events

    def batch_phase():
        batch_process()
        best = int(core.best_job[0])
        batch_log.append(
            (
                float(core.t[0]),
                int(core.missed_count[0]),
                int(core.completed_count[0]),
                None if best < 0 else lane.jobs[best].name,
            )
        )

    core._process_due_events = batch_phase
    core.run()

    assert batch_log == scalar_log
    assert compare_results(scalar, core.result(0)) == []
    # The scenario really stacks events: some instant judges two or more
    # deadlines at once, while releases land at that same instant.
    jumps = [b[1] - a[1] for a, b in zip(scalar_log, scalar_log[1:])]
    assert max(jumps) >= 2
