"""Replication results and the factory-level replication reference.

:class:`ReplicatedRun` and :class:`CapacitySweepPoint` are the shapes
the capacity sweeps aggregate into
(:func:`repro.runtime.sweep.journaled_capacity_sweep` builds them).
:func:`run_replications` is the plain in-process reference the sweep
path is checked against; it is generic over a *run factory*::

    factory(scheduler_name: str, capacity: float, seed: int) -> SimulationResult

so examples and tests can plug in tiny synthetic factories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.metrics import AggregateMetrics, aggregate_results
from repro.sim.simulator import SimulationResult

__all__ = [
    "RunFactory",
    "ReplicatedRun",
    "CapacitySweepPoint",
    "run_replications",
]

RunFactory = Callable[[str, float, int], SimulationResult]


@dataclass(frozen=True)
class ReplicatedRun:
    """All replications of one (scheduler, capacity) cell."""

    scheduler_name: str
    capacity: float
    results: tuple[SimulationResult, ...]
    metrics: AggregateMetrics


@dataclass(frozen=True)
class CapacitySweepPoint:
    """One x-axis point of a miss-rate-vs-capacity curve."""

    capacity: float
    by_scheduler: dict[str, ReplicatedRun]

    def miss_rate(self, scheduler_name: str) -> float:
        """Pooled miss rate of one scheduler at this capacity."""
        return self.by_scheduler[scheduler_name].metrics.pooled_miss_rate


def run_replications(
    factory: RunFactory,
    scheduler_name: str,
    capacity: float,
    seeds: Sequence[int],
) -> ReplicatedRun:
    """Run one configuration across all seeds and aggregate."""
    if not seeds:
        raise ValueError("at least one seed is required")
    results = tuple(factory(scheduler_name, capacity, seed) for seed in seeds)
    return ReplicatedRun(
        scheduler_name=scheduler_name,
        capacity=capacity,
        results=results,
        metrics=aggregate_results(results),
    )
