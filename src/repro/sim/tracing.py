"""Typed trace recording for simulation runs.

Simulations optionally record a :class:`Trace`: an append-only list of
:class:`TraceRecord` entries with a ``kind`` tag, a timestamp and a payload
of keyword fields.  Traces support filtering by kind and export of numeric
fields to numpy arrays, which is what the experiment harness uses to build
the remaining-energy time series of Figures 6 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

__all__ = ["TraceRecord", "Trace", "TraceKind"]


class TraceKind:
    """String constants for the record kinds emitted by the simulator."""

    ENERGY = "energy"  # stored energy snapshot: stored, capacity, harvest_power
    JOB_RELEASE = "job_release"
    JOB_START = "job_start"
    JOB_PREEMPT = "job_preempt"
    JOB_COMPLETE = "job_complete"
    JOB_MISS = "job_miss"
    FREQ_CHANGE = "freq_change"
    STALL = "stall"
    OVERFLOW = "overflow"

    ALL: tuple[str, ...] = (
        ENERGY,
        JOB_RELEASE,
        JOB_START,
        JOB_PREEMPT,
        JOB_COMPLETE,
        JOB_MISS,
        FREQ_CHANGE,
        STALL,
        OVERFLOW,
    )


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped trace entry."""

    time: float
    kind: str
    fields: Mapping[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class Trace:
    """Append-only collection of :class:`TraceRecord` entries.

    A trace may restrict the kinds it stores (``kinds=...``) so that long
    simulations do not accumulate records the caller will never read.
    """

    def __init__(self, kinds: Optional[Iterable[str]] = None) -> None:
        self._records: list[TraceRecord] = []
        self._kinds: Optional[frozenset[str]] = (
            frozenset(kinds) if kinds is not None else None
        )

    # -- recording --------------------------------------------------------

    def accepts(self, kind: str) -> bool:
        """Whether records of ``kind`` are stored by this trace."""
        return self._kinds is None or kind in self._kinds

    @property
    def enabled(self) -> bool:
        """Whether this trace stores records of any kind."""
        return self._kinds is None or bool(self._kinds)

    def record(self, time: float, kind: str, **fields: Any) -> None:
        """Append a record (no-op when ``kind`` is filtered out)."""
        if not self.accepts(kind):
            return
        self._records.append(TraceRecord(time=time, kind=kind, fields=fields))

    # -- access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    @property
    def records(self) -> Sequence[TraceRecord]:
        """All records, in emission order."""
        return tuple(self._records)

    def by_kind(self, kind: str) -> list[TraceRecord]:
        """All records of one kind, in emission order."""
        return [r for r in self._records if r.kind == kind]

    def filter(self, predicate: Callable[[TraceRecord], bool]) -> list[TraceRecord]:
        """Records satisfying an arbitrary predicate."""
        return [r for r in self._records if predicate(r)]

    def times(self, kind: Optional[str] = None) -> np.ndarray:
        """Timestamps of all records (optionally of one kind) as an array."""
        source = self._records if kind is None else self.by_kind(kind)
        return np.asarray([r.time for r in source], dtype=float)

    def series(self, kind: str, field_name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` arrays for a numeric field of one kind.

        Records lacking the field are skipped.
        """
        times: list[float] = []
        values: list[float] = []
        for record in self.by_kind(kind):
            if field_name in record.fields:
                times.append(record.time)
                values.append(float(record.fields[field_name]))
        return np.asarray(times, dtype=float), np.asarray(values, dtype=float)

    def count(self, kind: str) -> int:
        """Number of records of one kind."""
        return sum(1 for r in self._records if r.kind == kind)

    def clear(self) -> None:
        """Drop all stored records (the kind filter is kept)."""
        self._records.clear()
