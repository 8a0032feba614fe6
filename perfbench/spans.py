"""In-memory span tracing and the benchmark's own arithmetic.

A :class:`Tracer` wraps public functions of the program, from outside,
so that each call records a span (name, start, end, parent span, run
id).  Spans stay in memory and are written out, if at all, when the run
ends.  Wrappers are installed only for a traced run and removed after
it, so the untraced measurement runs the program unmodified.

The helpers below the tracer are the arithmetic the per-layer metrics
rest on: self time (a span minus what its children cover), the ``_tail``
percentile rule and an order-independent digest of outputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence


@dataclass(frozen=True)
class Span:
    """One timed call: ``[start, end]`` in ``time.perf_counter`` seconds."""

    ident: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts; patches functions with undo on uninstall.

    Single-threaded by design: the parent of a span is the innermost
    span open when it starts.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._next = 0
        self._undo: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        ident = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(ident)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                Span(ident, name, start, end, parent, self.run_id)
            )

    def traced(
        self,
        fn: Callable[..., Any],
        name: str,
        on_result: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per call.

        ``on_result(args, result)`` runs after the span closes, so what
        it counts is not charged to the call.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` bumping ``counts[name]`` per call, with no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``; :meth:`uninstall` restores the original.

        Patch the name the caller resolves: a module that did
        ``from x import f`` calls its own ``f``, not ``x.f``.
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str, **kwargs: Any) -> None:
        """Patch ``owner.attr`` with its :meth:`traced` version."""
        self.patch(owner, attr, self.traced(getattr(owner, attr), name, **kwargs))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, *names: str) -> float:
        """Summed duration of every span with one of ``names``."""
        return sum(s.duration for s in self.spans if s.name in names)

    def self_total(self, *names: str) -> float:
        """Summed self time of every span with one of ``names``."""
        selfs = self_times(self.spans)
        return sum(selfs[s.ident] for s in self.spans if s.name in names)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.ident):
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


class NullTracer:
    """The untraced run's stand-in: benchmark-side spans cost nothing."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.ident: s.duration - covered(children.get(s.ident, ()), s.start, s.end)
        for s in spans
    }


#: Percentiles a ``_tail`` metric may report, highest last.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def tail(samples: Sequence[float]) -> tuple[float, float, int]:
    """``(percentile, value, samples beyond it)`` for a ``_tail`` metric.

    The percentile is the highest on :data:`TAIL_LADDER` with at least
    ten samples strictly beyond its nearest-rank position.  With fewer
    than twenty samples no rung qualifies and the median is returned;
    the count beyond it says how little it rests on.  No samples gives
    ``(50.0, 0.0, 0)``.
    """
    n = len(samples)
    if n == 0:
        return 50.0, 0.0, 0
    ordered = sorted(samples)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= 10:
            chosen = pct
    rank = _rank(chosen, n)
    return chosen, ordered[rank - 1], n - rank


def p50(samples: Sequence[float]) -> float:
    """Nearest-rank median (0.0 for no samples), matching :func:`tail`."""
    if not samples:
        return 0.0
    return sorted(samples)[_rank(50.0, len(samples)) - 1]


def _rank(pct: float, n: int) -> int:
    return max(1, math.ceil(pct / 100.0 * n - 1e-9))


def digest(lines: Iterable[str]) -> str:
    """SHA-256 of the sorted lines: the same set in any order agrees."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
