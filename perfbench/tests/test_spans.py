"""Tests for the benchmark's own arithmetic (``perfbench/spans.py``).

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Span, Tracer, digest, p50, self_times, tail  # noqa: E402


def _span(ident, start, end, parent=None, name="x"):
    return Span(ident, name, start, end, parent, "run")


@pytest.mark.parametrize(
    "n, pct, beyond",
    [
        (0, 50.0, 0),
        (5, 50.0, 2),      # under twenty samples: median, flagged by count
        (19, 50.0, 9),
        (20, 50.0, 10),
        (99, 50.0, 49),    # p90 would leave 9 beyond
        (100, 90.0, 10),
        (864, 90.0, 86),   # p99 would leave 8 beyond
        (1000, 99.0, 10),
        (20000, 99.9, 20),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    samples = [float(i) for i in range(n)]
    got_pct, value, got_beyond = tail(samples)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert sum(1 for s in samples if s > value) == beyond


def test_tail_and_p50_ignore_sample_order():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 30
    assert tail(samples) == tail(sorted(samples))
    assert p50(samples) == 3.0


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 5.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),  # grandchild: already inside 1
        _span(3, 6.0, 7.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(1.0)


def test_self_time_with_adjacent_and_overlapping_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 2.0, 4.0, parent=0),
        _span(2, 4.0, 6.0, parent=0),  # adjacent to 1
        _span(3, 5.0, 6.5, parent=0),  # overlaps 2
        _span(4, 9.5, 11.0, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.5 - 0.5)


def test_tracer_records_parents_and_restores_patches():
    class Owner:
        def work(self, x):
            return inner(x) + 1

    def inner(x):
        return x * 2

    module = type(sys)("fake")
    module.inner = inner
    work = Owner.__dict__["work"]
    tracer = Tracer("run-1")
    tracer.wrap(Owner, "work", "outer")
    tracer.wrap(module, "inner", "inner")
    assert Owner.__dict__["work"] is not work
    assert module.inner is not inner
    tracer.uninstall()
    assert Owner.__dict__["work"] is work
    assert module.inner is inner

    tracer = Tracer("run-2")
    tracer.wrap(Owner, "work", "outer")
    with tracer.span("body"):
        assert Owner().work(3) == 7
    tracer.uninstall()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].parent == by_name["body"].ident
    assert {s.run_id for s in tracer.spans} == {"run-2"}


def test_digest_is_stable_under_reordering():
    lines = ["lsa|0.4|12.5|3|7", "ea-dvfs|0.4|12.5|3|2", "lsa|0.4|25.0|3|1"]
    assert digest(lines) == digest(reversed(lines))
    assert digest(lines) == digest(iter(sorted(lines)))
    assert digest(lines) != digest(lines[:2])
    assert digest(lines) != digest(lines + [lines[0]])
