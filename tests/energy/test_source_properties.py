"""Bit-exact properties shared by every energy source class.

The simulator asks a source for ``power_and_boundary(t)`` once per
segment, and ``EnergySource.energy`` walks boundaries with the same
single call.  Both must agree bit for bit with the plain
``power``/``next_boundary`` queries, and no query order may change what
a seeded source realizes.  Every source class in ``repro.energy.source``
and ``repro.faults.sources`` is covered, including the wrappers.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.source import (
    CompositeSource,
    ConstantSource,
    DayNightSource,
    EnergySource,
    MarkovWeatherSource,
    ScaledSource,
    SolarStochasticSource,
    TraceSource,
)
from repro.faults.sources import BlackoutSource, BrownoutSource, SensorDropoutSource
from repro.timeutils import EPSILON


def _bits(value: float) -> bytes:
    """Exact float identity (distinguishes -0.0 and every ulp)."""
    return struct.pack("<d", value)


def _trace_powers(seed: int) -> list[float]:
    return [float((seed * 7 + 3 * k) % 11) * 0.37 for k in range(23)]


#: name -> builder(seed); each call builds a fresh, identical source.
BUILDERS = {
    "constant": lambda seed: ConstantSource(1.0 + seed % 5),
    "solar": lambda seed: SolarStochasticSource(seed=seed),
    "solar-clamp-q0.3": lambda seed: SolarStochasticSource(
        seed=seed, rectify="clamp", quantum=0.3
    ),
    "solar-none-q2.5": lambda seed: SolarStochasticSource(
        seed=seed, rectify="none", quantum=2.5
    ),
    "daynight": lambda seed: DayNightSource(
        day_power=6.0, night_power=0.5, day_length=30.0, night_length=20.0,
        phase=float(seed % 50),
    ),
    "markov": lambda seed: MarkovWeatherSource(seed=seed, persistence=0.7),
    "markov-q0.7": lambda seed: MarkovWeatherSource(seed=seed, quantum=0.7),
    "trace": lambda seed: TraceSource(_trace_powers(seed)),
    "trace-cyclic-q0.25": lambda seed: TraceSource(
        _trace_powers(seed), quantum=0.25, cyclic=True
    ),
    "scaled": lambda seed: ScaledSource(
        SolarStochasticSource(seed=seed), gain=0.8, offset=-0.5
    ),
    "composite": lambda seed: CompositeSource(
        [
            SolarStochasticSource(seed=seed, quantum=1.5),
            DayNightSource(day_power=2.0, day_length=3.0, night_length=5.0),
            TraceSource(_trace_powers(seed), quantum=0.75),
        ]
    ),
    "blackout": lambda seed: BlackoutSource(
        SolarStochasticSource(seed=seed), seed=seed + 1,
        start_probability=0.2, min_duration=1, max_duration=4,
    ),
    "brownout": lambda seed: BrownoutSource(
        MarkovWeatherSource(seed=seed), seed=seed + 2,
        start_probability=0.3, quantum=0.6,
    ),
    "dropout": lambda seed: SensorDropoutSource(
        TraceSource(_trace_powers(seed), quantum=0.5, cyclic=True),
        seed=seed + 3, drop_probability=0.4, quantum=1.25,
    ),
}

names = st.sampled_from(sorted(BUILDERS))
seeds = st.integers(min_value=0, max_value=2**16)
times = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(names, seeds, st.lists(times, min_size=1, max_size=20))
def test_power_and_boundary_is_power_then_boundary(name, seed, ts):
    paired = BUILDERS[name](seed)
    plain = BUILDERS[name](seed)
    for t in ts:
        power, boundary = paired.power_and_boundary(t)
        assert _bits(power) == _bits(plain.power(t))
        assert _bits(boundary) == _bits(plain.next_boundary(t))
        # The same instance answers the plain queries identically too.
        assert _bits(power) == _bits(paired.power(t))
        assert _bits(boundary) == _bits(paired.next_boundary(t))


def _two_call_walk(source, t0, t1):
    """The boundary walk with separate ``next_boundary``/``power`` calls."""
    total = 0.0
    t = t0
    while t < t1 - EPSILON:
        boundary = source.next_boundary(t)
        segment_end = min(boundary, t1)
        total += source.power(t) * (segment_end - t)
        t = segment_end
    return total


@settings(max_examples=200, deadline=None)
@given(
    names,
    seeds,
    st.integers(min_value=0, max_value=150),
    st.floats(min_value=0.0, max_value=0.999),
    st.integers(min_value=0, max_value=60),
    st.floats(min_value=-2 * EPSILON, max_value=2 * EPSILON),
)
def test_energy_matches_two_call_walk(
    name, seed, start_k, start_frac, span_k, end_nudge
):
    walked = BUILDERS[name](seed)
    reference = BUILDERS[name](seed)
    # Sources on a quantum grid expose it; the others get a unit grid,
    # which still starts windows mid-segment.
    q = getattr(walked, "quantum", 1.0)
    # Start mid-quantum (or on a boundary); end within EPSILON of one.
    t0 = (start_k + start_frac) * q
    t1 = max(t0, (start_k + span_k) * q + end_nudge)
    # EnergySource.energy explicitly: ConstantSource overrides it with
    # its closed form.
    expected = _two_call_walk(reference, t0, t1)
    assert _bits(EnergySource.energy(walked, t0, t1)) == _bits(expected)
    # Ending strictly inside a quantum as well.
    t1_inner = t1 + 0.5 * q
    assert _bits(EnergySource.energy(walked, t0, t1_inner)) == _bits(
        _two_call_walk(reference, t0, t1_inner)
    )


@settings(max_examples=100, deadline=None)
@given(names, seeds, st.lists(times, min_size=2, max_size=25), st.randoms())
def test_query_order_does_not_change_realization(name, seed, ts, rnd):
    forward = BUILDERS[name](seed)
    shuffled = BUILDERS[name](seed)
    expected = {t: forward.power_and_boundary(t) for t in sorted(ts)}
    order = list(ts)
    rnd.shuffle(order)
    for i, t in enumerate(order):
        if i % 3 == 0:
            # Energy integrals extend lazy state on their own.
            shuffled.energy(0.0, t)
        power, boundary = shuffled.power_and_boundary(t)
        assert _bits(power) == _bits(expected[t][0])
        assert _bits(boundary) == _bits(expected[t][1])
    end = max(ts)
    assert _bits(shuffled.energy(0.0, end)) == _bits(forward.energy(0.0, end))


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeError,
    reason="known defect: DayNightSource.next_boundary reports each edge "
    "EPSILON early, and with day/night lengths that are not exact in "
    "binary the boundary walk stalls once rounding puts the position just "
    "below the day/night edge",
)
def test_daynight_energy_walk_with_inexact_lengths():
    source = DayNightSource(
        day_power=6.0, night_power=0.5, day_length=7.3, night_length=4.1
    )
    source.energy(0.0, 42.0)
