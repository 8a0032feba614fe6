"""Differential tests: batch predictor kernels vs the scalar predictors.

The doctrine (``docs/batch-simulation.md``): every kernel in
:mod:`repro.energy.vectorized` performs the same IEEE float64 operations
in the same order as its scalar counterpart, so estimates, bin walks and
predicted energies must be *bit-identical* — not merely close.  All
assertions here are exact equality on floats by design.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.energy.predictor import (
    LastValuePredictor,
    MeanPowerPredictor,
    ProfilePredictor,
    profile_segments,
)
from repro.energy.vectorized import (
    _batch_walk,
    _libm_pow,
    batch_last_observe,
    batch_mean_observe,
    batch_profile_observe,
    batch_profile_predict,
    batch_span_predict,
)
from repro.timeutils import EPSILON

# Heterogeneous lane parameter pools (mirrors the worlds the batch
# engine actually builds: paper setup, scenario pool, unit scales).
_PERIODS = (10.0, 690.8861930260637, 3.3, 1e3, 0.125)
_N_BINS = (1, 4, 16, 64)
_ALPHAS = (0.3, 0.05, 1.0)
_INITIALS = (0.0, 1.5)


def _window_strategy(max_duration=900.0):
    # Observation windows: normal, sub-EPSILON and zero durations, so
    # the scalar observe gate and the batch pre-filter stay in lockstep.
    # Profile tests cap the duration: a lane with a tiny period walks
    # one ladder step per bin crossing, so long windows are O(span/bw).
    return st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2000.0),
            st.one_of(
                st.floats(min_value=1e-6, max_value=max_duration),
                st.floats(min_value=0.0, max_value=1e-10),
            ),
            st.floats(min_value=-1.0, max_value=8.0),
        ),
        min_size=1,
        max_size=12,
    )


class TestLibmPow:
    def test_matches_python_pow_bitwise(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(0.0, 1.0, size=5000)
        expo = rng.uniform(0.0, 30.0, size=5000)
        out = _libm_pow(base, expo)
        for b, e, o in zip(base.tolist(), expo.tolist(), out.tolist()):
            assert o == b**e

    def test_array_power_is_not_trusted(self):
        # Documents WHY _libm_pow exists: numpy's vectorized np.power
        # takes a SIMD path that deviates from libm pow by one ulp on a
        # few percent of inputs (observed on numpy 2.4.6).  If this test
        # ever fails, np.power became bit-compatible and _libm_pow can
        # be retired.
        rng = np.random.default_rng(1)
        base = rng.uniform(0.0, 1.0, size=20000)
        expo = rng.uniform(0.0, 30.0, size=20000)
        simd = np.power(base, expo)
        libm = _libm_pow(base, expo)
        assert (simd != libm).any()


class TestSpanPredict:
    def test_empty_window_contract(self):
        estimate = np.asarray([2.0, 2.0, 2.0])
        t0 = np.asarray([5.0, 5.0, 5.0])
        t1 = np.asarray([5.0, 5.0 + 1e-10, 6.0])
        out = batch_span_predict(estimate, t0, t1)
        assert out[0] == 0.0
        assert out[1] == 0.0
        assert out[2] == 2.0 * (t1[2] - t0[2])

    @given(windows=_window_strategy())
    @settings(max_examples=60, deadline=None)
    def test_mean_lanes_bit_equal_scalar(self, windows):
        lanes = [
            MeanPowerPredictor(initial_power=init, alpha=alpha)
            for alpha in _ALPHAS
            for init in _INITIALS
        ]
        n = len(lanes)
        estimate = np.asarray([p.estimate for p in lanes])
        alpha = np.asarray([p.alpha for p in lanes])
        for t0, dur, power in windows:
            t1 = t0 + dur
            energy = power * dur
            for p in lanes:
                p.observe(t0, t1, energy)
            duration = np.full(n, t1 - t0)
            obs = duration > EPSILON  # the batch caller's pre-filter
            if obs.any():
                estimate[obs] = batch_mean_observe(
                    estimate[obs],
                    alpha[obs],
                    duration[obs],
                    np.full(n, energy)[obs],
                )
            for i, p in enumerate(lanes):
                assert estimate[i] == p.estimate
        q0 = np.full(n, 3.0)
        q1 = np.full(n, 47.5)
        predicted = batch_span_predict(estimate, q0, q1)
        for i, p in enumerate(lanes):
            assert predicted[i] == p.predict_energy(3.0, 47.5)

    @given(windows=_window_strategy())
    @settings(max_examples=60, deadline=None)
    def test_last_lanes_bit_equal_scalar(self, windows):
        lanes = [LastValuePredictor(initial_power=init) for init in _INITIALS]
        n = len(lanes)
        estimate = np.asarray([p.estimate for p in lanes])
        for t0, dur, power in windows:
            t1 = t0 + dur
            energy = power * dur
            for p in lanes:
                p.observe(t0, t1, energy)
            duration = np.full(n, t1 - t0)
            obs = duration > EPSILON
            if obs.any():
                estimate[obs] = batch_last_observe(
                    duration[obs], np.full(n, energy)[obs]
                )
            for i, p in enumerate(lanes):
                assert estimate[i] == p.estimate


class _ProfileLanes:
    """Scalar ProfilePredictors + their SoA mirror, padded to max_bins."""

    def __init__(self):
        self.scalars = [
            ProfilePredictor(
                period=period, n_bins=nb, alpha=alpha, initial_power=init
            )
            for period, nb, alpha, init in zip(
                _PERIODS * 4,
                _N_BINS * 5,
                _ALPHAS * 7,
                _INITIALS * 10,
            )
        ]
        n = len(self.scalars)
        self.period = np.asarray([p.period for p in self.scalars])
        self.bin_width = np.asarray([p.bin_width for p in self.scalars])
        self.n_bins = np.asarray(
            [p.n_bins for p in self.scalars], dtype=np.int64
        )
        self.alpha = np.asarray([p.alpha for p in self.scalars])
        max_bins = int(self.n_bins.max())
        self.estimates = np.zeros((n, max_bins))
        self.seen = np.zeros((n, max_bins), dtype=np.bool_)
        for i, p in enumerate(self.scalars):
            self.estimates[i, : p.n_bins] = p.bin_estimates()
            self.seen[i, : p.n_bins] = p.bin_seen()

    def observe(self, t0: float, t1: float, energy: float) -> None:
        for p in self.scalars:
            p.observe(t0, t1, energy)
        n = len(self.scalars)
        a0 = np.full(n, t0)
        a1 = np.full(n, t1)
        obs = a1 - a0 > EPSILON  # the batch caller's pre-filter
        if obs.any():
            rows = np.flatnonzero(obs)
            batch_profile_observe(
                a0[rows],
                a1[rows],
                self.period[rows],
                self.bin_width[rows],
                self.n_bins[rows],
                self.alpha[rows],
                np.full(n, energy)[rows],
                self.estimates,
                self.seen,
                rows,
            )

    def assert_state_bit_equal(self) -> None:
        for i, p in enumerate(self.scalars):
            scalar_est = p.bin_estimates()
            scalar_seen = p.bin_seen()
            for b in range(p.n_bins):
                assert self.estimates[i, b] == scalar_est[b]
                assert bool(self.seen[i, b]) == bool(scalar_seen[b])

    def assert_predict_bit_equal(self, t0: float, t1: float) -> None:
        n = len(self.scalars)
        predicted = batch_profile_predict(
            np.full(n, t0),
            np.full(n, t1),
            self.period,
            self.bin_width,
            self.n_bins,
            self.estimates,
            np.arange(n),
        )
        for i, p in enumerate(self.scalars):
            assert predicted[i] == p.predict_energy(t0, t1)


class TestProfileKernels:
    @given(windows=_window_strategy(max_duration=10.0))
    @settings(max_examples=25, deadline=None)
    def test_heterogeneous_lanes_bit_equal_scalar(self, windows):
        lanes = _ProfileLanes()
        for t0, dur, power in windows:
            lanes.observe(t0, t0 + dur, power * dur)
            lanes.assert_state_bit_equal()
        lanes.assert_predict_bit_equal(1.0, 1.0)  # empty window -> 0.0
        lanes.assert_predict_bit_equal(2.5 - 1e-15, 5.0)  # sliver start
        lanes.assert_predict_bit_equal(0.0, 40.0)  # many small-period cycles

    def test_window_spanning_multiple_periods(self):
        # Spans longer than the period revisit bins; the repeated EWMA
        # updates must land in walk order, exactly like the scalar loop.
        lanes = _ProfileLanes()
        lanes.observe(0.0, 300.0, 450.0)
        lanes.assert_state_bit_equal()
        lanes.assert_predict_bit_equal(0.5, 250.0)

    def test_sub_epsilon_lanes_untouched(self):
        # Windows no longer than EPSILON predict 0.0 and (behind the
        # caller's pre-filter) leave the bin state untouched — the
        # scalar empty-window gate.
        t0 = np.asarray([5.0, 5.0])
        t1 = np.asarray([5.0 + 1e-10, 5.0])
        period = np.asarray([10.0, 10.0])
        bin_width = np.asarray([2.5, 2.5])
        n_bins = np.asarray([4, 4], dtype=np.int64)
        estimates = np.full((2, 4), 3.0)
        out = batch_profile_predict(
            t0, t1, period, bin_width, n_bins, estimates, np.arange(2)
        )
        assert out.tolist() == [0.0, 0.0]


def _nudged_start(t0, nudge, period, bin_width):
    """``t0`` moved onto a bin edge, then ``nudge`` ulps off it.

    ``nudge=None`` keeps ``t0`` where it is.
    """
    if nudge is None:
        return t0
    edge = math.floor((t0 % period) / bin_width) * bin_width
    base = (t0 // period) * period + edge
    for _ in range(abs(nudge)):
        base = math.nextafter(base, math.inf if nudge > 0 else -math.inf)
    return max(0.0, base)


def _walk_segments(t0, t1, period, bin_width, n_bins):
    """Each lane's ``(bin, duration)`` list, read off the batch walk."""
    segments = [[] for _ in range(t0.shape[0])]
    for at, index, duration, emit in _batch_walk(
        t0, t1 - t0, period, bin_width, n_bins
    ):
        # Row-major over the transposed block: lane by lane, in step order.
        for lane, step in zip(*np.nonzero(emit.T)):
            segments[at[lane]].append(
                (int(index[step, lane]), float(duration[step, lane]))
            )
    return segments


class TestProfileWalkDifferential:
    """The lane-vectorized bin walk against the scalar ``ProfilePredictor``.

    Every lane gets its own predictor shape and window; starts sit
    anywhere, or on or a few ulps around a bin edge, spans reach several
    periods, and the kernels address the bin tables through a shuffled
    row map.
    """

    @given(
        lanes=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1000.0),
                st.floats(min_value=1e-8, max_value=120.0),
                st.one_of(st.none(), st.integers(min_value=-3, max_value=3)),
                st.sampled_from([10.0, 37.0, 690.9, 3.3]),
                st.sampled_from([1, 2, 4, 8, 48, 64]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    # Rounding puts this start on its bin's upper edge: the first ladder
    # edge is exactly 0.0, so the walk skips step 0 and starts in bin 37.
    @example(lanes=[(533.0, 1.0, 0, 690.9, 48)])
    # One bin (the walk wraps onto bin 0 every step), a tiny period
    # (a window of many periods), and starts nudged off an edge.
    @example(
        lanes=[
            (12.5, 95.0, 0, 10.0, 1),
            (0.3, 2.0, 2, 0.125, 64),
            (400.0, 60.0, -3, 37.0, 8),
            (533.0, 1.0, 1, 690.9, 48),
        ]
    )
    def test_lanes_bit_equal_scalar(self, lanes):
        scalars = []
        windows = []
        for k, (t0, span, nudge, period, n_bins) in enumerate(lanes):
            p = ProfilePredictor(
                period=period, n_bins=n_bins, alpha=_ALPHAS[k % 3],
                initial_power=_INITIALS[k % 2],
            )
            # Distinct per-bin history, so every bin weight matters.
            for step in range(3):
                a = step * period / 3.0
                p.observe(a, a + period / 2.0, (step + 1.5) * period)
            start = _nudged_start(t0, nudge, period, p.bin_width)
            scalars.append(p)
            windows.append((start, start + span))
        n = len(scalars)
        rows = np.arange(n)[::-1].copy()  # lane i lives in table row n-1-i
        max_bins = max(p.n_bins for p in scalars)
        estimates = np.zeros((n, max_bins))
        seen = np.zeros((n, max_bins), dtype=np.bool_)
        for i, p in enumerate(scalars):
            estimates[rows[i], : p.n_bins] = p.bin_estimates()
            seen[rows[i], : p.n_bins] = p.bin_seen()
        t0 = np.asarray([w[0] for w in windows])
        t1 = np.asarray([w[1] for w in windows])
        period = np.asarray([p.period for p in scalars])
        bin_width = np.asarray([p.bin_width for p in scalars])
        n_bins = np.asarray([p.n_bins for p in scalars], dtype=np.int64)
        alpha = np.asarray([p.alpha for p in scalars])

        walked = _walk_segments(t0, t1, period, bin_width, n_bins)
        for i, p in enumerate(scalars):
            assert walked[i] == list(
                profile_segments(*windows[i], p.period, p.bin_width, p.n_bins)
            )

        predicted = batch_profile_predict(
            t0, t1, period, bin_width, n_bins, estimates, rows
        )
        for i, p in enumerate(scalars):
            assert predicted[i] == p.predict_energy(*windows[i])

        power = 2.75
        energy = power * (t1 - t0)
        live = np.flatnonzero(t1 - t0 > EPSILON)  # the caller's gate
        batch_profile_observe(
            t0[live], t1[live], period[live], bin_width[live], n_bins[live],
            alpha[live], energy[live], estimates, seen, rows[live],
        )
        for i, p in enumerate(scalars):
            p.observe(*windows[i], float(energy[i]))
            assert estimates[rows[i], : p.n_bins].tolist() == (
                p.bin_estimates().tolist()
            )
            assert seen[rows[i], : p.n_bins].tolist() == p.bin_seen().tolist()


class TestMeanObserveEdgeCases:
    def test_negative_energy_clamped(self):
        scalar = MeanPowerPredictor(initial_power=2.0, alpha=0.3)
        scalar.observe(0.0, 1.0, -5.0)
        out = batch_mean_observe(
            np.asarray([2.0]),
            np.asarray([0.3]),
            np.asarray([1.0]),
            np.asarray([-5.0]),
        )
        assert out[0] == scalar.estimate

    def test_alpha_one_jumps_to_observation(self):
        out = batch_mean_observe(
            np.asarray([7.0]),
            np.asarray([1.0]),
            np.asarray([2.0]),
            np.asarray([6.0]),
        )
        assert out[0] == 3.0
