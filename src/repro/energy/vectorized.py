"""Vectorized predictor kernels mirroring :mod:`repro.energy.predictor`.

The batch engine (:mod:`repro.sim.batch`) keeps per-lane predictor state
in structure-of-arrays form — one EWMA scalar per lane for the mean and
last-value predictors, one bin-estimate row per lane for the profile
predictor.  The kernels here update and query that state for many lanes
at once.

Bit-exactness doctrine (see ``docs/batch-simulation.md``): every kernel
performs the *same* IEEE float64 operations in the *same* order as its
scalar counterpart in :mod:`repro.energy.predictor`.  The elementwise
span kernels lean on pinned numpy/libm equivalences
(``TestNumpyAccumulationContract`` in
``tests/sched/test_vectorized_kernels.py``), with one deliberate
exception: numpy's *array* ``np.power`` uses a SIMD implementation that
differs from libm ``pow`` (hence from CPython's ``**``) by one ulp on
~5% of inputs (observed on numpy 2.4.6), so the EWMA decay factors go
through :func:`_libm_pow`, an element-wise libm ``pow``.

The profile kernels run the cyclic bin walk of
:func:`repro.energy.predictor.profile_segments` across lanes at once
(:func:`_batch_walk`): ladder step ``j`` performs the scalar walk's
``j``-th iteration element-wise for every lane still walking — the same
edge formula, the same ``edge > covered`` skip, the same tail snap.
Step 0 runs for all lanes (most windows end inside their first bin);
the lanes that go on walk in steps-by-lanes blocks and drop out as their
walk ends.  A lane yields at most one segment per step, so per-lane
contributions (predicted-energy sums, EWMA bin updates) land strictly
left to right, in walk order, exactly like the scalar loops.
``profile_segments`` is re-exported as the scalar reference walk: the
differential tests compare against it, and the repository benchmark's
tracer counts calls to it under this name.

The kernels take *dense* per-lane arrays: the caller extracts the lanes
that participate (e.g. only lanes whose elapsed segment exceeds
``EPSILON`` get an observe, matching the scalar gate).  The profile
kernels address the caller's full ``(lanes, max_bins)`` bin tables by
row instead of copying them.
"""

# repro: float-doctrine -- the RPR4xx bit-exactness rules apply here.

from __future__ import annotations

import math
from typing import Iterator

import numpy as np
import numpy.typing as npt

from repro.energy.predictor import profile_segments
from repro.timeutils import EPSILON

__all__ = [
    "batch_span_predict",
    "batch_mean_observe",
    "batch_last_observe",
    "batch_profile_predict",
    "batch_profile_observe",
    "profile_segments",
]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]
BoolArray = npt.NDArray[np.bool_]


def _libm_pow(base: FloatArray, expo: FloatArray) -> FloatArray:
    """Element-wise libm ``pow``, bit-identical to CPython's ``**``.

    numpy's vectorized ``np.power`` is *not* (one-ulp SIMD deviations),
    which would leak into the EWMA state and break the doctrine — so the
    decay factors pay for one ``math.pow`` call per element.  This sits
    on the profile observe hot path (every ladder step of every moving
    lane), so the calls run as ``map`` over plain floats into
    ``np.fromiter``, which measured about a third faster than an object
    ufunc (``np.frompyfunc``) or a list comprehension at 300-900
    elements.
    """
    result: FloatArray = np.fromiter(
        map(math.pow, base.tolist(), expo.tolist()),
        np.float64,
        count=base.shape[0],
    )
    return result


def batch_span_predict(estimate: FloatArray, t0: FloatArray, t1: FloatArray) -> FloatArray:
    """Element-wise ``MeanPowerPredictor``/``LastValuePredictor`` predict.

    Mirrors the scalar empty-window contract: windows no longer than
    ``EPSILON`` predict ``0.0``; otherwise ``estimate * (t1 - t0)``.
    """
    span = t1 - t0
    result: FloatArray = np.where(span <= EPSILON, 0.0, estimate * span)
    return result


def batch_mean_observe(
    estimate: FloatArray, alpha: FloatArray, duration: FloatArray, energy: FloatArray
) -> FloatArray:
    """Element-wise :meth:`MeanPowerPredictor.observe` (returns new estimate).

    Callers must pre-filter to ``duration > EPSILON`` (the scalar gate).
    """
    mean_power = np.maximum(0.0, energy / duration)
    keep = _libm_pow(1.0 - alpha, duration)
    result: FloatArray = keep * estimate + (1.0 - keep) * mean_power
    return result


def batch_last_observe(duration: FloatArray, energy: FloatArray) -> FloatArray:
    """Element-wise :meth:`LastValuePredictor.observe` (returns new estimate).

    Callers must pre-filter to ``duration > EPSILON`` (the scalar gate).
    """
    result: FloatArray = np.maximum(0.0, energy / duration)
    return result


def _batch_snap_tail(covered: FloatArray, span: FloatArray) -> FloatArray:
    """Element-wise :func:`repro.energy.predictor._snap_tail`.

    Nudges the final segment duration by ulps until ``covered + d ==
    span`` exactly; already-exact elements stop being nudged, so each
    element follows the scalar loop bit-for-bit (``np.nextafter``
    matches ``math.nextafter``, pinned).
    """
    d = span - covered
    for _ in range(8):
        total = covered + d
        off = total != span
        if not off.any():
            break
        nudged = np.nextafter(d, np.where(total < span, np.inf, -np.inf))
        d = np.where(off, nudged, d)
    return d


#: Most ladder steps materialised per walk block; bounds the memory of
#: windows that span many periods.
_MAX_BLOCK = 64


def _batch_walk(
    t0: FloatArray,
    span: FloatArray,
    period: FloatArray,
    bin_width: FloatArray,
    n_bins: IntArray,
) -> Iterator[tuple[IntArray, IntArray, FloatArray, BoolArray]]:
    """:func:`profile_segments` for many lanes, as blocks of ladder steps.

    Yields ``(at, index, duration, emit)``: ``at`` are the positions
    (into the input arrays) of the lanes still walking, and row ``r`` of
    the ``(steps, len(at))`` matrices is their ladder step ``j0 + r``,
    where ``j0`` counts the steps of earlier blocks.  ``emit`` marks the
    steps that yield a segment, with its bin in ``index`` and its length
    in ``duration``; a lane's segments in row order are exactly the
    scalar walk's, in the scalar's order.

    Step ``j`` repeats the scalar walk's ``j``-th iteration element-wise:
    ``edge = (first + j + 1) * bin_width - position``; the step whose
    edge first reaches ``span`` yields the tail snapped with
    :func:`_batch_snap_tail`; earlier steps yield ``edge - covered``
    when ``edge > covered``, and ``covered`` accumulates the yielded
    durations left to right (one row at a time, since each update
    rounds).  Lanes whose window is no longer than ``EPSILON`` yield
    nothing; lanes whose walk ended drop out of later blocks.
    """
    # The scalar j = 0 prelude: np.mod matches %, truncation matches
    # int(), int64->float64 conversion is exact at these magnitudes (all
    # pinned by TestNumpyAccumulationContract).
    live = span > EPSILON
    position = np.mod(t0, period)
    first = np.minimum((position / bin_width).astype(np.int64), n_bins - 1)
    # Step 0 for every lane at once: most windows end inside their first
    # bin.  Its bin is ``first`` itself (already in range, so ``%
    # n_bins`` is the identity); a walk ending here yields the whole
    # span, which is what ``_snap_tail(0.0, span)`` returns (``0.0 +
    # span == span``); any other lane yields ``edge - 0.0 == edge`` when
    # ``edge > 0.0``.
    edge = (first + 1).astype(np.float64) * bin_width - position
    final = edge >= span
    step = edge > 0.0
    at = np.arange(t0.shape[0])
    yield (
        at,
        first[None, :],
        np.where(final, span, edge)[None, :],
        (live & (final | step))[None, :],
    )
    at = np.flatnonzero(live & ~final)
    if at.shape[0] == 0:
        return
    # covered = 0.0 + edge where step 0 yielded, else still 0.0.
    covered = np.where(step, edge, 0.0)[at]
    span = span[at]
    bin_width = bin_width[at]
    n_bins = n_bins[at]
    position = position[at]
    first = first[at]
    # Block heights come from each lane's real-valued step count; an
    # estimate rounded short only costs one more block.
    reach = (span + position) / bin_width - first.astype(np.float64)
    j0 = 1
    while at.shape[0]:
        height = min(max(int(reach.max()) + 1 - j0, 1), _MAX_BLOCK)
        ladder = np.arange(j0 + 1, j0 + height + 1)[:, None] + first
        edge = ladder.astype(np.float64) * bin_width - position
        # The ladder grows with j, so each lane's steps before its final
        # one (edge >= span) form a prefix of the block.
        walking = edge < span
        last = walking.sum(axis=0)
        before = np.empty_like(edge)
        for j in range(height):
            before[j] = covered
            e = edge[j]
            d = e - covered
            covered = np.where(walking[j] & (e > covered), covered + d, covered)
        duration = edge - before
        emit = walking & (edge > before)
        done = np.flatnonzero(last < height)
        if done.shape[0]:
            tail = _batch_snap_tail(covered[done], span[done])
            duration[last[done], done] = tail
            emit[last[done], done] = tail > 0.0
        yield at, np.mod(ladder - 1, n_bins), duration, emit
        if done.shape[0] == at.shape[0]:
            return
        if done.shape[0]:
            keep = np.flatnonzero(last == height)
            at = at[keep]
            span = span[keep]
            bin_width = bin_width[keep]
            n_bins = n_bins[keep]
            position = position[keep]
            first = first[keep]
            covered = covered[keep]
            reach = reach[keep]
        j0 += height


def batch_profile_predict(
    t0: FloatArray,
    t1: FloatArray,
    period: FloatArray,
    bin_width: FloatArray,
    n_bins: IntArray,
    estimates: FloatArray,
    rows: IntArray,
) -> FloatArray:
    """Element-wise :meth:`ProfilePredictor.predict_energy`.

    ``estimates`` is the caller's full ``(lanes, max_bins)`` bin table
    and ``rows`` maps each input lane to its row in it.  Each lane's
    total is the left-to-right float sum of ``estimate[bin] * duration``
    over its walk segments — the scalar predictor's sum: ``np.cumsum``
    accumulates strictly in step order, seeded with the running total
    so block boundaries do not regroup the sum, and masked steps add
    ``+0.0``, which never perturbs it.  Windows no longer than
    ``EPSILON`` predict ``0.0``.
    """
    total = np.zeros(t0.shape[0])
    for at, index, d, emit in _batch_walk(
        t0, t1 - t0, period, bin_width, n_bins
    ):
        terms = np.where(emit, estimates[rows[at], index] * d, 0.0)
        running = np.concatenate([total[at][None, :], terms])
        total[at] = np.cumsum(running, axis=0)[-1]
    return total


def batch_profile_observe(
    t0: FloatArray,
    t1: FloatArray,
    period: FloatArray,
    bin_width: FloatArray,
    n_bins: IntArray,
    alpha: FloatArray,
    energy: FloatArray,
    estimates: FloatArray,
    seen: BoolArray,
    rows: IntArray,
) -> None:
    """Element-wise :meth:`ProfilePredictor.observe`, updating in place.

    ``estimates``/``seen`` are the caller's full ``(lanes, max_bins)``
    bin tables, written in place at the rows ``rows`` names for the
    input lanes.  Callers must pre-filter to ``t1 - t0 > EPSILON`` (the
    scalar gate).  Every walk segment applies one duration-correct EWMA
    step (or the first-sight overwrite) with a libm decay factor.  The
    updates run one ladder step at a time, and a lane has at most one
    segment per step, so repeated visits to the same bin within one
    window (spans longer than the period) apply their updates in walk
    order, exactly like the scalar loop.
    """
    duration = t1 - t0
    mean_power = np.maximum(0.0, energy / duration)
    keep_base = 1.0 - alpha
    for at, index, d, emit in _batch_walk(
        t0, duration, period, bin_width, n_bins
    ):
        for j in range(emit.shape[0]):
            hit = np.flatnonzero(emit[j])
            lane = at[hit]
            row = rows[lane]
            bin_ = index[j, hit]
            power = mean_power[lane]
            keep = _libm_pow(keep_base[lane], d[j, hit] / bin_width[lane])
            ewma = keep * estimates[row, bin_] + (1.0 - keep) * power
            estimates[row, bin_] = np.where(seen[row, bin_], ewma, power)
            seen[row, bin_] = True
