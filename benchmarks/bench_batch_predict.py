"""Batch prediction engine throughput vs the scalar evaluator.

Times :func:`repro.core.batch.batch_predict` over design spaces of 1e2,
1e4 and 1e6 points and compares against a scalar ``predict`` loop, and
times broadcast-column folding: the same space evaluated with its
``broadcast`` marks and with the identical columns rebuilt unmarked.
The scalar side is timed over a capped subsample (its per-point cost is
size-independent) so the 1e6 case does not take minutes.  Every timed
side takes one discarded warm-up call and best-of-3 timing, so reported
numbers are steady-state throughput rather than first-touch page-fault
or import-warm-up cost; the folded/unfolded ratio is additionally
measured interleaved (A/B/A/B) because timings on a shared host drift by
tens of percent between back-to-back runs.  Asserts the batch engine
wins at every size and by >= 50x at a million points, that folding is
bitwise-neutral at every size and faster at a million points, and
records the measured points/sec and ratios as gauges so the bench
records capture the perf trajectory.
"""

from __future__ import annotations

import time

import pytest

import numpy as np

from repro.apps import get_case_study
from repro.core.batch import BatchInput, batch_predict
from repro.core.buffering import BufferingMode
from repro.core.throughput import predict
from repro.explore import DesignSpace

from .conftest import record_gauge

#: Benchmark sizes: small (dispatch-dominated), medium, large (the
#: ISSUE's 1e6-point target where the >= 50x floor applies).
SIZES = (100, 10_000, 1_000_000)

#: Scalar predictions are timed over at most this many points; the
#: per-point cost is extrapolated to the full space.
SCALAR_CAP = 2_000


def _timed(fn, *args):
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


def _space(n: int) -> DesignSpace:
    base = get_case_study("pdf1d").rat
    return DesignSpace.random(
        base, n, seed=42, clock_mhz=(50, 300), alpha=(0.1, 0.95)
    )


def _scalar_points_per_sec(space: DesignSpace, mode: BufferingMode) -> float:
    n = min(len(space), SCALAR_CAP)
    designs = [space.design(i) for i in range(n)]

    def run() -> None:
        for rat in designs:
            predict(rat, mode)

    # Same discipline as the batch side: one discarded warm-up pass (the
    # first call pays import/bytecode/allocator warm-up) and best-of-3,
    # so the speedup-ratio floors compare steady states on both sides.
    run()
    elapsed = min(_timed(run) for _ in range(3))
    return n / elapsed


@pytest.mark.parametrize("n", SIZES)
def test_batch_vs_scalar(n, show):
    space = _space(n)
    mode = BufferingMode.SINGLE
    batch = space.to_batch()

    prediction = batch_predict(batch, mode)  # warm-up (page-faults pages)
    batch_elapsed = min(
        _timed(batch_predict, batch, mode) for _ in range(3)
    )
    batch_pps = n / batch_elapsed

    scalar_pps = _scalar_points_per_sec(space, mode)
    ratio = batch_pps / scalar_pps

    record_gauge(f"bench.batch_predict.{n}.batch_points_per_sec", batch_pps)
    record_gauge(f"bench.batch_predict.{n}.scalar_points_per_sec", scalar_pps)
    record_gauge(f"bench.batch_predict.{n}.speedup_ratio", ratio)

    show(
        f"batch_predict @ {n:,} points: "
        f"batch {batch_pps:,.0f} pts/s vs scalar {scalar_pps:,.0f} pts/s "
        f"-> {ratio:.1f}x"
    )

    # Spot-check correctness on the timed result.
    i = prediction.argbest()
    assert float(prediction.speedup[i]) == pytest.approx(
        predict(space.design(i), mode).speedup, rel=1e-12
    )

    assert ratio > 1.0, f"batch slower than scalar at {n} points"
    if n >= 1_000_000:
        assert ratio >= 50.0, (
            f"batch engine only {ratio:.1f}x scalar at {n} points "
            "(target >= 50x)"
        )


#: The batch columns, in ``BatchInput`` field order.
_COLUMNS = (
    "elements_in", "elements_out", "bytes_per_element", "ideal_bandwidth",
    "alpha_write", "alpha_read", "ops_per_element", "throughput_proc",
    "clock_hz", "t_soft", "n_iterations",
)

#: Folded over unfolded at 1e6 points must stay above this.  Ten runs
#: on a 2-CPU Xeon host read 1.13-1.40x (median 1.27x): folding skips
#: the three input products and the zero-output mask pass.
FOLD_FLOOR = 1.05

_RESULTS = (
    "t_input", "t_output", "t_comm", "t_comp", "t_rc",
    "speedup", "util_comp", "util_comm",
)


@pytest.mark.parametrize("n", SIZES)
def test_broadcast_folding(n, show):
    """batch_predict on broadcast-marked columns vs the same unmarked."""
    space = _space(n)
    mode = BufferingMode.SINGLE
    marked = space.to_batch()
    unmarked = BatchInput(
        **{name: getattr(marked, name) for name in _COLUMNS},
        broadcast=frozenset(),
    )
    assert marked.broadcast and not unmarked.broadcast

    batch_predict(marked, mode)  # warm-up (page-faults fresh pages)
    batch_predict(unmarked, mode)
    # Interleave the two sides so clock drift hits both equally, and
    # take the best of 3 each: the floor compares steady states.
    marked_times, unmarked_times = [], []
    for _ in range(3):
        unmarked_times.append(_timed(batch_predict, unmarked, mode))
        marked_times.append(_timed(batch_predict, marked, mode))
    folded_pps = n / min(marked_times)
    ratio = min(unmarked_times) / min(marked_times)

    record_gauge(f"bench.batch_predict.{n}.folded_points_per_sec", folded_pps)
    record_gauge(f"bench.batch_predict.{n}.fold_ratio", ratio)

    show(
        f"broadcast folding @ {n:,} points: "
        f"folded {folded_pps:,.0f} pts/s -> {ratio:.2f}x unfolded"
    )

    # Folding changes cost, never bits.
    folded = batch_predict(marked, mode)
    reference = batch_predict(unmarked, mode)
    for name in _RESULTS:
        assert np.array_equal(
            getattr(folded, name), getattr(reference, name)
        ), f"folding changed {name}"

    if n >= 1_000_000:
        assert ratio >= FOLD_FLOOR, (
            f"folding only {ratio:.2f}x the unfolded path at {n} points "
            f"(floor {FOLD_FLOOR}x)"
        )


def test_explore_pipeline_throughput(show):
    """End-to-end explore() (space -> batch -> chunks) at 1e6 points."""
    from repro.explore import explore

    space = _space(1_000_000)
    result = explore(space)
    record_gauge(
        "bench.explore.1000000.points_per_sec", result.points_per_sec
    )
    show(
        f"explore @ 1,000,000 points: {result.points_per_sec:,.0f} pts/s "
        f"({result.elapsed_s:.3f} s end-to-end)"
    )
    assert len(result) == 1_000_000
    scalar_pps = _scalar_points_per_sec(space, BufferingMode.SINGLE)
    assert result.points_per_sec > scalar_pps
