"""Checkpoint journal cost on a chunked quarantine exploration.

A checkpointed ``explore`` writes one journal record per completed
chunk.  On a 1e5-point grid with ``chunk_size=1024`` that is ~90
records of eight 1024-row float64 columns each; journaled as raw
little-endian bytes (base64) they add a fraction of the run's own cost,
where ``repr``-formatted JSON floats made the journaled run 6-8x slower
than the same call without a checkpoint.  The floor asserts the
journaled run stays within :data:`JOURNAL_FLOOR` of the plain one (both
best of 3, interleaved), and that the two produce bitwise-identical
predictions.
"""

from __future__ import annotations

import time

import numpy as np

from repro.apps import get_case_study
from repro.explore import DesignSpace, explore

from .conftest import record_gauge

#: Journaled over plain wall time must stay below this.  A 2-CPU Xeon
#: host reads 1.25-1.8x with raw-bytes records and 6.1-7.6x with
#: ``repr`` JSON floats.
JOURNAL_FLOOR = 2.5

CHUNK_SIZE = 1024

_RESULTS = (
    "t_input", "t_output", "t_comm", "t_comp", "t_rc",
    "speedup", "util_comp", "util_comm",
)


def _quarantine_grid() -> DesignSpace:
    """50 x 40 x 50 = 1e5 points, ~10% invalid across three rules."""
    rng = np.random.default_rng(7)
    clock = rng.uniform(50.0, 300.0, 50)
    clock[:2] = -1.0
    alpha = rng.uniform(0.05, 1.0, 40)
    alpha[:2] = 1.5
    elements = np.floor(rng.uniform(64.0, 65536.0, 50))
    elements[0] = 0.0
    return DesignSpace.grid(
        get_case_study("pdf1d").rat,
        clock_mhz=clock, alpha_write=alpha, elements_in=elements,
    )


def test_checkpoint_journal_floor(tmp_path, show):
    """A journaled chunked explore costs at most 2.5x the plain one."""
    space = _quarantine_grid()
    journal = tmp_path / "chunks.jsonl"

    def run(checkpoint):
        started = time.perf_counter()
        result = explore(
            space, on_error="quarantine", chunk_size=CHUNK_SIZE,
            checkpoint=checkpoint,
        )
        return time.perf_counter() - started, result

    run(None)  # warm-up
    run(journal)
    plain_times, journaled_times = [], []
    for _ in range(3):
        elapsed, plain = run(None)
        plain_times.append(elapsed)
        elapsed, journaled = run(journal)
        journaled_times.append(elapsed)
    ratio = min(journaled_times) / min(plain_times)
    record_gauge("bench.explore.checkpoint_ratio", ratio)
    show(
        f"chunked explore @ {len(space):,} points: plain "
        f"{min(plain_times) * 1e3:.0f} ms, journaled "
        f"{min(journaled_times) * 1e3:.0f} ms -> {ratio:.2f}x "
        f"({journal.stat().st_size / 1e6:.1f} MB journal)"
    )

    assert len(plain.failures) > 0
    for name in _RESULTS:
        assert (
            getattr(journaled.prediction, name).tobytes()
            == getattr(plain.prediction, name).tobytes()
        ), f"journaling changed {name}"
    assert ratio <= JOURNAL_FLOOR, (
        f"journaled explore {ratio:.2f}x the plain call "
        f"(floor {JOURNAL_FLOOR}x)"
    )
