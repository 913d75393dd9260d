"""Communication/computation overlap scenarios (paper Figure 2).

Three interaction patterns are modelled:

* **Single buffered (SB)** — read, compute, write strictly in sequence;
  the FPGA idles during I/O and the channel idles during compute.
* **Double buffered, computation bound (DB)** — two buffers let iteration
  ``i+1``'s input transfer proceed while iteration ``i`` computes; when
  ``t_comp >= t_comm`` communication hides entirely behind computation.
* **Double buffered, communication bound (DB)** — same hardware, but
  ``t_comm > t_comp`` so computation hides behind communication.

The analytic steady-state results are Equations (5)/(6); this module also
constructs the explicit per-iteration timelines drawn in Figure 2 (used by
the figure-2 benchmark and cross-checked against the event-driven simulator
in :mod:`repro.hwsim`).  The startup transient of double buffering — the
first compute cannot begin until the first read finishes — is represented
exactly in the timeline and available as :meth:`OverlapTimeline.makespan`,
so tests can verify that the paper's "startup cost is negligible for a
sufficiently large number of iterations" claim converges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ParameterError

__all__ = [
    "BufferingMode",
    "TimelineSegment",
    "OverlapTimeline",
    "check_lane",
    "segment_label",
    "single_buffered_timeline",
    "double_buffered_timeline",
    "build_timeline",
]


class BufferingMode(str, enum.Enum):
    """Buffer organisation assumed by the throughput test."""

    SINGLE = "single"
    DOUBLE = "double"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class TimelineSegment:
    """One labelled interval on a resource lane.

    ``lane`` is ``"comm"`` or ``"comp"``; ``kind`` is ``"read"``,
    ``"write"`` or ``"compute"``; ``iteration`` is 1-based to match the
    paper's R1/C1/W1 labels.
    """

    lane: str
    kind: str
    iteration: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ParameterError(
                f"segment end {self.end} precedes start {self.start}"
            )

    @property
    def duration(self) -> float:
        """Length of the segment in seconds."""
        return self.end - self.start

    @property
    def label(self) -> str:
        """Figure-2 style label, e.g. ``"R3"`` or ``"C1"``."""
        return segment_label(self.kind, self.iteration)


def segment_label(kind: str, iteration: int) -> str:
    """Figure-2 style label of a ``kind`` segment, e.g. ``"R3"``."""
    return f"{kind[0].upper()}{iteration}"


def check_lane(
    lane: str,
    starts: Sequence[float],
    ends: Sequence[float],
    label: Callable[[int], str],
) -> None:
    """Reject overlapping intervals on one serial lane.

    Intervals are ordered by ``(start, end)``, ties kept in the given
    order, and each must start no earlier than its predecessor ends (to
    1e-15 s).  ``label(i)`` names interval ``i`` in the error.
    """
    if len(starts) < 2:
        return
    start = np.asarray(starts, dtype=float)
    end = np.asarray(ends, dtype=float)
    order = np.lexsort((end, start))  # stable: ties keep the given order
    bad = np.flatnonzero(start[order[1:]] < end[order[:-1]] - 1e-15)
    if bad.size:
        before, after = int(order[bad[0]]), int(order[bad[0] + 1])
        raise ParameterError(
            f"{lane} lane overlaps: {label(before)} "
            f"[{starts[before]}, {ends[before]}) vs {label(after)} "
            f"[{starts[after]}, {ends[after]})"
        )


@dataclass(frozen=True)
class OverlapTimeline:
    """An explicit schedule of reads, computes and writes.

    Segments are stored in start-time order.  The class knows nothing of
    how it was built; both the analytic constructors here and the
    event-driven simulator produce this type, which is what lets tests
    assert they agree.
    """

    mode: BufferingMode
    segments: tuple[TimelineSegment, ...]

    def __post_init__(self) -> None:
        # Within a lane, segments must not overlap: each lane is a single
        # serial resource (one channel, one functional unit).
        for lane in ("comm", "comp"):
            segments = [s for s in self.segments if s.lane == lane]
            check_lane(
                lane,
                [s.start for s in segments],
                [s.end for s in segments],
                lambda i: segments[i].label,
            )

    def makespan(self) -> float:
        """Total wall-clock span of the schedule."""
        if not self.segments:
            return 0.0
        return max(s.end for s in self.segments) - min(s.start for s in self.segments)

    def lane(self, lane: str) -> list[TimelineSegment]:
        """All segments on one lane, in start order."""
        return sorted(
            (s for s in self.segments if s.lane == lane), key=lambda s: s.start
        )

    def busy_time(self, lane: str) -> float:
        """Total occupied time on one lane."""
        return sum(s.duration for s in self.segments if s.lane == lane)

    def utilization(self, lane: str) -> float:
        """Fraction of the makespan during which a lane is busy."""
        span = self.makespan()
        if span == 0:
            return 0.0
        return self.busy_time(lane) / span

    def render_ascii(self, width: int = 72) -> str:
        """Draw the Figure-2 style two-lane Gantt chart in ASCII.

        Each lane becomes one text row; segment labels are placed at their
        scaled start positions.  Purely for human inspection — tests only
        check it is non-empty and mentions every segment label.
        """
        span = self.makespan()
        if span == 0:
            return "(empty timeline)"
        origin = min(s.start for s in self.segments)
        rows = []
        for lane, title in (("comm", "Comm"), ("comp", "Comp")):
            row = [" "] * width
            for segment in self.lane(lane):
                start_col = int((segment.start - origin) / span * (width - 1))
                end_col = max(
                    start_col + 1,
                    int((segment.end - origin) / span * (width - 1)),
                )
                for col in range(start_col, min(end_col, width)):
                    row[col] = "-"
                label = segment.label
                for offset, char in enumerate(label):
                    col = start_col + offset
                    if col < width:
                        row[col] = char
            rows.append(f"{title} |{''.join(row)}|")
        return "\n".join(rows)


def single_buffered_timeline(
    t_read: float, t_comp: float, t_write: float, n_iterations: int
) -> OverlapTimeline:
    """Strictly sequential R_i, C_i, W_i schedule (Figure 2, top).

    The paper's Equations (2)-(3) name the host→FPGA transfer "write" and
    the FPGA→host transfer "read"; for timeline purposes we follow the
    figure's per-iteration ``R_i`` (data in), ``C_i`` (compute), ``W_i``
    (results out) ordering, so ``t_read`` here is the input-transfer time.
    """
    _validate_times(t_read, t_comp, t_write, n_iterations)
    segments: list[TimelineSegment] = []
    clock = 0.0
    for i in range(1, n_iterations + 1):
        segments.append(TimelineSegment("comm", "read", i, clock, clock + t_read))
        clock += t_read
        segments.append(TimelineSegment("comp", "compute", i, clock, clock + t_comp))
        clock += t_comp
        segments.append(TimelineSegment("comm", "write", i, clock, clock + t_write))
        clock += t_write
    return OverlapTimeline(mode=BufferingMode.SINGLE, segments=tuple(segments))


def double_buffered_timeline(
    t_read: float, t_comp: float, t_write: float, n_iterations: int
) -> OverlapTimeline:
    """Two-buffer overlapped schedule (Figure 2, middle/bottom).

    Scheduling rules (greedy, as in the figure):

    * the channel is a single serial resource carrying both reads and
      writes; reads for iteration ``i+1`` may start as soon as the channel
      is free, because the second buffer is available while iteration
      ``i`` computes;
    * compute ``C_i`` starts when both ``R_i`` has finished and the
      functional unit is free;
    * write-back ``W_i`` starts when both ``C_i`` has finished and the
      channel is free, and is given priority over the next read when both
      are ready (results drain before new data enters).
    * only two buffers exist, so ``R_{i+2}`` cannot begin until ``C_i``
      has finished freeing its buffer.
    """
    _validate_times(t_read, t_comp, t_write, n_iterations)
    segments: list[TimelineSegment] = []
    channel_free = 0.0
    unit_free = 0.0
    read_done = [0.0] * (n_iterations + 2)
    comp_done = [0.0] * (n_iterations + 2)
    writes_pending: list[int] = []

    for i in range(1, n_iterations + 1):
        # Drain any ready write-backs first: they block buffer reuse less
        # than reads but share the channel, and the figure schedules W_i
        # immediately after C_i when the channel allows.
        while writes_pending and comp_done[writes_pending[0]] <= channel_free:
            j = writes_pending.pop(0)
            start = max(channel_free, comp_done[j])
            segments.append(TimelineSegment("comm", "write", j, start, start + t_write))
            channel_free = start + t_write

        # Read for iteration i: needs the channel and (for i > 2) buffer
        # i-2 to have been released by its compute.
        ready = channel_free
        if i > 2:
            ready = max(ready, comp_done[i - 2])
        segments.append(TimelineSegment("comm", "read", i, ready, ready + t_read))
        channel_free = ready + t_read
        read_done[i] = channel_free

        # Compute for iteration i.
        start = max(unit_free, read_done[i])
        segments.append(TimelineSegment("comp", "compute", i, start, start + t_comp))
        unit_free = start + t_comp
        comp_done[i] = unit_free
        if t_write > 0:
            writes_pending.append(i)

    # Flush remaining writes after the last read.
    for j in writes_pending:
        start = max(channel_free, comp_done[j])
        segments.append(TimelineSegment("comm", "write", j, start, start + t_write))
        channel_free = start + t_write

    return OverlapTimeline(mode=BufferingMode.DOUBLE, segments=tuple(segments))


def build_timeline(
    mode: BufferingMode,
    t_read: float,
    t_comp: float,
    t_write: float,
    n_iterations: int,
) -> OverlapTimeline:
    """Dispatch to the SB or DB analytic timeline constructor."""
    if mode is BufferingMode.SINGLE:
        return single_buffered_timeline(t_read, t_comp, t_write, n_iterations)
    if mode is BufferingMode.DOUBLE:
        return double_buffered_timeline(t_read, t_comp, t_write, n_iterations)
    raise ParameterError(f"unknown buffering mode {mode!r}")


def _validate_times(
    t_read: float, t_comp: float, t_write: float, n_iterations: int
) -> None:
    for name, value in (("t_read", t_read), ("t_comp", t_comp), ("t_write", t_write)):
        if value < 0:
            raise ParameterError(f"{name} must be >= 0, got {value}")
    if n_iterations < 1:
        raise ParameterError(f"n_iterations must be >= 1, got {n_iterations}")
    if t_read + t_comp + t_write <= 0:
        raise ParameterError("at least one of t_read/t_comp/t_write must be positive")
