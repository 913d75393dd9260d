"""The full RC co-processor simulation.

:class:`RCSystemSim` executes the loop the RAT throughput test models
analytically: for each iteration, DMA an input block into an on-chip
buffer, run the pipelined kernel over it, and DMA results back — under
single- or double-buffered buffer pools, with per-transfer protocol
overheads and jitter from the bus model and fill/stall effects from the
kernel model.  Its measurements populate the "Actual" columns of the
reproduction's Tables 3, 6 and 9.

Output policies mirror the case studies:

* ``per_iteration`` — each block's results return before the next block's
  results (2-D PDF: 65536 bins per iteration; MD: all molecules);
* ``at_end`` — results accumulate on-chip and return once after the final
  iteration (1-D PDF: 256 bins transferred "in a single block after the
  algorithm has completed");
* output transfers may additionally be *chunked* (``output_chunk_bytes``)
  to model vendor FIFO limits — the mechanism behind the 2-D PDF's
  communication blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Literal

from ..errors import SimulationError
from ..interconnect.bus import BusModel
from ..obs.simtrace import TRACK_EVENTS, SimTrace, record_system_run
from .clock import ClockDomain
from .dma import DMAEngine
from .engine import EventQueue
from .kernel import PipelinedKernel
from .memory import BufferPool
from ..core.buffering import (
    BufferingMode,
    OverlapTimeline,
    TimelineSegment,
    check_lane,
    segment_label,
)

__all__ = ["RCSystemSim", "SimulationResult"]

OutputPolicy = Literal["per_iteration", "at_end", "none"]


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated measurements from one simulated run.

    ``t_comm_per_iteration`` and ``t_comp_per_iteration`` are means, the
    quantities the paper reports as "actual" ``t_comm``/``t_comp``;
    ``t_rc`` is the wall-clock makespan, which exceeds
    ``n_iter * (t_comm + t_comp)`` when per-transfer overheads desynchronise
    the loop (the paper's 1-D PDF measured exactly this: total time above
    the sum of its parts).  ``timeline`` is built from the run's transfer
    columns on first access; nothing in the reproduction path reads it.
    """

    clock_mhz: float
    mode: BufferingMode
    n_iterations: int
    t_rc: float
    t_comm_total: float
    t_comp_total: float
    t_comm_per_iteration: float
    t_comp_per_iteration: float
    input_transfers: int
    output_transfers: int
    build_timeline: Callable[[], OverlapTimeline] = field(repr=False, compare=False)

    @cached_property
    def timeline(self) -> OverlapTimeline:
        """The realised two-lane schedule, built on first access."""
        return self.build_timeline()

    @property
    def util_comp(self) -> float:
        """Computation utilization over the realised schedule."""
        return self.t_comp_total / self.t_rc

    @property
    def util_comm(self) -> float:
        """Communication (channel-occupancy) utilization."""
        return self.t_comm_total / self.t_rc

    def speedup(self, t_soft: float) -> float:
        """Measured speedup against a software baseline."""
        if t_soft <= 0:
            raise SimulationError(f"t_soft must be positive, got {t_soft}")
        return t_soft / self.t_rc

    def as_actual_column(self, t_soft: float) -> dict[str, float]:
        """Format measurements as a worksheet "Actual" column.

        Matches the key set of
        :meth:`repro.core.throughput.ThroughputPrediction.as_dict` so
        :class:`~repro.core.worksheet.PerformanceTable` can render the
        measured column beside the predictions.  Utilizations follow the
        paper's convention for actual values — "computed from this
        information using the same equations as the predicted values",
        i.e. Equations (8)-(11) applied to the measured per-iteration
        means rather than to the wall-clock makespan.
        """
        t_comm = self.t_comm_per_iteration
        t_comp = self.t_comp_per_iteration
        if self.mode is BufferingMode.SINGLE:
            denom = t_comm + t_comp
        else:
            denom = max(t_comm, t_comp)
        return {
            "clock_mhz": self.clock_mhz,
            "t_comm": t_comm,
            "t_comp": t_comp,
            "t_rc": self.t_rc,
            "speedup": self.speedup(t_soft),
            "util_comm": t_comm / denom,
            "util_comp": t_comp / denom,
        }


@dataclass
class RCSystemSim:
    """Event-driven simulation of the buffered co-processor loop.

    Parameters
    ----------
    kernel:
        Pipelined-kernel timing model.
    clock:
        Fabric clock domain.
    bus:
        Calibrated bus model (carries protocol overheads and jitter).
    elements_per_block / bytes_per_element:
        Input block geometry (one iteration's transfer).
    output_bytes_per_block:
        Result volume per iteration (ignored for ``output_policy="none"``).
    n_iterations:
        Number of communication+computation blocks.
    mode:
        Single or double buffering (sizes the buffer pool).
    output_policy:
        When results return to the host (see module docstring).
    output_chunk_bytes:
        If set, output transfers split into chunks of at most this size,
        each paying full per-transfer overhead.
    host_turnaround_s:
        Host-side delay between finishing an iteration and issuing the
        next input transfer (API call return, loop bookkeeping).  The
        paper's measured 1-D PDF total exceeded ``N_iter * (t_comm +
        t_comp)`` — time attributed to neither lane; this parameter is
        that residue.
    n_buffers:
        Explicit buffer-pool depth, overriding the mode's default (1 for
        single, 2 for double).  Values above 2 model deeper prefetch
        queues — beyond the paper, but a natural what-if the simulator
        supports (see the buffer-depth ablation benchmark).
    trace:
        Optional :class:`~repro.obs.simtrace.SimTrace` collector.  When
        set, :meth:`run` records every fired scheduler event as an
        instant marker and every DMA transfer / compute interval on the
        Figure-2 write/compute/read tracks, so the run exports as a
        Chrome trace (``rat trace``).  ``None`` (the default) adds no
        per-event work.
    """

    kernel: PipelinedKernel
    clock: ClockDomain
    bus: BusModel
    elements_per_block: int
    bytes_per_element: float
    output_bytes_per_block: float
    n_iterations: int
    mode: BufferingMode = BufferingMode.SINGLE
    output_policy: OutputPolicy = "per_iteration"
    output_chunk_bytes: float | None = None
    host_turnaround_s: float = 0.0
    n_buffers: int | None = None
    trace: SimTrace | None = None

    def __post_init__(self) -> None:
        if self.elements_per_block < 1:
            raise SimulationError("elements_per_block must be >= 1")
        if self.bytes_per_element <= 0:
            raise SimulationError("bytes_per_element must be positive")
        if self.n_iterations < 1:
            raise SimulationError("n_iterations must be >= 1")
        if self.output_bytes_per_block < 0:
            raise SimulationError("output_bytes_per_block must be >= 0")
        if self.output_chunk_bytes is not None and self.output_chunk_bytes <= 0:
            raise SimulationError("output_chunk_bytes must be positive")
        if self.host_turnaround_s < 0:
            raise SimulationError("host_turnaround_s must be >= 0")
        if self.n_buffers is not None and self.n_buffers < 1:
            raise SimulationError("n_buffers must be >= 1")

    @property
    def input_bytes_per_block(self) -> float:
        """Input transfer size per iteration."""
        return self.elements_per_block * self.bytes_per_element

    def _output_chunks(self, nbytes: float) -> tuple[float, int, float]:
        """Split an output transfer into ``(chunk_bytes, count, remainder)``.

        ``count`` full chunks of ``chunk_bytes`` go first, then one
        ``remainder``-byte chunk when ``remainder > 0``.
        """
        if nbytes <= 0:
            return 0.0, 0, 0.0
        if self.output_chunk_bytes is None or nbytes <= self.output_chunk_bytes:
            return nbytes, 1, 0.0
        n_full = int(nbytes // self.output_chunk_bytes)
        return (
            self.output_chunk_bytes,
            n_full,
            nbytes - n_full * self.output_chunk_bytes,
        )

    def run(self) -> SimulationResult:
        """Execute the full loop and aggregate measurements."""
        queue = EventQueue()
        if self.trace is not None:
            trace = self.trace

            def _record_event(event) -> None:
                trace.instant(
                    TRACK_EVENTS,
                    event.label or f"event-{event.sequence}",
                    event.time,
                    {"sequence": event.sequence},
                )

            queue.on_fire = _record_event
        dma = DMAEngine(bus=self.bus)
        n_buffers = self.n_buffers or (
            2 if self.mode is BufferingMode.DOUBLE else 1
        )
        pool = BufferPool(
            n_buffers=n_buffers, capacity_bytes=self.input_bytes_per_block
        )

        compute_segments: list[TimelineSegment] = []
        ready_blocks: list[int] = []  # iterations with data in a buffer
        state = {
            "next_read": 1,
            "read_in_flight": False,
            "unit_busy": False,
            "computed": 0,
        }

        def try_issue_read() -> None:
            if state["read_in_flight"] or state["next_read"] > self.n_iterations:
                return
            if pool.free_count() == 0:
                return
            iteration = state["next_read"]
            state["next_read"] += 1
            state["read_in_flight"] = True
            pool.acquire_free(iteration, self.input_bytes_per_block)
            end = dma.issue_train(
                iteration, "read", self.input_bytes_per_block, queue.now, 1
            )

            def on_read_done(iteration: int = iteration) -> None:
                state["read_in_flight"] = False
                ready_blocks.append(iteration)
                try_start_compute()
                # Double buffering: the host queues the next block as soon
                # as the channel frees, no turnaround (the pipelined host
                # thread prepared it during the previous transfer).
                try_issue_read()

            queue.schedule_at(end, on_read_done, f"R{iteration}")

        def schedule_read() -> None:
            # Reads triggered by an iteration *completing* pay the host
            # turnaround (result handling, loop bookkeeping) before issue;
            # the guards inside try_issue_read make redundant wakeups
            # benign.
            queue.schedule(self.host_turnaround_s, try_issue_read, "host-turnaround")

        def try_start_compute() -> None:
            if state["unit_busy"] or not ready_blocks:
                return
            iteration = ready_blocks.pop(0)
            state["unit_busy"] = True
            duration = self.kernel.block_time(self.elements_per_block, self.clock)
            start = queue.now
            compute_segments.append(
                TimelineSegment("comp", "compute", iteration, start, start + duration)
            )

            def on_compute_done(iteration: int = iteration) -> None:
                state["unit_busy"] = False
                state["computed"] += 1
                pool.release_iteration(iteration)
                if self.output_policy == "per_iteration":
                    issue_output(iteration)
                elif (
                    self.output_policy == "at_end"
                    and state["computed"] == self.n_iterations
                ):
                    issue_output(iteration)
                schedule_read()
                try_start_compute()

            queue.schedule_at(start + duration, on_compute_done, f"C{iteration}")

        chunk, n_chunks, remainder = self._output_chunks(
            self.output_bytes_per_block
        )

        def issue_output(iteration: int) -> None:
            if n_chunks:
                dma.issue_train(iteration, "write", chunk, queue.now, n_chunks)
            if remainder > 0:
                dma.issue_train(iteration, "write", remainder, queue.now, 1)
            # Output completions need no callback: nothing downstream
            # waits on them; the makespan accounts for them below.

        try_issue_read()
        queue.run()
        # The callbacks reach themselves (and the DMA columns) through
        # closure cells.  Clearing the two self-referencing ones frees the
        # run by reference counting; float columns do not advance the
        # cyclic collector, so left alone they would pile up across runs.
        del try_issue_read, try_start_compute

        if state["computed"] != self.n_iterations:
            raise SimulationError(
                f"simulation ended after {state['computed']} of "
                f"{self.n_iterations} iterations"
            )

        t_comm_total = dma.busy_time()
        t_comp_total = sum(s.duration for s in compute_segments)
        last_compute = max(s.end for s in compute_segments)
        last_transfer = max(dma.ends, default=0.0)
        t_rc = max(last_compute, last_transfer)

        # Duplex engines overlap directions; the two-lane timeline renders
        # reads only in that case to keep lanes overlap-free.  The lane
        # rules are checked here, on every run, not when the lazy timeline
        # is first built.
        if dma.duplex:
            comm = [i for i, kind in enumerate(dma.directions) if kind == "read"]
            starts = [dma.starts[i] for i in comm]
            ends = [dma.ends[i] for i in comm]
        else:
            comm = range(len(dma.ends))
            starts, ends = dma.starts, dma.ends
        check_lane(
            "comm",
            starts,
            ends,
            lambda k: segment_label(
                dma.directions[comm[k]], dma.iterations[comm[k]]
            ),
        )
        check_lane(
            "comp",
            [s.start for s in compute_segments],
            [s.end for s in compute_segments],
            lambda k: compute_segments[k].label,
        )

        def build_timeline() -> OverlapTimeline:
            comm_segments = [
                TimelineSegment(
                    "comm",
                    dma.directions[i],
                    dma.iterations[i],
                    dma.starts[i],
                    dma.ends[i],
                )
                for i in comm
            ]
            return OverlapTimeline(
                mode=self.mode, segments=tuple(comm_segments + compute_segments)
            )

        if self.trace is not None:
            # Full-fidelity lanes: every transfer on its directional
            # track (including duplexed write-backs the two-lane
            # timeline drops), plus the realised compute schedule.
            record_system_run(self.trace, dma.transfers, compute_segments)

        # Per-iteration communication mean: total channel occupancy over
        # iterations — the paper's per-iteration "actual t_comm".
        return SimulationResult(
            clock_mhz=self.clock.frequency_mhz,
            mode=self.mode,
            n_iterations=self.n_iterations,
            t_rc=t_rc,
            t_comm_total=t_comm_total,
            t_comp_total=t_comp_total,
            t_comm_per_iteration=t_comm_total / self.n_iterations,
            t_comp_per_iteration=t_comp_total / self.n_iterations,
            input_transfers=dma.directions.count("read"),
            output_transfers=dma.directions.count("write"),
            build_timeline=build_timeline,
        )
