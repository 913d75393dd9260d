"""DMA engine: serialised channel occupancy over the bus model.

The interconnect is a single serial resource (the basis of RAT's
communication-utilization metric), so the DMA engine tracks when the
channel next becomes free and issues each transfer at
``max(request_time, channel_free)``.  Transfer durations come from the
:class:`~repro.interconnect.bus.BusModel`, i.e. they include the
per-transfer protocol overhead and jitter that separate "actual" from
"predicted" communication in the paper's case studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from operator import sub

from ..errors import SimulationError
from ..interconnect.bus import BusModel

__all__ = ["DMATransfer", "DMAEngine"]


@dataclass(frozen=True)
class DMATransfer:
    """One completed DMA operation with its schedule."""

    iteration: int
    direction: str  # "read" (into FPGA) or "write" (back to host)
    nbytes: float
    request_time: float
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        """Channel-occupancy seconds."""
        return self.end_time - self.start_time

    @property
    def queue_delay(self) -> float:
        """Seconds spent waiting for the channel."""
        return self.start_time - self.request_time


@dataclass
class DMAEngine:
    """Schedules transfers on the shared channel.

    Note on direction naming: the engine names transfers from the FPGA's
    perspective to match Figure 2 — a ``read`` brings input data *into*
    the FPGA (the host's "write", charged at the bus's write rate) and a
    ``write`` returns results (the host's "read").

    Half-duplex links (PCI-X) serialise all transfers on one channel;
    full-duplex links (HyperTransport) serialise per direction only, so a
    result write-back can overlap the next input read.  ``duplex``
    defaults from the bus's interconnect spec.

    Transfers are stored as parallel columns (``iterations``,
    ``directions``, ``nbytes``, ``requests``, ``starts``, ``ends``) in
    issue order; :attr:`transfers` builds :class:`DMATransfer` rows from
    them on demand.
    """

    bus: BusModel
    duplex: bool | None = None
    channel_free: float = 0.0
    _direction_free: dict = field(default_factory=lambda: {"read": 0.0, "write": 0.0})
    iterations: list[int] = field(default_factory=list, init=False, repr=False)
    directions: list[str] = field(default_factory=list, init=False, repr=False)
    nbytes: list[float] = field(default_factory=list, init=False, repr=False)
    requests: list[float] = field(default_factory=list, init=False, repr=False)
    starts: list[float] = field(default_factory=list, init=False, repr=False)
    ends: list[float] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.duplex is None:
            self.duplex = self.bus.spec.duplex

    def issue(
        self, iteration: int, direction: str, nbytes: float, request_time: float
    ) -> DMATransfer:
        """Issue one transfer; returns its schedule.

        The simulation's event loop drives time; the engine only does the
        arithmetic of serialising on the channel.
        """
        self.issue_train(iteration, direction, nbytes, request_time, 1)
        return self._row(len(self.ends) - 1)

    def issue_train(
        self,
        iteration: int,
        direction: str,
        nbytes: float,
        request_time: float,
        count: int,
    ) -> float:
        """Issue ``count`` equal back-to-back transfers; returns the last end.

        Bitwise the same schedule as ``count`` :meth:`issue` calls at the
        same request time: the first transfer starts at
        ``max(request_time, channel_free)`` and each later one when its
        predecessor ends (which is never before ``request_time``).
        """
        if direction not in ("read", "write"):
            raise SimulationError(f"unknown DMA direction {direction!r}")
        if request_time < 0:
            raise SimulationError(f"request_time must be >= 0, got {request_time}")
        # FPGA-perspective read = host-perspective write (input data moves
        # host->FPGA at the write rate), and vice versa.
        durations = self.bus.train_times(nbytes, count, read=direction == "write")
        free = self._direction_free[direction] if self.duplex else self.channel_free
        start = max(request_time, free)
        # accumulate adds left to right, exactly like ``end = start + d``
        # applied transfer by transfer.
        edges = list(accumulate(durations, initial=start))
        end = edges[-1]
        if self.duplex:
            self._direction_free[direction] = end
        else:
            self.channel_free = end
        self.iterations.extend([iteration] * count)
        self.directions.extend([direction] * count)
        self.nbytes.extend([nbytes] * count)
        self.requests.extend([request_time] * count)
        self.starts.extend(edges[:-1])
        self.ends.extend(edges[1:])
        return end

    def _row(self, index: int) -> DMATransfer:
        return DMATransfer(
            iteration=self.iterations[index],
            direction=self.directions[index],
            nbytes=self.nbytes[index],
            request_time=self.requests[index],
            start_time=self.starts[index],
            end_time=self.ends[index],
        )

    @property
    def transfers(self) -> list[DMATransfer]:
        """All transfers as rows, in issue order."""
        return [self._row(index) for index in range(len(self.ends))]

    def _durations(self, direction: str | None) -> list[float]:
        if direction is None:
            return list(map(sub, self.ends, self.starts))
        return [
            end - start
            for start, end, kind in zip(self.starts, self.ends, self.directions)
            if kind == direction
        ]

    def busy_time(self, direction: str | None = None) -> float:
        """Total channel occupancy, optionally per direction."""
        return sum(self._durations(direction))

    def mean_duration(self, direction: str | None = None) -> float:
        """Mean transfer duration, optionally per direction."""
        durations = self._durations(direction)
        if not durations:
            raise SimulationError("no matching transfers recorded")
        return sum(durations) / len(durations)
