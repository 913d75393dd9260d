"""Bus model: timed data transfers over a modelled interconnect.

This is the substrate that stands in for the paper's physical CPU-FPGA
link.  A :class:`BusModel` wraps an
:class:`~repro.platforms.interconnect.InterconnectSpec` (wire-level
latency-bandwidth behaviour) and a
:class:`~repro.interconnect.protocols.ProtocolProfile` (application-visible
per-transfer overheads and jitter), and exposes two views:

* a *microbenchmark* view (``transfer_time(..., microbenchmark=True)``)
  that omits the per-transfer protocol overhead — modelling a tight
  pinned-buffer timing loop, which is what the paper's alpha measurements
  used; and
* an *application* view that charges full overhead and jitter per
  transfer — what the deployed 1-D PDF actually experienced, 4.5x slower
  than the microbenchmark number.

All transfers are recorded for later inspection, and the model keeps a
monotonically increasing transfer index to drive the deterministic jitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ParameterError
from ..platforms.interconnect import InterconnectSpec
from .protocols import ProtocolProfile

__all__ = ["TransferRecord", "BusModel"]


@dataclass(frozen=True)
class TransferRecord:
    """One completed transfer: direction, size, and timing breakdown."""

    index: int
    direction: str  # "write" (host->FPGA) or "read" (FPGA->host)
    nbytes: float
    wire_time: float
    overhead: float

    @property
    def total_time(self) -> float:
        """Wall-clock time charged for the transfer."""
        return self.wire_time + self.overhead

    @property
    def effective_bandwidth(self) -> float:
        """Bytes/second actually sustained by this transfer."""
        return self.nbytes / self.total_time


@dataclass
class BusModel:
    """A stateful transfer engine over one interconnect.

    Not thread-safe; each simulation owns its own instance.
    """

    spec: InterconnectSpec
    profile: ProtocolProfile
    record_transfers: bool = True
    _index: int = field(default=0, repr=False)
    _records: list[TransferRecord] = field(default_factory=list, repr=False)

    def transfer_time(
        self,
        nbytes: float,
        *,
        read: bool = False,
        microbenchmark: bool = False,
    ) -> float:
        """Time one transfer and record it.

        ``microbenchmark=True`` models the pinned-buffer timing loop used
        to measure alphas: wire time only, no protocol overhead or jitter.
        """
        return self.train_times(
            nbytes, 1, read=read, microbenchmark=microbenchmark
        )[0]

    def train_times(
        self,
        nbytes: float,
        count: int,
        *,
        read: bool = False,
        microbenchmark: bool = False,
    ) -> list[float]:
        """Time a train of ``count`` equal transfers; one total per transfer.

        Each transfer gets the same arithmetic and jitter index as a
        :meth:`transfer_time` call in its place: the wire time is computed
        once per train, the jitter multiplier once per transfer, and both
        the wire time and the protocol overhead are scaled by it.
        """
        if nbytes <= 0:
            raise ParameterError(f"nbytes must be positive, got {nbytes}")
        if count < 1:
            raise ParameterError(f"count must be >= 1, got {count}")
        wire = self.spec.transfer_time(nbytes, read=read)
        first = self._index
        self._index += count
        if microbenchmark:
            wire_times = [wire] * count
            overheads = [0.0] * count
        else:
            base = self.profile.per_transfer_overhead_s
            jitters = self.profile.jitter_multipliers(first, count, nbytes)
            wire_times = [wire * j for j in jitters]
            overheads = [base * j for j in jitters]
        if self.record_transfers:
            direction = "read" if read else "write"
            self._records.extend(
                TransferRecord(first + k, direction, nbytes, w, o)
                for k, (w, o) in enumerate(zip(wire_times, overheads))
            )
        return [w + o for w, o in zip(wire_times, overheads)]

    def duplex_transfer_time(
        self, write_bytes: float, read_bytes: float, *, microbenchmark: bool = False
    ) -> float:
        """Time a simultaneous write+read pair.

        Full-duplex links (HyperTransport) overlap the directions and the
        pair completes in the slower direction's time; half-duplex links
        (PCI-X) serialise them.  Either direction may be zero-sized.
        """
        if write_bytes < 0 or read_bytes < 0:
            raise ParameterError("transfer sizes must be >= 0")
        if write_bytes == 0 and read_bytes == 0:
            raise ParameterError("at least one direction must move data")
        t_write = (
            self.transfer_time(write_bytes, read=False, microbenchmark=microbenchmark)
            if write_bytes > 0
            else 0.0
        )
        t_read = (
            self.transfer_time(read_bytes, read=True, microbenchmark=microbenchmark)
            if read_bytes > 0
            else 0.0
        )
        if self.spec.duplex:
            return max(t_write, t_read)
        return t_write + t_read

    @property
    def records(self) -> list[TransferRecord]:
        """All recorded transfers, in issue order."""
        return list(self._records)

    @property
    def transfer_count(self) -> int:
        """Number of transfers issued so far (recorded or not)."""
        return self._index

    def total_bytes(self, direction: str | None = None) -> float:
        """Total bytes moved, optionally filtered by direction."""
        return sum(
            r.nbytes
            for r in self._records
            if direction is None or r.direction == direction
        )

    def total_time(self, direction: str | None = None) -> float:
        """Total transfer wall-clock, optionally filtered by direction.

        Duplex overlap is *not* collapsed here — this is channel-occupancy
        accounting; callers wanting wall-clock must use the times returned
        by the transfer calls.
        """
        return sum(
            r.total_time
            for r in self._records
            if direction is None or r.direction == direction
        )

    def reset(self) -> None:
        """Clear records and the jitter index (fresh run)."""
        self._index = 0
        self._records.clear()
