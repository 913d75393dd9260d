"""Protocol overhead profiles for the modelled interconnect stacks.

The latency-bandwidth parameters on
:class:`~repro.platforms.interconnect.InterconnectSpec` describe a *single
isolated* transfer — the situation a microbenchmark measures.  Real
applications issuing long trains of transfers see additional per-call
costs the microbenchmark amortises away: driver re-arm time, DMA
descriptor recycling, interrupt coalescing gaps.  The paper hit exactly
this: the 1-D PDF's 800 repeated 2 KB transfers made actual communication
~4.5x slower than predicted from the microbenchmark alpha, and the 2-D
PDF's communication came out "six times larger than predicted".

:class:`ProtocolProfile` carries those application-visible extras, plus a
deterministic jitter model (hash-based, reproducible without global RNG
state) for the "variability in the communication time with the small data
sizes" the paper blames for the 1-D PDF discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ParameterError

__all__ = ["ProtocolProfile", "NALLATECH_PCIX_PROFILE", "XD1000_HT_PROFILE"]


@dataclass(frozen=True)
class ProtocolProfile:
    """Application-visible per-transfer costs beyond the raw bus model.

    Parameters
    ----------
    name:
        Stack label for reports.
    per_transfer_overhead_s:
        Additional fixed cost per application-issued transfer (driver
        call, descriptor set-up) *not* visible to a tight microbenchmark
        loop that reuses a pinned buffer.
    small_transfer_threshold:
        Transfers at or below this size (bytes) suffer the small-transfer
        jitter below.
    jitter_fraction:
        Peak-to-peak relative variation applied to small transfers.
    """

    name: str
    per_transfer_overhead_s: float = 0.0
    small_transfer_threshold: float = 4096.0
    jitter_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.per_transfer_overhead_s < 0:
            raise ParameterError(
                f"{self.name}: per_transfer_overhead_s must be >= 0"
            )
        if self.small_transfer_threshold < 0:
            raise ParameterError(
                f"{self.name}: small_transfer_threshold must be >= 0"
            )
        if not 0 <= self.jitter_fraction < 1:
            raise ParameterError(
                f"{self.name}: jitter_fraction must be in [0, 1)"
            )

    def jitter_multipliers(
        self, first_index: int, count: int, transfer_bytes: float
    ) -> list[float]:
        """Deterministic jitter factors for ``count`` consecutive transfers.

        Small transfers get a multiplier in
        ``[1, 1 + jitter_fraction]`` derived from a hash of the transfer
        index, so runs are reproducible yet non-uniform.  Large transfers
        are unaffected (their time is wire-dominated).
        """
        if transfer_bytes > self.small_transfer_threshold or self.jitter_fraction == 0:
            return [1.0] * count
        # Weyl-sequence hash: uniform-ish in [0, 1), deterministic.
        fraction = self.jitter_fraction
        return [
            1.0 + fraction * math.modf(index * 0.6180339887498949)[0]
            for index in range(first_index, first_index + count)
        ]

    def jitter_multiplier(self, transfer_index: int, transfer_bytes: float) -> float:
        """Deterministic jitter factor for one transfer."""
        return self.jitter_multipliers(transfer_index, 1, transfer_bytes)[0]

    def overhead(self, transfer_index: int, transfer_bytes: float) -> float:
        """Total extra seconds charged to one application transfer."""
        base = self.per_transfer_overhead_s
        return base * self.jitter_multiplier(transfer_index, transfer_bytes)


# Calibration note: the paper's 1-D PDF measured t_comm = 2.50E-5 s per
# iteration where the microbenchmark-based prediction was 5.56E-6 s.  One
# iteration issues one 2 KB write (5.54E-6 s wire time on the calibrated
# bus) plus a tiny read (~3.0E-6 s wire); the ~1.65E-5 s gap over the two
# transfers, after the mean jitter multiplier (1.15), puts the per-call
# driver overhead near 6.6 us.
NALLATECH_PCIX_PROFILE = ProtocolProfile(
    name="Nallatech API over PCI-X",
    per_transfer_overhead_s=6.6e-6,
    small_transfer_threshold=8192.0,
    jitter_fraction=0.30,
)

# The XD1000's HyperTransport path carried one large block each way; the
# paper found predicted and actual communication "the same order of
# magnitude" with actual *faster* (1.39E-3 vs 2.62E-3 predicted) — the
# conservative alpha=0.9 under-promised.  A small fixed overhead and no
# small-transfer regime models this stack.
XD1000_HT_PROFILE = ProtocolProfile(
    name="XD1000 HyperTransport",
    per_transfer_overhead_s=2.0e-6,
    small_transfer_threshold=1024.0,
    jitter_fraction=0.05,
)
