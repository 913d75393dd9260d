"""Open-loop load generation and the fixed rate ladder behind ``max_rps``.

Requests are released at seeded Poisson due times whatever the state of
the system, so a stall delays every later request and a growing queue
shows; each request is timed from its due time, and how late the
generator itself released it is recorded as its lag.
"""

from __future__ import annotations

import asyncio
from time import perf_counter

#: Latency limit on p90 for a ladder rate to count as sustained.
P90_LIMIT_US = 10_000.0

#: The fixed ladder: 1000 req/s upward in 3% steps (finer than the 10%
#: the metrics' bounds allow), to 20k req/s.
LADDER = tuple(round(1000 * 1.03 ** k) for k in range(102))


async def open_loop(offsets, fire, *, abort_when=None) -> tuple[list[float], bool]:
    """Release ``fire(i, due)`` at ``start + offsets[i]``.

    Returns (lags in seconds, aborted).  ``abort_when()`` is polled after
    every release; when it turns true the remaining requests are dropped
    and the run counts as aborted.
    """
    lags = []
    start = perf_counter() + 0.002
    for i, offset in enumerate(offsets):
        due = start + offset
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(perf_counter() - due)
        fire(i, due)
        if abort_when is not None and abort_when():
            return lags, True
    return lags, False


def sustained(latencies_us, backlog: int, aborted: bool, rate: float) -> bool:
    """Whether one ladder probe held the rate.

    p90 latency within P90_LIMIT_US, and no growing backlog: the probe
    was not aborted for a runaway queue, and at most 10 ms of arrivals
    (or one 64-row batch) were still outstanding when it ended.
    """
    if aborted or not latencies_us:
        return False
    ordered = sorted(latencies_us)
    p90 = ordered[min(len(ordered) - 1, int(0.9 * (len(ordered) - 1) + 0.5))]
    return p90 <= P90_LIMIT_US and backlog <= max(64, rate * 0.010)


async def max_rps(ladder, holds) -> float:
    """Highest ladder rate at which ``await holds(rate)`` is true (0 if none).

    Binary search over the ladder, assuming a rate that fails is not
    followed by one that holds.
    """
    lo, hi = -1, len(ladder)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if await holds(ladder[mid]):
            lo = mid
        else:
            hi = mid
    return float(ladder[lo]) if lo >= 0 else 0.0


def probes_needed(ladder) -> int:
    """Ladder probes one :func:`max_rps` search makes."""
    steps, span = 0, len(ladder) + 1
    while span > 1:
        span = (span + 1) // 2
        steps += 1
    return steps
