"""Micro-batching: coalesce concurrent predictions onto the batch engine.

A prediction service built naively on :func:`repro.core.throughput
.predict` pays the scalar path's per-worksheet overhead on every
request.  The vectorized :func:`repro.core.batch.batch_predict` only
helps if concurrent requests actually share a call.  The
:class:`MicroBatcher` is that bridge: single-prediction requests are
appended to a pending queue, and one consumer task drains them in
struct-of-arrays batches of up to ``max_batch_size`` rows, so N
concurrent callers pay ~one batch's worth of numpy dispatch and
validation instead of N.

How batches form: there is no coalescing timer.  When the consumer
wakes it takes whatever is queued (up to ``max_batch_size``) and
evaluates it at once; a lone request is dispatched immediately.
Requests that arrive while a batch executes queue up and form the
next batch, so batch size tracks concurrency on its own.

Correctness contracts:

* **Bitwise parity.**  A prediction served through a coalesced batch is
  IEEE-754-identical to what scalar ``predict()`` returns for the same
  worksheet — inherited from ``batch_predict``'s operation-order
  guarantee, preserved here by staging worksheet fields with exactly
  the conversions :meth:`RATInput.from_dict` applies.
* **Row-level quarantine.**  One invalid worksheet in a coalesced batch
  fails only that request: rows are staged unvalidated, triaged once
  with :func:`repro.core.batch.row_violations` (the surviving rows are
  then marked valid rather than re-checked), and each rejected request
  receives the *byte-identical* diagnostic the scalar
  ``RATInput.from_dict`` path raises for its worksheet.

Admission control: the pending queue is bounded (``max_pending``);
over-capacity submissions raise :class:`~repro.errors.AdmissionError`
carrying a ``Retry-After`` estimate derived from the queue depth and an
EWMA of recent batch latency.  Requests may carry a deadline; ones that
expire while queued are failed with
:class:`~repro.errors.DeadlineError` instead of being evaluated.

Observability: ``serve.queue_depth`` (gauge) tracks the pending queue;
``serve.batch_size`` / ``serve.batch_seconds`` (histograms, one sample
per batch) the coalescing behaviour; ``serve.batch_wait_seconds``
(histogram, one sample per request) each request's time in the queue;
``serve.predictions`` / ``serve.quarantined`` /
``serve.deadline_expired`` (counters) the row outcomes; and each
executed batch records a ``serve.batch`` span.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.batch import (
    BatchInput,
    batch_predict,
    mark_rows_valid,
    row_violations,
)
from ..core.buffering import BufferingMode
from ..core.params import RATInput
from ..errors import AdmissionError, DeadlineError, ParameterError, ServeError
from ..obs import get_metrics, get_tracer
from ..obs.log import event, get_logger
from ..obs.propagation import current_context
from ..units import MB, MHZ

__all__ = [
    "MicroBatcher",
    "PredictionModes",
    "resolve_modes",
    "scalar_diagnostic",
    "worksheet_row",
]

_log = get_logger("serve.batcher")

#: A request's buffering-mode selection: one or both of SINGLE/DOUBLE.
PredictionModes = tuple[BufferingMode, ...]

#: ``mode`` request values -> the BufferingModes to evaluate.  The
#: default ``"both"`` returns the full Equations (1)-(11) result: Eq (5)
#: vs (6) execution times and the per-mode Eq (8)-(11) utilizations.
_MODES: dict[str, PredictionModes] = {
    "single": (BufferingMode.SINGLE,),
    "double": (BufferingMode.DOUBLE,),
    "both": (BufferingMode.SINGLE, BufferingMode.DOUBLE),
}

#: Worksheet keys staged into batch columns, in BatchInput column order.
#: ``int`` marks fields ``RATInput.from_dict`` coerces through ``int()``
#: (truncation included), ``MB``/``MHZ`` the worksheet's display-unit
#: scale factors — matching those conversions exactly is what makes the
#: batched result bitwise-equal to the scalar path.
_FIELDS: tuple[tuple[str, str, float], ...] = (
    ("elements_in", "int", 1.0),
    ("elements_out", "int", 1.0),
    ("bytes_per_element", "float", 1.0),
    ("throughput_ideal_mbps", "float", MB),
    ("alpha_write", "float", 1.0),
    ("alpha_read", "float", 1.0),
    ("ops_per_element", "float", 1.0),
    ("throughput_proc", "float", 1.0),
    ("clock_mhz", "float", MHZ),
    ("t_soft", "float", 1.0),
    ("n_iterations", "int", 1.0),
)

#: Per-row prediction fields copied into responses (as_records order).
_RESULT_FIELDS = (
    "t_input",
    "t_output",
    "t_comm",
    "t_comp",
    "t_rc",
    "speedup",
    "util_comp",
    "util_comm",
)


def resolve_modes(mode: str) -> PredictionModes:
    """Map a request's ``mode`` string to the modes to evaluate."""
    try:
        return _MODES[mode]
    except KeyError:
        raise ParameterError(
            f"mode must be one of {sorted(_MODES)}, got {mode!r}"
        ) from None


def worksheet_row(worksheet: Mapping[str, object]) -> tuple[float, ...]:
    """Stage one worksheet dict as an 11-float batch row (SI units).

    Applies exactly the conversions :meth:`RATInput.from_dict` applies —
    ``int()`` truncation for count fields, MB/s and MHz scaling — but
    defers *validation* so an out-of-range value survives staging and is
    quarantined at batch level with a per-row diagnostic.

    The straight-line tuple build is the request hot path (it runs once
    per prediction, outside any batch amortization); failures fall
    through to :func:`_diagnose_row`, which re-walks the fields to name
    the offender.
    """
    try:
        return (
            float(int(worksheet["elements_in"])),
            float(int(worksheet["elements_out"])),
            float(worksheet["bytes_per_element"]),
            float(worksheet["throughput_ideal_mbps"]) * MB,
            float(worksheet["alpha_write"]),
            float(worksheet["alpha_read"]),
            float(worksheet["ops_per_element"]),
            float(worksheet["throughput_proc"]),
            float(worksheet["clock_mhz"]) * MHZ,
            float(worksheet["t_soft"]),
            float(int(worksheet["n_iterations"])),
        )
    except KeyError as exc:
        raise ParameterError(
            f"missing worksheet field {exc.args[0]!r}"
        ) from None
    except (TypeError, ValueError, OverflowError):
        raise _diagnose_row(worksheet) from None


def _diagnose_row(worksheet: object) -> ParameterError:
    """Name the field that made :func:`worksheet_row`'s fast path fail."""
    if not isinstance(worksheet, Mapping):
        return ParameterError(
            "worksheet must be a JSON object of Table-1 fields"
        )
    for key, kind, _scale in _FIELDS:
        raw = worksheet.get(key)
        try:
            float(int(raw)) if kind == "int" else float(raw)
        except (TypeError, ValueError, OverflowError):
            return ParameterError(
                f"non-numeric worksheet field {key!r}: {raw!r}"
            )
    return ParameterError("worksheet could not be staged")  # unreachable


def scalar_diagnostic(worksheet: Mapping[str, object], fallback: str) -> str:
    """The error message the *scalar* path raises for a bad worksheet.

    Quarantined rows must report byte-identical text to what
    ``RATInput.from_dict`` + ``predict()`` would have raised, so the
    diagnosis is re-derived by running the scalar constructor itself.
    ``fallback`` (the batch-level :class:`RowViolation` message, same
    rule set) covers the defensive case where the scalar path somehow
    accepts the row.
    """
    try:
        RATInput.from_dict(worksheet)
    except ParameterError as exc:
        return str(exc)
    except (TypeError, ValueError, OverflowError) as exc:
        return f"invalid worksheet value: {exc}"
    return fallback


@dataclass(eq=False)
class _Pending:
    """One queued prediction request awaiting a batch slot."""

    __slots__ = (
        "row", "worksheet", "modes", "future", "enqueued", "deadline",
        "trace_id",
    )

    row: tuple[float, ...]
    worksheet: Mapping[str, object]
    modes: PredictionModes
    future: asyncio.Future
    enqueued: float
    deadline: float | None  # absolute perf_counter() time, or None
    trace_id: str  # submitting request's trace identity ("" if untraced)


class MicroBatcher:
    """Coalesce concurrent single predictions into batch-engine calls.

    ``max_batch_size`` bounds rows per batch; a batch is whatever is
    queued when the consumer wakes, so nothing waits for company.
    ``max_pending`` is the admission bound; beyond it, :meth:`submit`
    raises :class:`AdmissionError` (HTTP 429).
    """

    def __init__(
        self, *, max_batch_size: int = 64, max_pending: int = 1024
    ) -> None:
        if max_batch_size < 1:
            raise ParameterError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_pending < 1:
            raise ParameterError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self.max_batch_size = max_batch_size
        self.max_pending = max_pending
        self._pending: deque[_Pending] = deque()
        self._wakeup = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._closed = False
        self._batch_seconds_ewma = 1e-3
        self.batches = 0
        self.served = 0
        # Hot-path instruments, resolved once: registry lookups are
        # cheap but run per request, and instruments are stable.
        metrics = get_metrics()
        self._queue_depth = metrics.gauge("serve.queue_depth")
        self._batch_size_hist = metrics.histogram("serve.batch_size")
        self._batch_seconds_hist = metrics.histogram("serve.batch_seconds")
        self._batch_wait_hist = metrics.histogram("serve.batch_wait_seconds")
        self._predictions_total = metrics.counter("serve.predictions")

    # ---- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the consumer task; requires a running event loop."""
        if self._task is not None:
            return
        self._closed = False
        self._task = asyncio.create_task(self._consume(), name="microbatch")

    async def close(self, *, drain: bool = True) -> None:
        """Stop the consumer; optionally serve what is already queued.

        With ``drain=True`` (graceful shutdown) the consumer finishes
        every queued request before exiting; with ``drain=False`` queued
        requests fail with a 503-mapped :class:`ServeError`.
        """
        self._closed = True
        if not drain:
            while self._pending:
                pending = self._pending.popleft()
                if not pending.future.done():
                    pending.future.set_exception(
                        ServeError("service is shutting down")
                    )
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None
        self._depth_gauge()

    @property
    def depth(self) -> int:
        """Requests currently waiting for a batch slot."""
        return len(self._pending)

    @property
    def running(self) -> bool:
        """Whether the consumer task is active."""
        return self._task is not None and not self._closed

    @property
    def batch_seconds_ewma(self) -> float:
        """Smoothed recent batch latency (seconds).

        The figure behind ``Retry-After`` estimates; shards also ship it
        in heartbeats so the supervisor's autoscaler can weigh queue
        depth against how fast this shard is clearing it.
        """
        return self._batch_seconds_ewma

    # ---- submission --------------------------------------------------------

    def retry_after_s(self) -> float:
        """Estimated seconds until queue capacity frees up.

        Queue depth in batches times the EWMA batch latency: the figure
        behind the 429 response's ``Retry-After`` header.
        """
        batches_ahead = max(len(self._pending) / self.max_batch_size, 1.0)
        return batches_ahead * self._batch_seconds_ewma

    async def submit(
        self,
        worksheet: Mapping[str, object],
        modes: PredictionModes = _MODES["both"],
        *,
        deadline_s: float | None = None,
    ) -> tuple[dict[str, dict[str, float]], int]:
        """Queue one worksheet; await its slice of a coalesced batch.

        Returns ``(predictions, batch_size)`` where ``predictions`` maps
        mode value -> the row's Equations (1)-(11) record and
        ``batch_size`` is how many requests shared the batch.  Raises
        :class:`ParameterError` for malformed/invalid worksheets,
        :class:`AdmissionError` when the queue is full, and
        :class:`DeadlineError` when ``deadline_s`` expires first.
        """
        if self._closed or self._task is None:
            raise ServeError("service is shutting down")
        if len(self._pending) >= self.max_pending:
            get_metrics().counter("serve.rejected").inc()
            event(
                _log,
                "batch.rejected",
                pending=len(self._pending),
                retry_after_s=self.retry_after_s(),
                level=logging.WARNING,
            )
            raise AdmissionError(
                f"prediction queue is full ({self.max_pending} pending)",
                retry_after_s=self.retry_after_s(),
            )
        row = worksheet_row(worksheet)
        ctx = current_context()
        now = time.perf_counter()
        pending = _Pending(
            row=row,
            worksheet=worksheet,
            modes=modes,
            future=asyncio.get_running_loop().create_future(),
            enqueued=now,
            deadline=now + deadline_s if deadline_s is not None else None,
            trace_id=ctx.trace_id if ctx is not None else "",
        )
        self._pending.append(pending)
        self._depth_gauge()
        self._wakeup.set()
        record, batch_size, batch_span = await pending.future
        if batch_span >= 0:
            # The serve.batch span lives in the consumer task, outside
            # every request's context; this synthetic zero-length span
            # re-emits the linkage *inside* the request's trace so the
            # exported tree connects request -> its coalesced batch.
            with get_tracer().span(
                "serve.batch_slice",
                {"batch_span": batch_span, "batch_size": batch_size,
                 "synthetic": True},
                "serve",
            ):
                pass
        return record, batch_size

    # ---- consumer ----------------------------------------------------------

    def _depth_gauge(self) -> None:
        self._queue_depth.set(len(self._pending))

    async def _consume(self) -> None:
        while True:
            while not self._pending:
                if self._closed:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
            batch = [
                self._pending.popleft()
                for _ in range(min(self.max_batch_size, len(self._pending)))
            ]
            self._depth_gauge()
            try:
                self._execute(batch)
            except Exception as exc:  # defensive: never kill the loop
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(
                            ServeError(f"batch evaluation failed: {exc}")
                        )

    def _execute(self, batch: list[_Pending]) -> None:
        """Evaluate one coalesced batch and distribute per-row results."""
        started = time.perf_counter()
        metrics = get_metrics()
        live: list[_Pending] = []
        for pending in batch:
            if pending.future.done():
                continue  # caller gave up (disconnect/cancellation)
            if pending.deadline is not None and started > pending.deadline:
                metrics.counter("serve.deadline_expired").inc()
                expired_fields = {"queued_s": started - pending.enqueued}
                if pending.trace_id:
                    expired_fields["trace_id"] = pending.trace_id
                event(_log, "batch.deadline_expired", **expired_fields)
                pending.future.set_exception(
                    DeadlineError(
                        "deadline expired after "
                        f"{started - pending.enqueued:.3f}s in queue"
                    )
                )
                continue
            self._batch_wait_hist.observe(started - pending.enqueued)
            live.append(pending)
        if not live:
            return
        n = len(live)
        attributes: dict[str, object] = {"size": n}
        trace_ids = sorted({p.trace_id for p in live if p.trace_id})
        if trace_ids:
            # The batch span belongs to every coalesced request at once;
            # it lists their trace ids instead of claiming one trace.
            attributes["trace_ids"] = trace_ids
        batch_span = get_tracer().span("serve.batch", attributes, "serve")
        batch_span_id = -1
        with batch_span:
            if batch_span.is_recording:
                batch_span_id = batch_span.span_id
            matrix = np.asarray([p.row for p in live], dtype=np.float64)
            staged = BatchInput(*matrix.T, check=False)
            # Row-level quarantine: triage invalid rows instead of
            # letting one bad worksheet fail the whole coalesced batch.
            violations = row_violations(staged)
            if violations:
                bad = {violation.row: violation for violation in violations}
                metrics.counter("serve.quarantined").inc(len(bad))
                event(
                    _log,
                    "batch.quarantined",
                    rows=len(bad),
                    batch_size=n,
                )
                for i, violation in bad.items():
                    live[i].future.set_exception(
                        ParameterError(
                            scalar_diagnostic(
                                live[i].worksheet, violation.message
                            )
                        )
                    )
                keep = [i for i in range(n) if i not in bad]
                live = [live[i] for i in keep]
                if not live:
                    return
                # The kept rows were just vetted by row_violations, so
                # mark them valid instead of paying a second rule pass.
                staged = mark_rows_valid(
                    staged.take(np.asarray(keep, dtype=np.intp), check=False)
                )
            else:
                staged = mark_rows_valid(staged)
            needed = set()
            for pending in live:
                needed.update(pending.modes)
            # One ndarray->list conversion per column (C speed) instead
            # of per-row getattr + float() — the per-request marginal
            # cost here is what the micro-batching win is made of.
            mode_rows: dict[BufferingMode, list[dict[str, float]]] = {}
            for mode in sorted(needed, key=lambda m: m.value):
                prediction = batch_predict(staged, mode)
                columns = [
                    getattr(prediction, name).tolist()
                    for name in _RESULT_FIELDS
                ]
                mode_rows[mode] = [
                    dict(zip(_RESULT_FIELDS, values))
                    for values in zip(*columns)
                ]
            for i, pending in enumerate(live):
                if pending.future.done():
                    continue
                record = {
                    mode.value: mode_rows[mode][i]
                    for mode in pending.modes
                }
                pending.future.set_result((record, n, batch_span_id))
        elapsed = time.perf_counter() - started
        self.batches += 1
        self.served += n
        self._batch_seconds_ewma += 0.2 * (elapsed - self._batch_seconds_ewma)
        self._batch_size_hist.observe(n)
        self._batch_seconds_hist.observe(elapsed)
        self._predictions_total.inc(n)
