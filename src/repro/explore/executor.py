"""Chunked, fault-tolerant execution of design-space explorations.

:func:`explore` is the throughput-prediction fast path: it converts a
:class:`~repro.explore.space.DesignSpace` to one struct-of-arrays batch,
splits it into fixed-size chunks, and runs each chunk through
:func:`~repro.core.batch.batch_predict` — serially by default, or across
a ``ProcessPoolExecutor`` when ``workers > 1`` (``workers=0`` means "one
per CPU core").

:func:`map_designs` is the escape hatch for evaluators the batch engine
cannot vectorize — event-driven hardware simulation, goal-seek solvers,
resource estimation — fanning an arbitrary picklable callable over every
design through the same resilient chunk engine.

Fault tolerance (see :mod:`repro.explore.runtime` for the machinery):

* ``on_error="fail"`` (default) preserves the historical behaviour — the
  first invalid design or exhausted chunk raises.  ``"quarantine"``
  validates every row up front, evaluates the valid ones, NaN-fills the
  rest, and reports structured :class:`PointFailure` /
  :class:`ChunkFailure` diagnostics on the result.  ``"skip"`` drops the
  failed rows instead, with ``ExplorationResult.indices`` mapping
  surviving rows back to their design-space indices.
* ``retry`` (a :class:`RetryPolicy`) adds per-chunk retries with
  exponential backoff, per-chunk timeouts on the pool path, and
  ``BrokenProcessPool`` recovery with graceful degradation to serial.
* ``checkpoint=PATH`` journals each completed chunk to a JSONL file;
  ``resume=True`` replays completed chunks from a previous interrupted
  run (bitwise-identical results — see
  :mod:`repro.explore.checkpoint`).

Observability: the whole call runs under an ``explore.run`` span; every
chunk records an ``explore.chunk`` span in the *parent* process —
worker-evaluated chunks return their elapsed time and the parent
re-emits a synthetic span carrying it (``synthetic: True``), so pool
runs are no longer blind.  ``explore.points`` counts evaluated designs,
``explore.chunk_seconds`` aggregates per-chunk latency,
``explore.retries`` / ``explore.failed_points`` / ``explore.failed_chunks``
/ ``explore.resumed_chunks`` track fault handling, and the
``explore.predictions_per_sec`` gauge tracks realised throughput.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from ..core.batch import (
    BatchInput,
    BatchPrediction,
    batch_predict,
    mark_rows_valid,
)
from ..core.buffering import BufferingMode
from ..core.params import RATInput
from ..core.throughput import ThroughputPrediction
from ..errors import ExplorationError, ParameterError
from ..obs import get_metrics, get_tracer
from ..obs.propagation import TraceContext, activate, current_context, deactivate
from .checkpoint import ChunkJournal, run_key
from .runtime import (
    ChunkFailure,
    PointFailure,
    RetryPolicy,
    check_on_error,
    quarantine_rows,
    run_chunks,
)
from .space import DesignSpace

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ExplorationResult",
    "MapResult",
    "explore",
    "map_designs",
]

#: Default points per chunk: large enough to amortise numpy dispatch,
#: small enough to keep per-chunk spans meaningful and pool tasks even.
DEFAULT_CHUNK_SIZE = 65536

#: Floor applied to measured wall-clock before computing throughput:
#: sub-resolution runs (a tiny space on a fast machine) clamp to the
#: timer's resolution instead of dropping the sample entirely.
_MIN_ELAPSED_S = time.get_clock_info("perf_counter").resolution or 1e-9

#: Scalar result attributes copied between row and column layouts.
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


@dataclass(frozen=True, eq=False)
class ExplorationResult:
    """Predictions for every point of one explored design space.

    With ``on_error="quarantine"`` the prediction keeps one row per
    design point, NaN-filled where the point failed; with ``"skip"``
    failed rows are dropped and ``indices`` maps prediction row ``i``
    back to design ``indices[i]`` of ``space``.  ``failures`` holds
    row-level validation diagnoses, ``chunk_failures`` crash/timeout
    diagnoses for whole chunks.
    """

    space: DesignSpace
    mode: BufferingMode
    prediction: BatchPrediction
    elapsed_s: float
    failures: tuple[PointFailure, ...] = ()
    chunk_failures: tuple[ChunkFailure, ...] = ()
    indices: np.ndarray | None = None
    resumed_chunks: int = 0
    retries: int = 0
    degraded: bool = False

    def __len__(self) -> int:
        return len(self.prediction)

    @property
    def points_per_sec(self) -> float:
        """Realised evaluation throughput of this run.

        Clamped to the wall-clock timer's resolution, so a run faster
        than one timer tick reports a (conservative) finite rate rather
        than zero.
        """
        return len(self) / max(self.elapsed_s, _MIN_ELAPSED_S)

    @property
    def n_failed(self) -> int:
        """Design points that produced no prediction."""
        chunk_rows = sum(
            failure.hi - failure.lo
            for failure in self.chunk_failures
            if failure.lo >= 0
        )
        return len(self.failures) + chunk_rows

    def design_index(self, i: int) -> int:
        """Design-space index of prediction row ``i``."""
        return int(self.indices[i]) if self.indices is not None else i

    def best(self) -> tuple[dict[str, float], ThroughputPrediction]:
        """The axis values and prediction with the highest speedup."""
        i = self.prediction.argbest()
        return self.space.point(self.design_index(i)), self.prediction.row(i)

    def as_records(self) -> list[dict[str, float]]:
        """One flat dict per prediction row: axis values + fields."""
        records = self.prediction.as_records()
        for i, record in enumerate(records):
            record.update(self.space.point(self.design_index(i)))
        return records


@dataclass(frozen=True, eq=False)
class MapResult:
    """Detailed outcome of one :func:`map_designs` run.

    ``results[i]`` is the evaluator's value for design ``indices[i]``;
    with ``on_error="quarantine"`` failed designs are present as
    ``None``, with ``"skip"`` they are dropped.
    """

    results: list[Any]
    indices: np.ndarray
    elapsed_s: float
    chunk_failures: tuple[ChunkFailure, ...] = ()
    resumed_chunks: int = 0
    retries: int = 0
    degraded: bool = False


def _chunk_bounds(n: int, chunk_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]


def _effective_workers(workers: int) -> int:
    """Resolve the ``workers`` knob: 0 means one worker per CPU core."""
    if workers < 0:
        raise ParameterError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _predict_chunk(
    chunk: BatchInput,
    mode: BufferingMode,
    trace: dict | None = None,
) -> tuple[float, tuple[np.ndarray, ...]]:
    """Worker-side chunk evaluation (top level so it pickles).

    Returns ``(elapsed_seconds, result_columns)`` so the parent can
    re-emit per-chunk observability for pool-evaluated chunks.

    ``trace`` is the parent's serialized
    :class:`~repro.obs.propagation.TraceContext` (contextvars do not
    cross the ``ProcessPoolExecutor`` boundary); activating it in the
    worker correlates any worker-side structured logs with the
    originating request's trace.
    """
    token = (
        activate(TraceContext.from_dict(trace)) if trace is not None else None
    )
    try:
        started = time.perf_counter()
        prediction = batch_predict(chunk, mode)
        elapsed = time.perf_counter() - started
        return elapsed, tuple(
            getattr(prediction, name) for name in _RESULT_FIELDS
        )
    finally:
        if token is not None:
            deactivate(token)


#: Per-process map_designs state, seeded by :func:`_map_worker_init` so
#: the (potentially large) design space and evaluator pickle into each
#: worker once at pool start instead of once per chunk task.
_MAP_STATE: tuple[DesignSpace, Callable] | None = None


def _map_worker_init(space: DesignSpace, evaluator: Callable) -> None:
    global _MAP_STATE
    _MAP_STATE = (space, evaluator)


def _map_chunk(bounds: tuple[int, int]) -> tuple[float, list[Any]]:
    """Worker-side map_designs chunk: evaluate designs ``lo..hi``."""
    assert _MAP_STATE is not None, "worker initializer did not run"
    space, evaluator = _MAP_STATE
    lo, hi = bounds
    started = time.perf_counter()
    results = [evaluator(space.design(i)) for i in range(lo, hi)]
    return time.perf_counter() - started, results


def _emit_chunk_observability(
    index: int, size: int, elapsed: float, *, synthetic: bool
) -> None:
    """Parent-side chunk span + latency metric (real or re-emitted).

    Chunks evaluated in worker processes cannot record spans in the
    parent's tracer, so the worker returns its elapsed time and the
    parent emits a *synthetic* ``explore.chunk`` span carrying it — the
    span's own duration is ~0; read ``elapsed_s`` for the real timing.
    """
    attributes = {"chunk": index, "size": size, "elapsed_s": elapsed}
    if synthetic:
        attributes["synthetic"] = True
    with get_tracer().span("explore.chunk", attributes, "explore"):
        pass
    get_metrics().histogram("explore.chunk_seconds").observe(elapsed)


def _emit_chunk_failure_span(failure: ChunkFailure) -> None:
    """Failure-annotated span for a chunk that exhausted its retries."""
    with get_tracer().span(
        "explore.chunk",
        {
            "chunk": failure.index,
            "size": max(failure.hi - failure.lo, 0),
            "error": failure.reason,
            "error_type": failure.error_type,
            "attempts": failure.attempts,
        },
        "explore",
    ):
        pass


class _ChunkedRun:
    """Shared chunk bookkeeping: checkpoint replay, dispatch, remap.

    Drives :func:`run_chunks` over the chunks a previous checkpointed
    run has not already completed, journals fresh completions, emits
    parent-side chunk observability, and translates engine failure
    records (indexed by *task position*) back to chunk indices/bounds.
    """

    def __init__(
        self,
        bounds: list[tuple[int, int]],
        journal: ChunkJournal | None,
        decode: Callable[[Any], Any],
        encode: Callable[[Any], Any],
    ) -> None:
        self.bounds = bounds
        self.journal = journal
        self.decode = decode
        self.encode = encode
        self.slots: list[Any] = [None] * len(bounds)
        self.todo: list[int] = list(range(len(bounds)))
        self.resumed = 0

    def replay(self, completed: dict[int, Any]) -> None:
        """Fill slots from a resumed journal's completed payloads."""
        for index, payload in completed.items():
            if 0 <= index < len(self.bounds):
                self.slots[index] = self.decode(payload)
                self.resumed += 1
        self.todo = [i for i in range(len(self.bounds)) if self.slots[i] is None]
        if self.resumed:
            get_metrics().counter("explore.resumed_chunks").inc(self.resumed)

    def _on_result(self, position: int, result: tuple[float, Any]) -> None:
        index = self.todo[position]
        elapsed, value = result
        self.slots[index] = value
        lo, hi = self.bounds[index]
        _emit_chunk_observability(index, hi - lo, elapsed, synthetic=True)
        if self.journal is not None:
            self.journal.append(
                index, {"elapsed": elapsed, "payload": self.encode(value)}
            )

    def _remap(self, failures: Sequence[ChunkFailure]) -> tuple[ChunkFailure, ...]:
        """Engine failures (task positions) -> chunk indices + bounds."""
        remapped = []
        for failure in failures:
            index = self.todo[failure.index]
            lo, hi = self.bounds[index]
            remapped.append(replace(failure, index=index, lo=lo, hi=hi))
        return tuple(remapped)

    def run(
        self,
        tasks: Sequence[Any],
        fn: Callable[[Any], Any],
        *,
        workers: int,
        policy: RetryPolicy,
        on_error: str,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> tuple[tuple[ChunkFailure, ...], int, bool]:
        """Execute outstanding chunks; returns (failures, retries, degraded)."""
        try:
            report = run_chunks(
                tasks,
                fn,
                workers=workers,
                policy=policy,
                on_error=on_error,
                on_result=self._on_result,
                initializer=initializer,
                initargs=initargs,
            )
        except ExplorationError as exc:
            chunk_failures = self._remap(exc.chunk_failures)
            for failure in chunk_failures:
                _emit_chunk_failure_span(failure)
            raise ExplorationError(
                str(exc), chunk_failures=chunk_failures, partial=exc.partial
            ) from exc
        chunk_failures = self._remap(report.failures)
        for failure in chunk_failures:
            _emit_chunk_failure_span(failure)
        return chunk_failures, report.retries, report.degraded


def _open_journal(
    checkpoint: str | os.PathLike | None,
    resume: bool,
    key_fn: Callable[[], str],
) -> tuple[ChunkJournal | None, dict[int, Any]]:
    """Set up the chunk journal (if requested) and load resumable work."""
    if not checkpoint:
        if resume:
            raise ParameterError("resume=True requires a checkpoint path")
        return None, {}
    journal = ChunkJournal(checkpoint, key_fn())
    completed: dict[int, Any] = {}
    if resume:
        completed = journal.load()
        journal.open(fresh=not completed)
    else:
        journal.open(fresh=True)
    return journal, completed


def _encode_columns(columns: tuple[np.ndarray, ...]) -> list[list[float]]:
    return [column.tolist() for column in columns]


def _decode_columns(payload: dict) -> tuple[np.ndarray, ...]:
    return tuple(
        np.asarray(column, dtype=np.float64)
        for column in payload["payload"]
    )


def _scatter(
    n: int,
    valid_indices: np.ndarray,
    columns: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Spread evaluated-row columns into NaN-initialised full columns."""
    full = {}
    for name, column in columns.items():
        out = np.full(n, np.nan)
        out[valid_indices] = column
        full[name] = out
    return full


def explore(
    space: DesignSpace,
    mode: BufferingMode = BufferingMode.SINGLE,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    on_error: str = "fail",
    retry: RetryPolicy | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    chunk_fn: Callable | None = None,
) -> ExplorationResult:
    """Predict throughput for every point of ``space`` on the batch engine.

    ``chunk_size`` bounds the rows evaluated per batch call (and the
    granularity of pool tasks, checkpoint records, and ``explore.chunk``
    spans); ``workers`` selects serial (``1``), process-pool (``> 1``),
    or one-per-CPU-core (``0``) execution.

    Fault tolerance: ``on_error`` picks the failure policy
    (``"fail"``/``"skip"``/``"quarantine"``, see the module docstring),
    ``retry`` the per-chunk :class:`RetryPolicy`, and
    ``checkpoint``/``resume`` the crash-recovery journal.  ``chunk_fn``
    replaces the chunk evaluator (signature
    ``(chunk: BatchInput, mode) -> (elapsed_s, columns)``) and exists
    for fault-injection tests; it must be picklable for pool runs.
    """
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    check_on_error(on_error)
    policy = retry or RetryPolicy()
    pool_workers = _effective_workers(workers)
    n = len(space)
    tracer = get_tracer()
    metrics = get_metrics()
    started = time.perf_counter()
    journal: ChunkJournal | None = None
    try:
        with tracer.span(
            "explore.run",
            {"points": n, "workers": pool_workers, "chunk_size": chunk_size,
             "mode": mode.value, "on_error": on_error},
            "explore",
        ):
            point_failures: tuple[PointFailure, ...] = ()
            chunk_failures: tuple[ChunkFailure, ...] = ()
            indices: np.ndarray | None = None
            resumed = retries = 0
            degraded = False
            batch = space.to_batch(check=(on_error == "fail"))
            valid_indices = np.arange(n)
            eval_batch = batch
            if on_error != "fail":
                valid_indices, point_failures = quarantine_rows(
                    batch, space.point
                )
                if point_failures:
                    # quarantine_rows just vetted every kept row;
                    # mark them valid rather than re-running the
                    # rules a second time inside take().
                    eval_batch = mark_rows_valid(
                        batch.take(valid_indices, check=False)
                    )
                else:
                    eval_batch = mark_rows_valid(batch)
            m = len(eval_batch)
            bounds = _chunk_bounds(m, chunk_size)
            journal, completed = _open_journal(
                checkpoint, resume,
                lambda: run_key(space, mode, chunk_size, on_error),
            )
            runner = _ChunkedRun(
                bounds, journal, _decode_columns, _encode_columns
            )
            runner.replay(completed)
            fn = partial(chunk_fn or _predict_chunk, mode=mode)
            ctx = current_context()
            if chunk_fn is None and ctx is not None:
                # Ship the trace context with each chunk (read inside
                # the explore.run span, so the shipped context is
                # narrowed to that span's identity and worker-side
                # chunks parent under it).
                fn = partial(fn, trace=ctx.to_dict())
            tasks = [eval_batch[lo:hi] for lo, hi in
                     (bounds[i] for i in runner.todo)]
            try:
                chunk_failures, retries, degraded = runner.run(
                    tasks, fn,
                    workers=pool_workers, policy=policy, on_error=on_error,
                )
            except ExplorationError as exc:
                exc.failures = point_failures
                raise
            resumed = runner.resumed
            prediction, indices = _assemble_exploration(
                batch, mode, n, valid_indices, runner.slots,
                bounds, chunk_failures, on_error,
            )
            failed_rows = len(point_failures) + sum(
                failure.hi - failure.lo for failure in chunk_failures
            )
            if failed_rows:
                metrics.counter("explore.failed_points").inc(failed_rows)
    finally:
        if journal is not None:
            journal.close()
    elapsed = time.perf_counter() - started
    metrics.counter("explore.points").inc(n)
    metrics.gauge("explore.predictions_per_sec").set(
        n / max(elapsed, _MIN_ELAPSED_S)
    )
    return ExplorationResult(
        space=space,
        mode=mode,
        prediction=prediction,
        elapsed_s=elapsed,
        failures=point_failures,
        chunk_failures=chunk_failures,
        indices=indices,
        resumed_chunks=resumed,
        retries=retries,
        degraded=degraded,
    )


def _assemble_exploration(
    batch: BatchInput,
    mode: BufferingMode,
    n: int,
    valid_indices: np.ndarray,
    slots: Sequence[tuple[np.ndarray, ...] | None],
    bounds: Sequence[tuple[int, int]],
    chunk_failures: Sequence[ChunkFailure],
    on_error: str,
) -> tuple[BatchPrediction, np.ndarray | None]:
    """Stitch chunk columns (+ failures) into the final prediction."""
    m = bounds[-1][1] if bounds else 0
    failed = {failure.index for failure in chunk_failures}
    parts = []
    for i, part in enumerate(slots):
        if part is None:
            lo, hi = bounds[i]
            part = tuple(
                np.full(hi - lo, np.nan) for _ in _RESULT_FIELDS
            )
            assert i in failed or on_error != "fail"
        parts.append(part)
    columns = {
        name: (
            np.concatenate([part[j] for part in parts])
            if parts
            else np.empty(0)
        )
        for j, name in enumerate(_RESULT_FIELDS)
    }
    quarantined_points = len(valid_indices) != n
    if on_error == "skip":
        # Drop rows of failed chunks entirely; surviving row i maps to
        # design indices[i] of the space.
        keep = np.ones(m, dtype=bool)
        for failure in chunk_failures:
            keep[failure.lo:failure.hi] = False
        indices = valid_indices[keep]
        columns = {name: column[keep] for name, column in columns.items()}
        result_batch = batch.take(indices, check=True)
        return BatchPrediction(batch=result_batch, mode=mode, **columns), indices
    if quarantined_points or (failed and on_error == "quarantine"):
        columns = _scatter(n, valid_indices, columns)
    return BatchPrediction(batch=batch, mode=mode, **columns), None


def map_designs(
    space: DesignSpace,
    evaluator: Callable[[RATInput], Any],
    *,
    workers: int = 1,
    chunk_size: int = 16,
    on_error: str = "fail",
    retry: RetryPolicy | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    detail: bool = False,
) -> list[Any] | MapResult:
    """Fan a non-vectorizable evaluator over every design in ``space``.

    For work the batch engine cannot express — event-driven hardware
    simulation, goal-seek, resource estimation — ``evaluator`` receives
    each scalar :class:`RATInput` and its results are returned in design
    order.  With ``workers > 1`` (or ``workers=0`` for one per CPU core)
    the evaluator must be picklable (a module-level function), as must
    its results; ``chunk_size`` is the pool's task granularity.

    Fault tolerance mirrors :func:`explore`: ``on_error``, ``retry``,
    and ``checkpoint``/``resume`` (checkpoint payloads must be
    JSON-serializable).  Failures are chunk-granular here — with
    ``"quarantine"`` the failed designs' entries are ``None``, with
    ``"skip"`` they are dropped.  ``detail=True`` returns a
    :class:`MapResult` carrying the failure records and the surviving
    design indices instead of the bare list.
    """
    check_on_error(on_error)
    policy = retry or RetryPolicy()
    pool_workers = _effective_workers(workers)
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    n = len(space)
    tracer = get_tracer()
    metrics = get_metrics()
    started = time.perf_counter()
    journal: ChunkJournal | None = None
    try:
        with tracer.span(
            "explore.map_designs",
            {"points": n, "workers": pool_workers, "on_error": on_error},
            "explore",
        ):
            bounds = _chunk_bounds(n, chunk_size)
            evaluator_id = getattr(evaluator, "__qualname__", repr(evaluator))
            journal, completed = _open_journal(
                checkpoint, resume,
                lambda: run_key(
                    space, BufferingMode.SINGLE, chunk_size, on_error,
                    evaluator=evaluator_id,
                ),
            )
            runner = _ChunkedRun(
                bounds, journal,
                decode=lambda payload: payload["payload"],
                encode=lambda value: value,
            )
            runner.replay(completed)
            # Seed the parent too: the serial path and pool degradation
            # both run _map_chunk in-process.
            _map_worker_init(space, evaluator)
            tasks = [bounds[i] for i in runner.todo]
            chunk_failures, retries, degraded = runner.run(
                tasks, _map_chunk,
                workers=pool_workers, policy=policy, on_error=on_error,
                initializer=_map_worker_init, initargs=(space, evaluator),
            )
            failed = {failure.index for failure in chunk_failures}
            results: list[Any] = []
            indices: list[int] = []
            for i, (lo, hi) in enumerate(bounds):
                if runner.slots[i] is not None:
                    results.extend(runner.slots[i])
                    indices.extend(range(lo, hi))
                elif on_error == "quarantine":
                    results.extend([None] * (hi - lo))
                    indices.extend(range(lo, hi))
                else:
                    assert i in failed
            if chunk_failures:
                metrics.counter("explore.failed_points").inc(
                    sum(f.hi - f.lo for f in chunk_failures)
                )
    finally:
        if journal is not None:
            journal.close()
    elapsed = time.perf_counter() - started
    metrics.counter("explore.points").inc(n)
    metrics.gauge("explore.predictions_per_sec").set(
        n / max(elapsed, _MIN_ELAPSED_S)
    )
    if detail:
        return MapResult(
            results=results,
            indices=np.asarray(indices, dtype=np.intp),
            elapsed_s=elapsed,
            chunk_failures=chunk_failures,
            resumed_chunks=runner.resumed,
            retries=retries,
            degraded=degraded,
        )
    return results
