"""Fault-tolerant chunk execution for design-space exploration.

PR 2 scaled the Figure-1 loop to million-point sweeps; this module makes
those sweeps survive partial failure.  Three layers, each independently
usable:

``RetryPolicy``
    Declarative retry/backoff/timeout knobs shared by every executor
    entry point.
``quarantine_rows``
    Row-level triage: given a deferred-validation
    :class:`~repro.core.batch.BatchInput`, split the rows scalar
    validation would reject into structured :class:`PointFailure`
    diagnostics (same message text as the scalar ``ParameterError``)
    and return the surviving row indices.
``run_chunks``
    The resilient dispatch engine: runs one picklable function over a
    task list, serially or on a ``ProcessPoolExecutor``, with per-chunk
    retry + exponential backoff, per-chunk timeouts (pool path),
    ``BrokenProcessPool`` recovery by pool respawn with one-at-a-time
    *suspect probing* so a crashing chunk is blamed precisely instead of
    burning innocent chunks' retry budgets, and graceful degradation to
    serial execution when the pool infrastructure itself keeps failing.

Failure semantics are controlled by ``on_error``:

``"fail"``
    The first chunk that exhausts its retries raises
    :class:`~repro.errors.ExplorationError` carrying the structured
    failures and whatever results completed.
``"skip"`` / ``"quarantine"``
    Execution continues; failed chunks are reported in the returned
    :class:`ChunkRunReport` and the caller decides whether to drop the
    rows (skip) or NaN-fill them (quarantine).

Observability: every re-execution of a chunk increments
``explore.retries`` — budget-charged retries and the uncharged re-runs
of chunks caught in a pool break or a hung-pool termination alike — every
exhausted chunk increments ``explore.failed_chunks``, and pool
degradation sets the ``explore.degraded_to_serial`` gauge.  Each of
these also emits a structured log event (``explore.retry`` /
``explore.chunk_failed`` / ``explore.degraded``) through
:mod:`repro.obs.log`, trace-correlated when a request context is active.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..core.batch import BatchInput, row_violations
from ..errors import ExplorationError, ParameterError
from ..obs import get_metrics
from ..obs.log import event, get_logger
from ..obs.metrics import MetricsRegistry

_log = get_logger("explore")

__all__ = [
    "ChunkFailure",
    "ChunkRunReport",
    "ON_ERROR_POLICIES",
    "PointFailure",
    "RetryPolicy",
    "check_on_error",
    "quarantine_rows",
    "run_chunks",
    "with_bounds",
]

#: Accepted ``on_error`` policy names.
ON_ERROR_POLICIES = ("fail", "skip", "quarantine")

#: Pool deaths in a row (with no successful chunk in between) after which
#: the engine stops respawning and degrades to serial execution.
_MAX_CONSECUTIVE_POOL_BREAKS = 4


def check_on_error(on_error: str) -> str:
    """Validate an ``on_error`` policy name (shared by all entry points)."""
    if on_error not in ON_ERROR_POLICIES:
        raise ParameterError(
            f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
        )
    return on_error


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout configuration for chunk execution.

    ``max_retries`` bounds *re*-executions per chunk (0 means one attempt
    only).  The delay before retry ``k`` (0-based) is
    ``backoff_s * backoff_factor**k``.  ``timeout_s`` bounds one
    attempt's wall-clock time on the pool path; a chunk still running at
    its deadline is treated as hung, the pool is torn down (running
    tasks cannot be cancelled) and the chunk is charged one attempt.
    Timeouts are not enforceable serially — there is no portable way to
    interrupt a hung in-process call — so the serial path ignores
    ``timeout_s``.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ParameterError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_s < 0:
            raise ParameterError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.backoff_factor < 1:
            raise ParameterError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ParameterError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before re-running a chunk after ``attempt`` failures."""
        return self.backoff_s * self.backoff_factor ** max(attempt - 1, 0)


@dataclass(frozen=True)
class PointFailure:
    """One quarantined design point: the row, the axis values, and why.

    ``parameter`` names the offending worksheet column and ``reason`` is
    byte-identical to the ``ParameterError`` message the scalar
    ``predict()`` path raises for the same value.  ``point`` carries the
    design's axis values when the caller knows them (the exploration
    executor fills it from :meth:`DesignSpace.point`).
    """

    index: int
    parameter: str
    value: float
    reason: str
    point: Mapping[str, float] | None = None

    def describe(self) -> str:
        """One-line human-readable diagnosis."""
        where = f"point {self.index}"
        if self.point:
            axes = ", ".join(f"{k}={v:g}" for k, v in self.point.items())
            where = f"{where} ({axes})"
        return f"{where}: {self.reason}"


@dataclass(frozen=True)
class ChunkFailure:
    """One chunk that exhausted its retry budget (crash/hang/raise).

    ``lo``/``hi`` are the chunk's row bounds in the evaluated batch when
    the caller knows them (-1 otherwise); ``error_type`` is the
    exception class name, or ``"BrokenProcessPool"`` for a worker crash
    and ``"TimeoutError"`` for a hang.
    """

    index: int
    reason: str
    error_type: str
    attempts: int
    lo: int = -1
    hi: int = -1

    def describe(self) -> str:
        """One-line human-readable diagnosis."""
        bounds = f" rows [{self.lo}, {self.hi})" if self.lo >= 0 else ""
        return (
            f"chunk {self.index}{bounds}: {self.error_type} after "
            f"{self.attempts} attempt(s): {self.reason}"
        )


@dataclass
class ChunkRunReport:
    """Everything :func:`run_chunks` learned about one dispatch.

    ``results[i]`` is chunk ``i``'s return value, or ``None`` where the
    chunk failed (its :class:`ChunkFailure` is in ``failures``).
    ``retries`` counts re-executions across all chunks; ``degraded`` is
    True when the process pool was abandoned for serial execution.
    """

    results: list[Any]
    failures: list[ChunkFailure]
    retries: int = 0
    degraded: bool = False

    @property
    def failed_indices(self) -> set[int]:
        """Chunk indices that never produced a result."""
        return {failure.index for failure in self.failures}


def quarantine_rows(
    batch: BatchInput,
    point_fn: Callable[[int], Mapping[str, float]] | None = None,
) -> tuple[np.ndarray, tuple[PointFailure, ...]]:
    """Split a deferred-validation batch into valid rows and diagnoses.

    Returns ``(valid_indices, failures)``: the row indices that pass
    every scalar validation rule (evaluate these with ``take()``), and
    one :class:`PointFailure` per rejected row.  ``point_fn`` maps a row
    index to its axis values for the failure records.

    One validation pass serves both: every invalid row gets exactly one
    violation, so the valid rows are the rest.
    """
    violations = row_violations(batch)
    valid = np.ones(len(batch), dtype=bool)
    valid[[violation.row for violation in violations]] = False
    failures = tuple(
        PointFailure(
            index=violation.row,
            parameter=violation.column,
            value=violation.value,
            reason=violation.message,
            point=dict(point_fn(violation.row)) if point_fn else None,
        )
        for violation in violations
    )
    return np.flatnonzero(valid), failures


def _chunk_failure(
    index: int, exc: BaseException | None, attempts: int, *, reason: str = ""
) -> ChunkFailure:
    if exc is not None:
        reason = str(exc) or type(exc).__name__
        error_type = type(exc).__name__
    else:
        error_type = "TimeoutError"
    return ChunkFailure(
        index=index, reason=reason, error_type=error_type, attempts=attempts
    )


def _fail(
    failure: ChunkFailure,
    report: ChunkRunReport,
    cause: BaseException | None = None,
) -> ExplorationError:
    error = ExplorationError(
        f"chunk execution failed: {failure.describe()}",
        chunk_failures=tuple(report.failures),
        partial=report,
    )
    error.__cause__ = cause
    return error


def _run_serial(
    tasks: Sequence[Any],
    fn: Callable[[Any], Any],
    indices: Sequence[int],
    policy: RetryPolicy,
    on_error: str,
    on_result: Callable[[int, Any], None] | None,
    report: ChunkRunReport,
    metrics: MetricsRegistry,
    sleep: Callable[[float], None],
) -> None:
    """Run ``indices`` of ``tasks`` in-process, honouring the policy."""
    for i in indices:
        attempts = 0
        while True:
            attempts += 1
            try:
                result = fn(tasks[i])
            except Exception as exc:
                if attempts <= policy.max_retries:
                    report.retries += 1
                    metrics.counter("explore.retries").inc()
                    event(
                        _log, "explore.retry",
                        chunk=i, attempt=attempts, error=str(exc),
                        level=logging.WARNING,
                    )
                    sleep(policy.delay(attempts))
                    continue
                failure = _chunk_failure(i, exc, attempts)
                report.failures.append(failure)
                metrics.counter("explore.failed_chunks").inc()
                event(
                    _log, "explore.chunk_failed",
                    chunk=i, attempts=attempts,
                    error_type=failure.error_type, error=failure.reason,
                    level=logging.WARNING,
                )
                if on_error == "fail":
                    raise _fail(failure, report, exc)
                break
            else:
                report.results[i] = result
                if on_result is not None:
                    on_result(i, result)
                break


class _Pool:
    """A respawnable ProcessPoolExecutor wrapper.

    Tracks worker processes so a hung pool can be *terminated* (plain
    ``shutdown(wait=False)`` would leave non-daemon workers joining at
    interpreter exit, turning one hung chunk into a hung program).
    """

    def __init__(
        self,
        workers: int,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> None:
        self.workers = workers
        self.initializer = initializer
        self.initargs = initargs
        self.executor: Executor = ProcessPoolExecutor(
            max_workers=workers, initializer=initializer, initargs=initargs
        )

    def submit(self, fn: Callable[[Any], Any], task: Any):
        return self.executor.submit(fn, task)

    def terminate(self) -> None:
        """Tear the pool down without waiting on running tasks."""
        executor = self.executor
        procs = list((getattr(executor, "_processes", None) or {}).values())
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - shutdown of a broken pool
            pass
        for proc in procs:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already-dead worker
                pass

    def respawn(self) -> bool:
        """Terminate and restart; False when a new pool cannot start."""
        self.terminate()
        try:
            self.executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=self.initializer,
                initargs=self.initargs,
            )
        except Exception:
            return False
        return True


def run_chunks(
    tasks: Sequence[Any],
    fn: Callable[[Any], Any],
    *,
    workers: int = 1,
    policy: RetryPolicy | None = None,
    on_error: str = "fail",
    on_result: Callable[[int, Any], None] | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    sleep: Callable[[float], None] = time.sleep,
) -> ChunkRunReport:
    """Run ``fn`` over every task with retries, timeouts, and recovery.

    ``fn`` must be picklable (a module-level function or ``partial`` of
    one) when ``workers > 1``.  ``on_result`` fires in the parent as each
    chunk completes — in *completion* order on the pool path — and is
    the hook the executor uses for checkpoint journaling and synthetic
    chunk spans.  ``initializer``/``initargs`` seed each worker process
    once (heavy shared state such as a pickled design space) instead of
    re-pickling it into every task; the caller is responsible for
    seeding the *parent* process too if serial execution or degradation
    may run ``fn`` in-process.  See the module docstring for failure
    semantics.
    """
    policy = policy or RetryPolicy()
    check_on_error(on_error)
    metrics = get_metrics()
    report = ChunkRunReport(results=[None] * len(tasks), failures=[])
    if not tasks:
        return report
    if workers <= 1 or len(tasks) == 1:
        _run_serial(
            tasks, fn, range(len(tasks)), policy, on_error, on_result,
            report, metrics, sleep,
        )
        return report
    try:
        pool = _Pool(workers, initializer, initargs)
    except Exception:
        # The pool never started (fork limits, sandboxing): degrade.
        report.degraded = True
        metrics.gauge("explore.degraded_to_serial").set(1.0)
        event(
            _log, "explore.degraded",
            reason="process pool failed to start",
            level=logging.WARNING,
        )
        _run_serial(
            tasks, fn, range(len(tasks)), policy, on_error, on_result,
            report, metrics, sleep,
        )
        return report

    attempts = [0] * len(tasks)
    pending: deque[int] = deque(range(len(tasks)))
    #: Chunks implicated in a pool break, re-run one at a time so the
    #: next break is attributable to exactly one chunk.
    suspects: deque[int] = deque()
    inflight: dict[Any, int] = {}
    deadlines: dict[Any, float | None] = {}
    consecutive_breaks = 0

    def record_failure(
        index: int, exc: BaseException | None, reason: str = ""
    ) -> None:
        failure = _chunk_failure(index, exc, attempts[index], reason=reason)
        report.failures.append(failure)
        metrics.counter("explore.failed_chunks").inc()
        event(
            _log, "explore.chunk_failed",
            chunk=index, attempts=attempts[index],
            error_type=failure.error_type, error=failure.reason,
            level=logging.WARNING,
        )
        if on_error == "fail":
            pool.terminate()
            raise _fail(failure, report, exc)

    def charge(
        index: int, exc: BaseException | None, reason: str = ""
    ) -> bool:
        """One attempt against ``index``; True if it may retry."""
        attempts[index] += 1
        if attempts[index] <= policy.max_retries:
            report.retries += 1
            metrics.counter("explore.retries").inc()
            event(
                _log, "explore.retry",
                chunk=index, attempt=attempts[index],
                error=reason or (str(exc) if exc else ""),
                level=logging.WARNING,
            )
            return True
        record_failure(index, exc, reason)
        return False

    def count_reruns(indices: Sequence[int], reason: str) -> None:
        """Re-runs that charge no retry budget still count as retries.

        Chunks caught in a pool break or terminated beside a hung chunk
        run again; counting them keeps ``retries`` equal to the number
        of re-executions however the pool's work happened to interleave.
        """
        report.retries += len(indices)
        metrics.counter("explore.retries").inc(len(indices))
        for index in indices:
            event(
                _log, "explore.retry",
                chunk=index, attempt=attempts[index], error=reason,
                level=logging.WARNING,
            )

    def submit(index: int) -> bool:
        try:
            future = pool.submit(fn, tasks[index])
        except Exception:
            # The pool died between completions; put the task back and
            # let the break/respawn logic below deal with it.
            pending.appendleft(index)
            return False
        inflight[future] = index
        deadlines[future] = (
            time.monotonic() + policy.timeout_s if policy.timeout_s else None
        )
        return True

    def drain_to_serial() -> None:
        """Abandon the pool and finish everything left in-process."""
        report.degraded = True
        metrics.gauge("explore.degraded_to_serial").set(1.0)
        event(
            _log, "explore.degraded",
            reason="process pool kept failing; finishing serially",
            level=logging.WARNING,
        )
        remaining = list(inflight.values()) + list(suspects) + list(pending)
        inflight.clear()
        deadlines.clear()
        suspects.clear()
        pending.clear()
        pool.terminate()
        _run_serial(
            tasks, fn, remaining, policy, on_error, on_result, report,
            metrics, sleep,
        )

    def handle_break(involved: list[int], cause: BaseException | None) -> None:
        """A pool death: blame precisely if possible, else probe."""
        nonlocal consecutive_breaks
        consecutive_breaks += 1
        inflight.clear()
        deadlines.clear()
        if len(involved) == 1:
            # Isolated probe (or lone in-flight chunk): blame is certain.
            if charge(involved[0], cause):
                suspects.append(involved[0])
        else:
            # Unknown culprit: probe each involved chunk in isolation
            # without charging anyone's retry budget yet.
            count_reruns(involved, "worker pool broke; probing")
            suspects.extend(involved)
        if consecutive_breaks >= _MAX_CONSECUTIVE_POOL_BREAKS:
            drain_to_serial()
            return
        if not pool.respawn():
            drain_to_serial()

    try:
        while pending or suspects or inflight:
            if report.degraded:
                break
            # Refill the window.  While suspects exist, run exactly one
            # future at a time so the next pool break is attributable.
            if suspects:
                if not inflight:
                    submit(suspects.popleft())
            else:
                while pending and len(inflight) < workers:
                    if not submit(pending.popleft()):
                        break
            if not inflight:
                if pending or suspects:
                    # submit() failed: treat as a pool break with no
                    # involved chunks and respawn (or degrade).
                    consecutive_breaks += 1
                    if (
                        consecutive_breaks >= _MAX_CONSECUTIVE_POOL_BREAKS
                        or not pool.respawn()
                    ):
                        drain_to_serial()
                continue

            now = time.monotonic()
            active = [d for d in deadlines.values() if d is not None]
            wait_s = max(0.0, min(active) - now) if active else None
            done, _ = _futures_wait(
                set(inflight), timeout=wait_s, return_when=FIRST_COMPLETED
            )

            if not done:
                # A deadline expired with nothing finished: the pool has
                # a hung worker.  Running tasks cannot be cancelled, so
                # terminate everything; hung chunks are charged an
                # attempt, innocent co-scheduled chunks are not.
                now = time.monotonic()
                hung = {
                    inflight[f]
                    for f, d in deadlines.items()
                    if d is not None and now >= d
                }
                if not hung:  # pragma: no cover - spurious wakeup
                    continue
                involved = list(inflight.values())
                inflight.clear()
                deadlines.clear()
                consecutive_breaks += 1
                pool.terminate()
                timeout_reason = (
                    f"no result within {policy.timeout_s:g} s; "
                    "worker pool terminated"
                )
                for index in involved:
                    if index in hung and charge(index, None, timeout_reason):
                        suspects.append(index)
                innocent = [i for i in involved if i not in hung]
                count_reruns(innocent, timeout_reason)
                pending.extendleft(innocent)
                if (
                    consecutive_breaks >= _MAX_CONSECUTIVE_POOL_BREAKS
                    or not pool.respawn()
                ):
                    drain_to_serial()
                continue

            broken_involved: list[int] = []
            broken_cause: BaseException | None = None
            for future in done:
                index = inflight.pop(future)
                deadlines.pop(future, None)
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    broken_involved.append(index)
                    broken_cause = exc
                except Exception as exc:
                    if charge(index, exc):
                        sleep(policy.delay(attempts[index]))
                        pending.appendleft(index)
                else:
                    report.results[index] = result
                    consecutive_breaks = 0
                    if on_result is not None:
                        on_result(index, result)
            if broken_involved:
                handle_break(
                    broken_involved + list(inflight.values()), broken_cause
                )
    finally:
        pool.terminate()
    return report


def with_bounds(
    failures: Sequence[ChunkFailure], bounds: Sequence[tuple[int, int]]
) -> list[ChunkFailure]:
    """Annotate engine failures with their chunks' row bounds."""
    annotated = []
    for failure in failures:
        lo, hi = bounds[failure.index]
        annotated.append(replace(failure, lo=lo, hi=hi))
    return annotated
