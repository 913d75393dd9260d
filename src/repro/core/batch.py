"""Vectorized batch evaluation of the RAT equations (1)-(11).

:func:`repro.core.throughput.predict` evaluates one worksheet at a time;
profiling shows dataclass construction and attribute chasing dominate its
cost, capping what-if exploration at roughly 10k-100k design points per
second.  This module is the struct-of-arrays counterpart: a
:class:`BatchInput` holds one numpy column per worksheet field, and
:func:`batch_predict` applies the paper's equations to every row at once.

Two invariants make the batch path a drop-in backend for the analysis
layer:

* **Bitwise agreement.**  Every formula is written with the exact same
  operation order as the scalar functions in
  :mod:`repro.core.throughput`, so each row of a batch result is the
  IEEE-754-identical value the scalar path would produce (pinned
  bitwise by ``tests/core/test_batch.py``, and relied upon by
  ``crossover_block_size``'s lattice search).  Folding broadcast
  columns keeps this: a folded step is the same IEEE-754 operation,
  done once instead of per row.
* **Round-tripping.**  :meth:`BatchInput.from_inputs` /
  :meth:`BatchInput.row` convert losslessly to and from the scalar
  :class:`~repro.core.params.RATInput`, and
  :meth:`BatchPrediction.row` rehydrates a scalar
  :class:`~repro.core.throughput.ThroughputPrediction`, so callers can
  keep their scalar result types while computing in bulk.

Validation mirrors the scalar dataclasses' ``__post_init__`` checks but
runs vectorized; the first offending row is named in the error message.
For fault-tolerant callers, ``check=False`` defers validation and
:func:`row_violations` / :func:`valid_row_mask` report *per-row*
diagnostics (same rule set, same message text as the scalar validators)
instead of aborting on the first bad row — the basis of the exploration
layer's row-level quarantine.
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import ParameterError
from ..obs import get_metrics, get_tracer
from .buffering import BufferingMode
from .params import (
    CommunicationParams,
    ComputationParams,
    DatasetParams,
    RATInput,
    SoftwareParams,
    at_least_one_violation,
    fraction_violation,
    nonnegative_violation,
    positive_violation,
)
from .throughput import ThroughputPrediction

__all__ = [
    "BatchInput",
    "BatchPrediction",
    "RowViolation",
    "batch_predict",
    "mark_rows_valid",
    "row_violations",
    "valid_row_mask",
]

#: BatchInput array-column names, in worksheet order.  All values are SI
#: (bytes, bytes/s, Hz, seconds) — the same convention as the scalar
#: parameter dataclasses, *not* the worksheet's MB/s / MHz display units.
_COLUMNS = (
    "elements_in",
    "elements_out",
    "bytes_per_element",
    "ideal_bandwidth",
    "alpha_write",
    "alpha_read",
    "ops_per_element",
    "throughput_proc",
    "clock_hz",
    "t_soft",
    "n_iterations",
)

#: Every column of a batch as one tuple, in ``_COLUMNS`` order.
_get_columns = operator.attrgetter(*_COLUMNS)


def _as_column(name: str, values: object, n: int) -> np.ndarray:
    """Coerce one field to a float64 column of length ``n``."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim == 0:
        array = np.full(n, float(array))
    if array.ndim != 1:
        raise ParameterError(
            f"{name} must be scalar or 1-D, got shape {array.shape}"
        )
    if array.shape[0] != n:
        raise ParameterError(
            f"{name} has {array.shape[0]} rows, expected {n}"
        )
    return array


#: Inclusive ``(low, high)`` bounds per rule kind.  ``low <= x <= high``
#: is the whole check: NaN fails both comparisons, +/-inf fall outside
#: the finite extremes, and the smallest positive float64 as ``low``
#: makes ``x >= low`` mean exactly ``x > 0``.
_TINY = float(np.nextafter(0.0, 1.0))
_HUGE = float(np.finfo(np.float64).max)
_POSITIVE = (_TINY, _HUGE)
_NONNEGATIVE = (0.0, _HUGE)
_FRACTION = (_TINY, 1.0)
_AT_LEAST_ONE = (1.0, _HUGE)

#: One entry per validated column, in the order violations are reported:
#: (column name, inclusive bounds, scalar message formatter).  The
#: formatters are the exact ones the scalar parameter dataclasses raise
#: with, so batch diagnostics match scalar ``ParameterError`` text.
_ROW_RULES: tuple[
    tuple[str, tuple[float, float], Callable[[str, float], str | None]],
    ...,
] = (
    ("elements_in", _POSITIVE, positive_violation),
    ("bytes_per_element", _POSITIVE, positive_violation),
    ("ideal_bandwidth", _POSITIVE, positive_violation),
    ("ops_per_element", _POSITIVE, positive_violation),
    ("throughput_proc", _POSITIVE, positive_violation),
    ("clock_hz", _POSITIVE, positive_violation),
    ("t_soft", _POSITIVE, positive_violation),
    ("elements_out", _NONNEGATIVE, nonnegative_violation),
    ("alpha_write", _FRACTION, fraction_violation),
    ("alpha_read", _FRACTION, fraction_violation),
    ("n_iterations", _AT_LEAST_ONE, at_least_one_violation),
)

#: The rule bounds as ``(rules, 1)`` columns, so one comparison pair
#: checks a ``(rules, rows)`` stack of every validated column at once.
_LOW = np.array([[low] for _, (low, _high), _ in _ROW_RULES])
_HIGH = np.array([[high] for _, (_low, high), _ in _ROW_RULES])

#: Rows stacked per comparison in :func:`_rule_ok`.  Larger batches are
#: stacked ~1.4 MB at a time instead of copying every validated column
#: at once (88 MB at a million rows).
_RULE_BLOCK = 16384


def _rule_ok(batch: "BatchInput") -> np.ndarray:
    """The ``(rules, rows)`` pass matrix of every row against every rule.

    Row ``r`` follows ``_ROW_RULES[r]``; this one stacked pass is what
    validation, :func:`row_violations` and :func:`valid_row_mask` read.
    """
    columns = [getattr(batch, name) for name, _, _ in _ROW_RULES]
    n = len(batch)
    if n <= _RULE_BLOCK:
        stacked = np.array(columns)
        return (stacked >= _LOW) & (stacked <= _HIGH)
    ok = np.empty((len(columns), n), dtype=bool)
    for lo in range(0, n, _RULE_BLOCK):
        stacked = np.array([column[lo:lo + _RULE_BLOCK] for column in columns])
        np.logical_and(
            stacked >= _LOW, stacked <= _HIGH, out=ok[:, lo:lo + _RULE_BLOCK]
        )
    return ok


@dataclass(frozen=True)
class RowViolation:
    """One invalid row of a :class:`BatchInput`, with its diagnosis.

    ``message`` is byte-identical to the ``ParameterError`` the scalar
    parameter dataclasses would raise for the same value, so quarantine
    reports read the same as scalar validation failures.
    """

    row: int
    column: str
    value: float
    message: str


def row_violations(batch: "BatchInput") -> list[RowViolation]:
    """Per-row validation diagnostics, sorted by row index.

    At most one violation is reported per row (the first rule, in
    worksheet column order, that the row breaks — matching which error
    the raising validator would have picked).  An empty list means every
    row would pass scalar validation.

    Every rule is checked in one stacked pass; only rows that fail it
    are diagnosed rule by rule.
    """
    ok = _rule_ok(batch)
    if ok.all():
        return []
    failing = np.flatnonzero(~ok.all(axis=0))
    # argmin finds each failing row's first broken rule in table order.
    first_rule = ok[:, failing].argmin(axis=0)
    found: list[RowViolation] = []
    for i, rule in zip(failing.tolist(), first_rule.tolist()):
        name, _, describe = _ROW_RULES[rule]
        value = float(getattr(batch, name)[i])
        message = describe(name, value)
        assert message is not None
        found.append(RowViolation(i, name, value, message))
    return found


def valid_row_mask(batch: "BatchInput") -> np.ndarray:
    """Boolean column: True where the row passes every validation rule."""
    return _rule_ok(batch).all(axis=0)


@dataclass(frozen=True, eq=False)
class BatchInput:
    """A struct-of-arrays bundle of ``n`` RAT worksheet inputs.

    Each field is a float64 column of equal length; rows correspond to
    independent design points.  ``names`` optionally labels rows for
    reports (empty tuple means unnamed).  Instances are immutable;
    slicing with ``batch[a:b]`` returns a new view-backed batch, which is
    what the exploration executor chunks on.

    ``check=False`` defers validation: columns are still coerced and
    shape-checked, but rows that scalar validation would reject survive
    construction so fault-tolerant callers can triage them with
    :func:`row_violations` instead of losing the whole batch.  The
    ``checked`` attribute records which way an instance was built;
    :func:`batch_predict` re-validates unchecked batches so invalid rows
    can never silently flow into the equations.

    ``broadcast`` names columns whose rows are all the identical value —
    staging metadata :func:`batch_predict` exploits by reading such a
    column once and folding the steps it feeds.  It is a *trusted
    invariant*, maintained automatically by :meth:`from_base` (the only
    constructor that knows a column was broadcast from one scalar) and
    preserved by slicing/``take``; callers constructing batches directly
    must list a column only if every row truly holds one value, or
    every row will silently be predicted from the column's first value.
    """

    elements_in: np.ndarray
    elements_out: np.ndarray
    bytes_per_element: np.ndarray
    ideal_bandwidth: np.ndarray
    alpha_write: np.ndarray
    alpha_read: np.ndarray
    ops_per_element: np.ndarray
    throughput_proc: np.ndarray
    clock_hz: np.ndarray
    t_soft: np.ndarray
    n_iterations: np.ndarray
    names: tuple[str, ...] = ()
    broadcast: frozenset[str] = frozenset()
    check: InitVar[bool] = True
    checked: bool = field(init=False, default=True)

    def __post_init__(self, check: bool) -> None:
        first = np.asarray(self.elements_in, dtype=np.float64).ravel()
        n = first.shape[0]
        for name in _COLUMNS:
            column = _as_column(name, getattr(self, name), n)
            object.__setattr__(self, name, column)
        if self.names and len(self.names) != n:
            raise ParameterError(
                f"names has {len(self.names)} entries, expected {n}"
            )
        broadcast = frozenset(self.broadcast)
        unknown = broadcast.difference(_COLUMNS)
        if unknown:
            raise ParameterError(
                f"unknown broadcast column(s) {sorted(unknown)}; "
                f"known: {sorted(_COLUMNS)}"
            )
        object.__setattr__(self, "broadcast", broadcast)
        object.__setattr__(self, "checked", bool(check))
        if check:
            self._validate()

    def _validate(self) -> None:
        """Vectorized mirror of the scalar dataclasses' validation.

        Raises for the first rule, in table order, that any row breaks,
        naming that rule's first offending row.
        """
        ok = _rule_ok(self)
        rule_ok = ok.all(axis=1)
        if rule_ok.all():
            return
        rule = int(rule_ok.argmin())
        i = int(ok[rule].argmin())
        name, _, describe = _ROW_RULES[rule]
        raise ParameterError(
            f"{describe(name, float(getattr(self, name)[i]))} at row {i}"
        )

    # ---- construction ------------------------------------------------------

    @classmethod
    def from_inputs(cls, inputs: Sequence[RATInput]) -> "BatchInput":
        """Transpose a sequence of scalar worksheets into columns."""
        inputs = list(inputs)
        if not inputs:
            raise ParameterError("from_inputs requires at least one input")
        return cls(
            elements_in=np.array(
                [r.dataset.elements_in for r in inputs], dtype=np.float64
            ),
            elements_out=np.array(
                [r.dataset.elements_out for r in inputs], dtype=np.float64
            ),
            bytes_per_element=np.array(
                [r.dataset.bytes_per_element for r in inputs], dtype=np.float64
            ),
            ideal_bandwidth=np.array(
                [r.communication.ideal_bandwidth for r in inputs],
                dtype=np.float64,
            ),
            alpha_write=np.array(
                [r.communication.alpha_write for r in inputs], dtype=np.float64
            ),
            alpha_read=np.array(
                [r.communication.alpha_read for r in inputs], dtype=np.float64
            ),
            ops_per_element=np.array(
                [r.computation.ops_per_element for r in inputs],
                dtype=np.float64,
            ),
            throughput_proc=np.array(
                [r.computation.throughput_proc for r in inputs],
                dtype=np.float64,
            ),
            clock_hz=np.array(
                [r.computation.clock_hz for r in inputs], dtype=np.float64
            ),
            t_soft=np.array(
                [r.software.t_soft for r in inputs], dtype=np.float64
            ),
            n_iterations=np.array(
                [r.software.n_iterations for r in inputs], dtype=np.float64
            ),
            names=tuple(r.name for r in inputs),
        )

    @classmethod
    def from_base(
        cls,
        base: RATInput,
        n: int,
        overrides: Mapping[str, object] | None = None,
        names: tuple[str, ...] = (),
        *,
        check: bool = True,
    ) -> "BatchInput":
        """``n`` copies of ``base`` with selected columns overridden.

        ``overrides`` maps column names (see the class fields; SI units)
        to scalars or length-``n`` arrays.  This is the fast constructor
        the exploration layer uses: no per-row ``RATInput`` objects are
        ever materialised.  ``check=False`` defers row validation (see
        the class docstring) for quarantine-style callers.

        Columns left at the base worksheet's value (or overridden with a
        scalar) are recorded in ``broadcast``, which lets
        :func:`batch_predict` read them as scalars instead of streaming
        ``n`` identical values.
        """
        if n < 1:
            raise ParameterError(f"batch size must be >= 1, got {n}")
        columns: dict[str, object] = {
            "elements_in": float(base.dataset.elements_in),
            "elements_out": float(base.dataset.elements_out),
            "bytes_per_element": float(base.dataset.bytes_per_element),
            "ideal_bandwidth": float(base.communication.ideal_bandwidth),
            "alpha_write": float(base.communication.alpha_write),
            "alpha_read": float(base.communication.alpha_read),
            "ops_per_element": float(base.computation.ops_per_element),
            "throughput_proc": float(base.computation.throughput_proc),
            "clock_hz": float(base.computation.clock_hz),
            "t_soft": float(base.software.t_soft),
            "n_iterations": float(base.software.n_iterations),
        }
        broadcast = set(_COLUMNS)
        for name, values in (overrides or {}).items():
            if name not in columns:
                raise ParameterError(
                    f"unknown batch column {name!r}; known: {sorted(columns)}"
                )
            columns[name] = values
            if np.ndim(values) != 0:
                broadcast.discard(name)  # per-row values: not a broadcast
        built = {
            name: _as_column(name, values, n)
            for name, values in columns.items()
        }
        return cls(
            names=names,
            broadcast=frozenset(broadcast),
            check=check,
            **built,
        )

    # ---- conversion --------------------------------------------------------

    def row(self, i: int) -> RATInput:
        """Rehydrate row ``i`` as a scalar :class:`RATInput`."""
        return RATInput(
            name=self.names[i] if self.names else "",
            dataset=DatasetParams(
                elements_in=int(self.elements_in[i]),
                elements_out=int(self.elements_out[i]),
                bytes_per_element=float(self.bytes_per_element[i]),
            ),
            communication=CommunicationParams(
                ideal_bandwidth=float(self.ideal_bandwidth[i]),
                alpha_write=float(self.alpha_write[i]),
                alpha_read=float(self.alpha_read[i]),
            ),
            computation=ComputationParams(
                ops_per_element=float(self.ops_per_element[i]),
                throughput_proc=float(self.throughput_proc[i]),
                clock_hz=float(self.clock_hz[i]),
            ),
            software=SoftwareParams(
                t_soft=float(self.t_soft[i]),
                n_iterations=int(self.n_iterations[i]),
            ),
        )

    def to_inputs(self) -> list[RATInput]:
        """Rehydrate every row (the slow path; prefer staying in arrays)."""
        return [self.row(i) for i in range(len(self))]

    # ---- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return int(self.elements_in.shape[0])

    def __getitem__(self, key: slice) -> "BatchInput":
        """Slice into a smaller batch (used by the chunked executor).

        Validation rules are row-local, so any subset of an
        already-validated batch is itself valid: slices of a checked
        batch inherit ``checked=True`` *without* re-running the rules —
        the chunked executor slices every chunk, and re-validating each
        one made validation an O(chunks) cost instead of O(1).
        """
        if not isinstance(key, slice):
            raise ParameterError(
                "BatchInput supports slice indexing only; use row(i) for "
                "scalar access"
            )
        kwargs = {name: getattr(self, name)[key] for name in _COLUMNS}
        names = self.names[key] if self.names else ()
        sliced = BatchInput(
            names=names, broadcast=self.broadcast, check=False, **kwargs
        )
        if self.checked:
            object.__setattr__(sliced, "checked", True)
        return sliced

    def take(self, indices: np.ndarray, *, check: bool | None = None) -> "BatchInput":
        """Select an arbitrary row subset (fancy indexing, copies).

        ``check`` defaults to the batch's own ``checked`` state; the
        quarantine path passes ``check=True`` when it selects the rows
        that passed :func:`valid_row_mask` out of an unchecked batch.
        """
        indices = np.asarray(indices)
        kwargs = {name: getattr(self, name)[indices] for name in _COLUMNS}
        names = (
            tuple(self.names[int(i)] for i in indices) if self.names else ()
        )
        effective = self.checked if check is None else check
        return BatchInput(
            names=names, broadcast=self.broadcast, check=effective, **kwargs
        )


def mark_rows_valid(batch: BatchInput) -> BatchInput:
    """Upgrade a deferred-validation batch to ``checked`` status, trusted.

    For callers that have *already* established every row passes the
    validation rules — typically by getting an empty
    :func:`row_violations` list, or by selecting rows through
    :func:`valid_row_mask` — re-running ``_validate`` at predict time is
    pure duplicate work.  This marks the batch checked without another
    rule pass (mutating only the monotone ``checked`` flag) and returns
    it.  Never call it on a batch whose rows were not actually vetted:
    invalid rows would then reach the equations as silent inf/NaN.
    """
    if not batch.checked:
        object.__setattr__(batch, "checked", True)
    return batch


@dataclass(frozen=True, eq=False)
class BatchPrediction:
    """Struct-of-arrays result of one :func:`batch_predict` call.

    Field semantics match :class:`~repro.core.throughput
    .ThroughputPrediction` row-wise: ``t_input``/``t_output`` are per
    iteration, ``t_rc`` covers all iterations, and the utilizations
    follow Equations (8)-(11) for the evaluated buffering mode.
    """

    batch: BatchInput
    mode: BufferingMode
    t_input: np.ndarray
    t_output: np.ndarray
    t_comm: np.ndarray
    t_comp: np.ndarray
    t_rc: np.ndarray
    speedup: np.ndarray
    util_comp: np.ndarray
    util_comm: np.ndarray

    def __len__(self) -> int:
        return int(self.t_rc.shape[0])

    def row(self, i: int, rat: RATInput | None = None) -> ThroughputPrediction:
        """Scalar prediction for row ``i``.

        ``rat`` short-circuits the worksheet rehydration when the caller
        still holds the original input object (the sweep backend does).
        """
        return ThroughputPrediction(
            rat=rat if rat is not None else self.batch.row(i),
            mode=self.mode,
            t_input=float(self.t_input[i]),
            t_output=float(self.t_output[i]),
            t_comm=float(self.t_comm[i]),
            t_comp=float(self.t_comp[i]),
            t_rc=float(self.t_rc[i]),
            speedup=float(self.speedup[i]),
            util_comp=float(self.util_comp[i]),
            util_comm=float(self.util_comm[i]),
        )

    def rows(
        self, inputs: Sequence[RATInput] | None = None
    ) -> Iterator[ThroughputPrediction]:
        """Iterate scalar predictions (optionally reusing caller inputs)."""
        if inputs is not None and len(inputs) != len(self):
            raise ParameterError(
                f"got {len(inputs)} inputs for {len(self)} predictions"
            )
        for i in range(len(self)):
            yield self.row(i, inputs[i] if inputs is not None else None)

    @property
    def computation_bound(self) -> np.ndarray:
        """Boolean column: True where computation dominates (row-wise
        analogue of ``ThroughputPrediction.bound``)."""
        return self.t_comp >= self.t_comm

    def argbest(self) -> int:
        """Row index of the highest predicted speedup.

        Quarantined (NaN) rows are ignored; if *every* row is NaN there
        is no best design and a ``ParameterError`` is raised.
        """
        try:
            return int(np.nanargmax(self.speedup))
        except ValueError:
            raise ParameterError(
                "argbest: every row is quarantined (all speedups are NaN)"
            ) from None

    def as_records(self) -> list[dict[str, float]]:
        """Flat per-row dicts mirroring ``ThroughputPrediction.as_dict``."""
        clock_mhz = self.batch.clock_hz / 1e6
        records = []
        for i in range(len(self)):
            record = {
                "clock_mhz": float(clock_mhz[i]),
                "t_input": float(self.t_input[i]),
                "t_output": float(self.t_output[i]),
                "t_comm": float(self.t_comm[i]),
                "t_comp": float(self.t_comp[i]),
                "t_rc": float(self.t_rc[i]),
                "speedup": float(self.speedup[i]),
                "util_comp": float(self.util_comp[i]),
                "util_comm": float(self.util_comm[i]),
            }
            if self.batch.names:
                record["name"] = self.batch.names[i]
            records.append(record)
        return records


def batch_predict(
    batch: BatchInput, mode: BufferingMode = BufferingMode.SINGLE
) -> BatchPrediction:
    """Equations (1)-(11) over every row of ``batch`` at once.

    Each row is computed with the same operation order as the scalar
    :func:`repro.core.throughput.predict`, so results agree bitwise.
    The call increments ``throughput.predictions`` by the batch size and
    feeds the ``throughput.speedup`` histogram in bulk, keeping metric
    semantics consistent with the scalar path.

    Columns listed in ``batch.broadcast`` are read once as floats, and
    any step whose operands are all floats is computed once instead of
    per row: the same IEEE-754 operation, so folding never changes a
    bit.  A result left as a float is returned as a filled column.  Every
    returned column is a fresh array owned by the caller.
    """
    if mode not in (BufferingMode.SINGLE, BufferingMode.DOUBLE):
        raise ParameterError(f"unknown buffering mode {mode!r}")
    if not batch.checked:
        # A deferred-validation batch must never reach the equations with
        # invalid rows: the divisions below would turn them into silent
        # inf/NaN where the scalar path raises.  Quarantine callers split
        # the batch with row_violations()/take() before predicting.
        batch._validate()
    n = len(batch)
    with get_tracer().span(
        "rat.batch_predict", {"points": n, "mode": mode.value}, "throughput"
    ):
        operands = _get_columns(batch)
        if n and batch.broadcast:
            operands = tuple(
                float(column[0]) if name in batch.broadcast else column
                for name, column in zip(_COLUMNS, operands)
            )
        (e_in, e_out, bpe, bandwidth, alpha_write, alpha_read, ops, proc,
         clock_hz, t_soft, n_iterations) = operands
        # Plain operators, so a step whose operands are all floats runs
        # once in Python and a step touching a column runs per row in
        # numpy.  Equation (2), same op order as scalar.
        t_input = e_in * bpe / (alpha_write * bandwidth)
        # Equation (3), with the scalar path's zero-output short-circuit.
        if isinstance(e_out, float):
            t_output = (
                0.0 if e_out == 0 else e_out * bpe / (alpha_read * bandwidth)
            )
        else:
            t_output = e_out * bpe / (alpha_read * bandwidth)
            np.copyto(t_output, 0.0, where=e_out == 0)
        # Equations (1), (4).
        t_comm = t_input + t_output
        t_comp = e_in * ops / (clock_hz * proc)
        # Equations (5)-(11).
        if mode is BufferingMode.SINGLE:
            t_iteration = t_comm + t_comp
        else:
            t_iteration = np.maximum(t_comm, t_comp)
        t_rc = n_iterations * t_iteration
        results = {
            "t_input": t_input,
            "t_output": t_output,
            "t_comm": t_comm,
            "t_comp": t_comp,
            "t_rc": t_rc,
            "speedup": t_soft / t_rc,
            "util_comp": t_comp / t_iteration,
            "util_comm": t_comm / t_iteration,
        }
        prediction = BatchPrediction(
            batch=batch,
            mode=mode,
            **{
                name: value if isinstance(value, np.ndarray)
                else np.full(n, value)
                for name, value in results.items()
            },
        )
    metrics = get_metrics()
    metrics.counter("throughput.predictions").inc(n)
    metrics.histogram("throughput.speedup").observe_many(prediction.speedup)
    return prediction
