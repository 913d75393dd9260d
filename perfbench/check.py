"""Output checker: every result the program returns is compared after the
timed window against an independent scalar reference.

The reference is the scalar path — ``RATInput.from_dict`` and
``repro.core.throughput.predict`` — never the batch engine, plan kernel or
service code the benchmark is timing.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

#: Fields of one prediction record, as served by ``/v1/predict``.
RESULT_FIELDS = (
    "t_input",
    "t_output",
    "t_comm",
    "t_comp",
    "t_rc",
    "speedup",
    "util_comp",
    "util_comm",
)

_MODES = {"both": ("single", "double"), "single": ("single",), "double": ("double",)}


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def same_bits(a: float, b: float) -> bool:
    """IEEE-754 bitwise equality (distinguishes -0.0, matches NaNs)."""
    return _bits(float(a)) == _bits(float(b))


class PredictReference:
    """Expected ``/v1/predict`` outcome per (worksheet, mode), memoized."""

    def __init__(self, pool: list[dict]) -> None:
        self.pool = pool
        self._expected: dict[tuple[int, str], tuple[int, object]] = {}

    def expected(self, index: int, mode: str) -> tuple[int, object]:
        """(status, payload): 200 + {mode: record} or 400 + diagnostic."""
        key = (index, mode)
        hit = self._expected.get(key)
        if hit is None:
            hit = self._expected[key] = self._compute(self.pool[index], mode)
        return hit

    @staticmethod
    def _compute(worksheet: dict, mode: str) -> tuple[int, object]:
        from repro.core.buffering import BufferingMode
        from repro.core.params import RATInput
        from repro.core.throughput import predict
        from repro.errors import ParameterError

        try:
            rat = RATInput.from_dict(worksheet)
        except ParameterError as exc:
            return 400, str(exc)
        record = {}
        for value in _MODES[mode]:
            prediction = predict(rat, BufferingMode(value))
            record[value] = {
                name: getattr(prediction, name) for name in RESULT_FIELDS
            }
        return 200, record

    def check(self, index: int, mode: str, status: int, body: bytes) -> str:
        """'' when the response is right, else a one-line reason."""
        want_status, want = self.expected(index, mode)
        if status != want_status:
            return f"status {status}, expected {want_status}"
        try:
            payload = json.loads(body)
        except ValueError:
            return "response body is not JSON"
        if want_status == 400:
            got = payload.get("error")
            return "" if got == want else f"diagnostic {got!r} != {want!r}"
        got = payload.get("predictions")
        if not isinstance(got, dict) or set(got) != set(want):
            return f"prediction modes {sorted(got or ())} != {sorted(want)}"
        for value, record in want.items():
            for name in RESULT_FIELDS:
                if not same_bits(got[value].get(name, math.nan), record[name]):
                    return f"{value}.{name} {got[value].get(name)!r} != {record[name]!r}"
        return ""


def check_exploration(result, space, invalid: np.ndarray | None, rng) -> str:
    """'' when an ``explore`` result is right, else a one-line reason.

    Checks the failure count and the failed rows against the generator's
    invalid mask, NaN fill of failed rows, and 64 sampled valid rows
    bitwise against scalar ``predict`` on ``space.design(i)``.
    """
    from repro.core.throughput import predict

    n = len(space)
    if len(result) != n:
        return f"{len(result)} rows, expected {n}"
    expected_failed = int(invalid.sum()) if invalid is not None else 0
    if result.n_failed != expected_failed:
        return f"failed_points {result.n_failed}, expected {expected_failed}"
    speedup = result.prediction.speedup
    if invalid is not None and expected_failed:
        failed_rows = sorted(f.index for f in result.failures)
        if failed_rows != np.flatnonzero(invalid).tolist():
            return "failed rows differ from the generator's invalid points"
        if not np.isnan(speedup[invalid]).all():
            return "a failed row carries a prediction"
    valid = np.flatnonzero(~invalid) if invalid is not None else np.arange(n)
    for i in rng.choice(valid, size=min(64, len(valid)), replace=False):
        scalar = predict(space.design(int(i)), result.mode)
        for name in RESULT_FIELDS:
            got = getattr(result.prediction, name)[i]
            if not same_bits(got, getattr(scalar, name)):
                return f"row {i} {name} {got!r} != scalar {getattr(scalar, name)!r}"
    return ""


#: Paper anchors: (experiment, report label fragment, field, printed
#: value, one unit of its last printed digit).  The reproduction must lie
#: within one unit of the paper's printed figure.
PAPER_ANCHORS = (
    ("table3", "predicted @ 150 MHz", "t_rc", 5.46e-2, 1e-4),
    ("table3", "predicted @ 150 MHz", "speedup", 10.6, 0.1),
    ("table6", "predicted @ 150 MHz", "speedup", 6.9, 0.1),
    ("table9", "predicted @ 100 MHz", "speedup", 10.7, 0.1),
)


def check_experiments(results) -> list[str]:
    """One reason per experiment out of tolerance or paper anchor missed."""
    problems = []
    by_id = {r.experiment_id: r for r in results}
    for result in results:
        if not result.all_within:
            problems.append(f"{result.experiment_id} out of tolerance")
    for eid, label, field, value, unit in PAPER_ANCHORS:
        result = by_id.get(eid)
        cells = [
            cell
            for report in (result.comparisons if result else ())
            if label in report.label
            for cell in report.cells
            if cell.key == field
        ]
        if not cells or not abs(cells[0].reproduced - value) < unit:
            got = cells[0].reproduced if cells else None
            problems.append(f"{eid} {field} anchor {value} missed (got {got})")
    return problems
