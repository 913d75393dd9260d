"""Row-level quarantine: batch/scalar error parity and NaN hygiene.

The acceptance bar: ``batch_predict`` never silently returns non-finite
rows for inputs the scalar path rejects, and quarantine diagnostics name
the offending parameter with the exact scalar error message.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.batch import (
    BatchInput,
    batch_predict,
    row_violations,
    valid_row_mask,
)
from repro.core.params import (
    at_least_one_violation,
    fraction_violation,
    nonnegative_violation,
    positive_violation,
)
from repro.errors import ParameterError
from repro.explore import DesignSpace, explore

#: (column, bad value, scalar parameter-group attribute).  Values are
#: floats so the scalar validators interpolate them identically to the
#: float64 batch columns.
PARITY_CASES = [
    ("elements_in", 0.0, "dataset"),
    ("elements_in", -4.0, "dataset"),
    ("elements_out", -1.0, "dataset"),
    ("bytes_per_element", 0.0, "dataset"),
    ("ideal_bandwidth", 0.0, "communication"),
    ("ideal_bandwidth", float("inf"), "communication"),
    ("alpha_write", 0.0, "communication"),
    ("alpha_write", 1.5, "communication"),
    ("alpha_read", -0.2, "communication"),
    ("alpha_read", float("nan"), "communication"),
    ("ops_per_element", 0.0, "computation"),
    ("throughput_proc", float("nan"), "computation"),
    ("clock_hz", 0.0, "computation"),
    ("clock_hz", -1e8, "computation"),
    ("t_soft", 0.0, "software"),
    ("n_iterations", 0.0, "software"),
]


def _scalar_message(rat, group, column, value):
    """The ParameterError text the scalar dataclasses raise."""
    with pytest.raises(ParameterError) as excinfo:
        replace(getattr(rat, group), **{column: value})
    return str(excinfo.value)


class TestScalarBatchParity:
    @pytest.mark.parametrize("column, value, group", PARITY_CASES)
    def test_violation_message_matches_scalar(
        self, simple_rat, column, value, group
    ):
        scalar_message = _scalar_message(simple_rat, group, column, value)
        # Row 1 only carries the bad value; rows 0 and 2 stay valid.
        good = float(getattr(getattr(simple_rat, group), column))
        batch = BatchInput.from_base(
            simple_rat, 3, {column: [good, value, good]}, check=False
        )
        violations = row_violations(batch)
        assert [v.row for v in violations] == [1]
        assert violations[0].column == column
        assert violations[0].message == scalar_message

    @pytest.mark.parametrize("column, value, group", PARITY_CASES)
    def test_checked_batch_raises_scalar_message(
        self, simple_rat, column, value, group
    ):
        scalar_message = _scalar_message(simple_rat, group, column, value)
        good = float(getattr(getattr(simple_rat, group), column))
        with pytest.raises(ParameterError) as excinfo:
            BatchInput.from_base(simple_rat, 2, {column: [good, value]})
        assert str(excinfo.value) == f"{scalar_message} at row 1"

    def test_first_rule_wins_like_scalar(self, simple_rat):
        # A row violating several rules reports them in worksheet column
        # order, matching which __post_init__ check fires first.
        batch = BatchInput.from_base(
            simple_rat, 1,
            {"elements_in": 0.0, "clock_hz": 0.0, "alpha_write": 2.0},
            check=False,
        )
        violations = row_violations(batch)
        assert len(violations) == 1
        assert violations[0].column == "elements_in"


#: Values at and around every rule's edges, including the ones a bounds
#: comparison could get wrong: signed zero, the smallest subnormal, the
#: largest finite float and both infinities.
EDGE_VALUES = [
    float("nan"), float("-inf"), -1.0, -0.0, 0.0, 5e-324, 1e-300, 0.5,
    np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 2.0,
    np.finfo(np.float64).max, float("inf"),
]

_SCALAR_RULES = {
    "elements_in": positive_violation,
    "bytes_per_element": positive_violation,
    "ideal_bandwidth": positive_violation,
    "ops_per_element": positive_violation,
    "throughput_proc": positive_violation,
    "clock_hz": positive_violation,
    "t_soft": positive_violation,
    "elements_out": nonnegative_violation,
    "alpha_write": fraction_violation,
    "alpha_read": fraction_violation,
    "n_iterations": at_least_one_violation,
}


class TestRuleBoundaries:
    @pytest.mark.parametrize("column", sorted(_SCALAR_RULES))
    def test_stacked_pass_agrees_with_scalar_rule(self, simple_rat, column):
        describe = _SCALAR_RULES[column]
        values = [float(v) for v in EDGE_VALUES]
        batch = BatchInput.from_base(
            simple_rat, len(values), {column: values}, check=False
        )
        expected = [
            (i, describe(column, v)) for i, v in enumerate(values)
            if describe(column, v) is not None
        ]
        assert [(v.row, v.message) for v in row_violations(batch)] == expected
        bad_rows = {i for i, _ in expected}
        assert valid_row_mask(batch).tolist() == [
            i not in bad_rows for i in range(len(values))
        ]


class TestDeferredValidation:
    def test_unchecked_batch_survives_construction(self, simple_rat):
        batch = BatchInput.from_base(
            simple_rat, 2, {"clock_hz": [0.0, 1e8]}, check=False
        )
        assert not batch.checked
        assert valid_row_mask(batch).tolist() == [False, True]

    def test_batch_predict_never_evaluates_invalid_rows(self, simple_rat):
        # The safety net: even a deferred-validation batch cannot reach
        # the equations with rows the scalar path rejects.
        batch = BatchInput.from_base(
            simple_rat, 2, {"clock_hz": [0.0, 1e8]}, check=False
        )
        with pytest.raises(ParameterError, match="clock_hz"):
            batch_predict(batch)

    def test_unchecked_valid_batch_predicts(self, simple_rat):
        batch = BatchInput.from_base(simple_rat, 3, check=False)
        prediction = batch_predict(batch)
        assert np.isfinite(prediction.speedup).all()

    def test_slicing_preserves_checked_state(self, simple_rat):
        batch = BatchInput.from_base(
            simple_rat, 4, {"clock_hz": [0.0, 1e8, 2e8, 3e8]}, check=False
        )
        assert not batch[0:2].checked

    def test_take_selects_valid_rows(self, simple_rat):
        batch = BatchInput.from_base(
            simple_rat, 4, {"clock_hz": [0.0, 1e8, -1.0, 2e8]}, check=False
        )
        valid = np.flatnonzero(valid_row_mask(batch))
        taken = batch.take(valid, check=True)
        assert taken.checked
        assert taken.clock_hz.tolist() == [1e8, 2e8]

    def test_argbest_all_nan_raises(self, simple_rat):
        prediction = batch_predict(BatchInput.from_base(simple_rat, 2))
        nan_prediction = replace(
            prediction, speedup=np.full(2, np.nan)
        )
        with pytest.raises(ParameterError, match="quarantined"):
            nan_prediction.argbest()


class TestExploreQuarantine:
    def test_diagnostics_name_parameter_and_axes(self, pdf1d_rat):
        space = DesignSpace.grid(pdf1d_rat, clock_mhz=[0.0, 100.0, 150.0])
        result = explore(space, on_error="quarantine")
        assert len(result) == 3
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 0
        assert failure.parameter == "clock_hz"
        assert failure.point == {"clock_mhz": 0.0}
        assert failure.describe() == (
            "point 0 (clock_mhz=0): "
            "clock_hz must be positive and finite, got 0.0"
        )

    def test_quarantined_rows_are_nan_valid_rows_exact(self, pdf1d_rat):
        clocks = [75.0, 0.0, 100.0, -5.0, 150.0]
        space = DesignSpace.grid(pdf1d_rat, clock_mhz=clocks)
        result = explore(space, on_error="quarantine")
        clean = explore(
            DesignSpace.grid(pdf1d_rat, clock_mhz=[75.0, 100.0, 150.0])
        )
        assert np.isnan(result.prediction.speedup[[1, 3]]).all()
        assert (
            result.prediction.speedup[[0, 2, 4]].tobytes()
            == clean.prediction.speedup.tobytes()
        )
        assert result.n_failed == 2

    def test_skip_drops_rows_and_maps_indices(self, pdf1d_rat):
        space = DesignSpace.grid(pdf1d_rat, clock_mhz=[75.0, 0.0, 150.0])
        result = explore(space, on_error="skip")
        assert len(result) == 2
        assert result.indices.tolist() == [0, 2]
        assert [result.design_index(i) for i in range(2)] == [0, 2]
        records = result.as_records()
        assert [r["clock_mhz"] for r in records] == [75.0, 150.0]

    def test_best_skips_quarantined_rows(self, pdf1d_rat):
        space = DesignSpace.grid(pdf1d_rat, clock_mhz=[100.0, 0.0, 150.0])
        point, _ = explore(space, on_error="quarantine").best()
        assert point == {"clock_mhz": 150.0}

    def test_fail_policy_unchanged(self, pdf1d_rat):
        space = DesignSpace.grid(pdf1d_rat, clock_mhz=[0.0, 150.0])
        with pytest.raises(ParameterError, match="clock_hz"):
            explore(space)

    def test_all_points_quarantined(self, pdf1d_rat):
        space = DesignSpace.grid(pdf1d_rat, clock_mhz=[0.0, -1.0])
        result = explore(space, on_error="quarantine")
        assert len(result.failures) == 2
        assert np.isnan(result.prediction.speedup).all()
