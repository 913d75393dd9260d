"""Batch prediction engine tests: parity, round-tripping, validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_case_study, list_case_studies
from repro.core.batch import BatchInput, batch_predict, mark_rows_valid
from repro.core.buffering import BufferingMode
from repro.core.params import fraction_violation
from repro.core.throughput import predict
from repro.errors import ParameterError
from repro.obs import get_metrics

from tests.conftest import rat_inputs

COLUMNS = (
    "elements_in", "elements_out", "bytes_per_element", "ideal_bandwidth",
    "alpha_write", "alpha_read", "ops_per_element", "throughput_proc",
    "clock_hz", "t_soft", "n_iterations",
)

RESULT_COLUMNS = (
    "t_input", "t_output", "t_comm", "t_comp", "t_rc",
    "speedup", "util_comp", "util_comm",
)

MODES = (BufferingMode.SINGLE, BufferingMode.DOUBLE)


def _random_inputs(base, rng, n):
    """A varied family of worksheets derived from one base."""
    clocks = rng.uniform(25e6, 400e6, n)
    procs = rng.uniform(0.5, 64.0, n)
    alphas = rng.uniform(0.05, 1.0, n)
    return [
        base.with_clock_hz(c).with_throughput_proc(t).with_alphas(a, a)
        for c, t, a in zip(clocks, procs, alphas)
    ]


class TestBatchInput:
    def test_from_inputs_round_trips(self, pdf1d_rat, md_rat, simple_rat):
        inputs = [pdf1d_rat, md_rat, simple_rat]
        batch = BatchInput.from_inputs(inputs)
        assert len(batch) == 3
        for i, rat in enumerate(inputs):
            assert batch.row(i) == rat
        assert batch.to_inputs() == inputs

    def test_from_inputs_empty_rejected(self):
        with pytest.raises(ParameterError, match="at least one"):
            BatchInput.from_inputs([])

    def test_from_base_broadcasts_scalars(self, simple_rat):
        batch = BatchInput.from_base(simple_rat, 4)
        assert len(batch) == 4
        for i in range(4):
            assert batch.row(i) == simple_rat.with_name("")

    def test_from_base_override_column(self, simple_rat):
        batch = BatchInput.from_base(
            simple_rat, 3, {"clock_hz": [1e8, 2e8, 3e8]}
        )
        assert batch.row(2).computation.clock_hz == 3e8
        assert batch.row(0).dataset.elements_in == 1000

    def test_from_base_unknown_column(self, simple_rat):
        with pytest.raises(ParameterError, match="unknown batch column"):
            BatchInput.from_base(simple_rat, 2, {"bogus": [1, 2]})

    def test_from_base_length_mismatch(self, simple_rat):
        with pytest.raises(ParameterError, match="rows"):
            BatchInput.from_base(simple_rat, 3, {"clock_hz": [1e8, 2e8]})

    def test_validation_names_field_and_row(self, simple_rat):
        with pytest.raises(ParameterError, match="alpha_write.*row 1"):
            BatchInput.from_base(simple_rat, 3, {"alpha_write": [0.5, 1.5, 0.5]})
        with pytest.raises(ParameterError, match="elements_in"):
            BatchInput.from_base(simple_rat, 2, {"elements_in": [100, -1]})
        with pytest.raises(ParameterError, match="n_iterations"):
            BatchInput.from_base(simple_rat, 2, {"n_iterations": [1, 0]})
        with pytest.raises(ParameterError, match="clock_hz"):
            BatchInput.from_base(simple_rat, 2, {"clock_hz": [1e8, float("nan")]})

    def test_slicing(self, pdf1d_rat, rng):
        inputs = _random_inputs(pdf1d_rat, rng, 10)
        batch = BatchInput.from_inputs(inputs)
        chunk = batch[3:7]
        assert len(chunk) == 4
        assert chunk.row(0) == inputs[3].with_name(chunk.row(0).name)
        with pytest.raises(ParameterError, match="slice"):
            batch[3]

    def test_names_length_checked(self, simple_rat):
        with pytest.raises(ParameterError, match="names"):
            BatchInput.from_base(simple_rat, 3, names=("a",))

    def test_validation_past_the_first_stacked_block(self, simple_rat):
        # Large batches are checked a block of rows at a time; rows in
        # later blocks are diagnosed the same as rows in the first.
        from repro.core.batch import row_violations, valid_row_mask

        n = 40_000
        clock = np.full(n, 1e8)
        alpha = np.full(n, 0.5)
        clock[39_999] = -1.0
        alpha[20_000] = 1.5
        batch = BatchInput.from_base(
            simple_rat, n, {"clock_hz": clock, "alpha_write": alpha},
            check=False,
        )
        assert [(v.row, v.column) for v in row_violations(batch)] == [
            (20_000, "alpha_write"), (39_999, "clock_hz"),
        ]
        assert np.flatnonzero(~valid_row_mask(batch)).tolist() == [
            20_000, 39_999,
        ]
        # The first rule in table order (clock_hz) is raised, at its row.
        with pytest.raises(ParameterError, match=r"clock_hz.*row 39999$"):
            batch_predict(batch)


class TestBatchPredictParity:
    @pytest.mark.parametrize("mode", list(BufferingMode))
    def test_matches_scalar_within_1e12(self, pdf1d_rat, rng, mode):
        inputs = _random_inputs(pdf1d_rat, rng, 200)
        result = batch_predict(BatchInput.from_inputs(inputs), mode)
        fields = ("t_input", "t_output", "t_comm", "t_comp", "t_rc",
                  "speedup", "util_comp", "util_comm")
        for i, rat in enumerate(inputs):
            scalar = predict(rat, mode)
            for name in fields:
                expected = getattr(scalar, name)
                got = float(getattr(result, name)[i])
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), (
                    f"{name} row {i}"
                )

    @given(rat_inputs())
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_on_hypothesis_inputs(self, rat):
        for mode in BufferingMode:
            scalar = predict(rat, mode)
            row = batch_predict(BatchInput.from_inputs([rat]), mode).row(0)
            assert row.t_rc == pytest.approx(scalar.t_rc, rel=1e-12)
            assert row.speedup == pytest.approx(scalar.speedup, rel=1e-12)
            assert row.util_comm == pytest.approx(scalar.util_comm, rel=1e-12)

    def test_zero_output_elements(self, pdf1d_rat):
        # pdf1d communicates a single output element; force zero to hit
        # the scalar short-circuit branch.
        import dataclasses

        rat = dataclasses.replace(
            pdf1d_rat,
            dataset=dataclasses.replace(pdf1d_rat.dataset, elements_out=0),
        )
        result = batch_predict(BatchInput.from_inputs([rat]))
        assert float(result.t_output[0]) == 0.0
        assert float(result.t_comm[0]) == predict(rat).t_comm

    def test_row_rehydrates_prediction(self, md_rat):
        result = batch_predict(BatchInput.from_inputs([md_rat]))
        row = result.row(0)
        scalar = predict(md_rat)
        assert row.rat == md_rat
        assert row.mode is BufferingMode.SINGLE
        assert row.bound == scalar.bound
        assert row.as_dict() == scalar.as_dict()

    def test_rows_with_mismatched_inputs_rejected(self, md_rat):
        result = batch_predict(BatchInput.from_inputs([md_rat]))
        with pytest.raises(ParameterError, match="inputs"):
            list(result.rows([md_rat, md_rat]))


class TestBatchPredictionHelpers:
    def test_computation_bound_column(self, pdf1d_rat, md_rat):
        result = batch_predict(BatchInput.from_inputs([pdf1d_rat, md_rat]))
        expected = [predict(r).bound == "computation"
                    for r in (pdf1d_rat, md_rat)]
        assert list(result.computation_bound) == expected

    def test_argbest(self, pdf1d_rat):
        inputs = [pdf1d_rat.with_clock_hz(c) for c in (75e6, 150e6, 100e6)]
        result = batch_predict(BatchInput.from_inputs(inputs))
        assert result.argbest() == 1

    def test_as_records(self, simple_rat):
        result = batch_predict(BatchInput.from_inputs([simple_rat]))
        (record,) = result.as_records()
        assert record["name"] == "simple"
        assert record["speedup"] == pytest.approx(predict(simple_rat).speedup)

    def test_invalid_mode_rejected(self, simple_rat):
        with pytest.raises(ParameterError):
            batch_predict(BatchInput.from_inputs([simple_rat]), "triple")


class TestBatchMetrics:
    def test_counter_incremented_by_batch_size(self, simple_rat):
        metrics = get_metrics()
        before = metrics.counter("throughput.predictions").value
        batch_predict(BatchInput.from_base(simple_rat, 17))
        assert metrics.counter("throughput.predictions").value == before + 17

    def test_speedup_histogram_fed_in_bulk(self, simple_rat):
        metrics = get_metrics()
        histogram = metrics.histogram("throughput.speedup")
        before = histogram.count
        batch_predict(BatchInput.from_base(simple_rat, 23))
        assert histogram.count == before + 23


class TestBroadcastMetadata:
    """The trusted constant-column metadata batch_predict folds."""

    def test_from_base_marks_everything_broadcast(self, simple_rat):
        batch = BatchInput.from_base(simple_rat, 10)
        assert len(batch.broadcast) == 11

    def test_array_override_clears_broadcast(self, simple_rat):
        batch = BatchInput.from_base(
            simple_rat, 10,
            {"clock_hz": np.linspace(5e7, 3e8, 10), "alpha_write": 0.5},
        )
        assert "clock_hz" not in batch.broadcast
        assert "alpha_write" in batch.broadcast  # scalar override: constant
        assert "t_soft" in batch.broadcast

    def test_from_inputs_has_no_broadcast(self, simple_rat):
        assert BatchInput.from_inputs([simple_rat]).broadcast == frozenset()

    def test_slicing_preserves_broadcast_and_checked(self, simple_rat):
        batch = BatchInput.from_base(
            simple_rat, 20, {"clock_hz": np.linspace(5e7, 3e8, 20)}
        )
        sliced = batch[3:9]
        assert sliced.broadcast == batch.broadcast
        assert sliced.checked  # rules are row-local: subsets stay valid

    def test_take_preserves_broadcast(self, simple_rat):
        batch = BatchInput.from_base(simple_rat, 20)
        taken = batch.take(np.array([1, 5, 7], dtype=np.intp))
        assert taken.broadcast == batch.broadcast

    def test_unknown_broadcast_name_rejected(self, simple_rat):
        batch = BatchInput.from_base(simple_rat, 4)
        columns = {
            name: getattr(batch, name)
            for name in (
                "elements_in", "elements_out", "bytes_per_element",
                "ideal_bandwidth", "alpha_write", "alpha_read",
                "ops_per_element", "throughput_proc", "clock_hz",
                "t_soft", "n_iterations",
            )
        }
        with pytest.raises(ParameterError, match="unknown broadcast"):
            BatchInput(**columns, broadcast=frozenset({"warp_drive"}))

    def test_broadcast_batch_predict_parity(self, simple_rat):
        # Folding changes cost, never bits: a broadcast-rich batch and a
        # plain batch with identical columns agree bitwise.
        rich = BatchInput.from_base(
            simple_rat, 50, {"clock_hz": np.linspace(5e7, 3e8, 50)}
        )
        plain = BatchInput(*(
            getattr(rich, name).copy()
            for name in (
                "elements_in", "elements_out", "bytes_per_element",
                "ideal_bandwidth", "alpha_write", "alpha_read",
                "ops_per_element", "throughput_proc", "clock_hz",
                "t_soft", "n_iterations",
            )
        ))
        assert plain.broadcast == frozenset()
        a = batch_predict(rich)
        b = batch_predict(plain)
        assert np.array_equal(a.speedup, b.speedup)
        assert np.array_equal(a.t_rc, b.t_rc)


class TestMarkRowsValid:
    def test_upgrades_unchecked_batch(self, simple_rat):
        batch = BatchInput.from_base(simple_rat, 5, check=False)
        assert not batch.checked
        upgraded = mark_rows_valid(batch)
        assert upgraded is batch
        assert batch.checked

    def test_checked_batch_is_untouched(self, simple_rat):
        batch = BatchInput.from_base(simple_rat, 5)
        assert mark_rows_valid(batch) is batch
        assert batch.checked

    def test_marked_batch_skips_validation_in_predict(self, simple_rat):
        # An (incorrectly) trusted invalid batch flows straight through:
        # mark_rows_valid is an explicit caller assertion, not a check.
        batch = BatchInput.from_base(
            simple_rat, 3, {"alpha_write": np.array([0.5, 7.0, 0.5])},
            check=False,
        )
        mark_rows_valid(batch)
        result = batch_predict(batch)  # no ParameterError raised
        assert len(result) == 3


def unmarked(batch, *, check=True):
    """The same columns with no broadcast marks: nothing is folded."""
    return BatchInput(
        **{name: getattr(batch, name).copy() for name in COLUMNS},
        check=check,
    )


def assert_bitwise(result, reference, context=""):
    for name in RESULT_COLUMNS:
        assert np.array_equal(
            getattr(result, name), getattr(reference, name)
        ), f"{name} diverged {context}"


def assert_marked_unmarked_scalar(batch, mode, context=""):
    """Marked, unmarked and scalar evaluation agree bitwise on every row."""
    assert batch.broadcast, "expected a broadcast-marked batch"
    marked = batch_predict(batch, mode)
    plain = unmarked(batch)
    assert plain.broadcast == frozenset()
    assert_bitwise(marked, batch_predict(plain, mode), context)
    for i in range(len(batch)):
        scalar = predict(batch.row(i), mode)
        for name in RESULT_COLUMNS:
            assert float(getattr(marked, name)[i]) == getattr(scalar, name), (
                f"{name} row {i} diverged from scalar {context}"
            )


def space_batch(base, n, seed=7, *, alphas=True):
    """A from_base batch sweeping the clock (and both alphas) over ``base``."""
    rng = np.random.default_rng(seed)
    overrides = {"clock_hz": rng.uniform(50e6, 300e6, n)}
    if alphas:
        overrides["alpha_write"] = rng.uniform(0.1, 0.95, n)
        overrides["alpha_read"] = rng.uniform(0.1, 0.95, n)
    return BatchInput.from_base(base, n, overrides)


class TestBroadcastFolding:
    """batch_predict folds broadcast columns without changing a bit."""

    @pytest.mark.parametrize("name", list_case_studies())
    @pytest.mark.parametrize("mode", MODES)
    def test_every_registry_worksheet(self, name, mode):
        base = get_case_study(name).rat
        # Clock-only: Eqs (2)-(3) fold to scalars; with alphas they stream.
        for alphas in (False, True):
            assert_marked_unmarked_scalar(
                space_batch(base, 500, alphas=alphas), mode,
                f"({name}, {mode.value}, alphas={alphas})",
            )

    @settings(max_examples=25, deadline=None)
    @given(inputs=st.lists(rat_inputs(), min_size=1, max_size=8),
           mode=st.sampled_from(MODES))
    def test_property_parity_on_random_worksheets(self, inputs, mode):
        # Every column but the clock and alpha_read broadcasts from the
        # first worksheet; those two vary across the drawn worksheets.
        batch = BatchInput.from_base(inputs[0], len(inputs), {
            "clock_hz": [r.computation.clock_hz for r in inputs],
            "alpha_read": [r.communication.alpha_read for r in inputs],
        })
        assert_marked_unmarked_scalar(batch, mode)
        rows = batch_predict(BatchInput.from_inputs(inputs), mode)
        for i, rat in enumerate(inputs):
            scalar = predict(rat, mode)
            for name in RESULT_COLUMNS:
                assert float(getattr(rows, name)[i]) == getattr(scalar, name)

    def test_zero_output_rows(self, pdf1d_rat):
        # elements_out == 0 rows take the zero-cost output branch while
        # the other columns stay broadcast.
        batch = space_batch(pdf1d_rat, 500)
        columns = {name: getattr(batch, name).copy() for name in COLUMNS}
        columns["elements_out"][::3] = 0.0
        mixed = BatchInput(
            **columns, broadcast=batch.broadcast - {"elements_out"}
        )
        result = batch_predict(mixed)
        assert np.all(result.t_output[::3] == 0.0)
        assert_marked_unmarked_scalar(mixed, BufferingMode.SINGLE)

    def test_all_outputs_zero_broadcast(self, simple_rat):
        # A broadcast elements_out of exactly 0 must still zero the
        # whole t_output column, like the scalar path's short-circuit.
        base = dataclasses.replace(
            simple_rat,
            dataset=dataclasses.replace(simple_rat.dataset, elements_out=0),
        )
        batch = BatchInput.from_base(
            base, 100, {"clock_hz": np.linspace(5e7, 3e8, 100)}
        )
        result = batch_predict(batch)
        assert np.all(result.t_output == 0.0)
        for mode in MODES:
            assert_marked_unmarked_scalar(batch, mode)

    def test_fully_broadcast_batch(self, md_rat):
        # Every operand folds: each result is one value, filled per row.
        batch = BatchInput.from_base(md_rat, 7)
        for mode in MODES:
            assert_marked_unmarked_scalar(batch, mode)

    def test_unchecked_batch_raises_identical_diagnostic(self, pdf1d_rat):
        batch = space_batch(pdf1d_rat, 8)
        columns = {name: getattr(batch, name).copy() for name in COLUMNS}
        columns["alpha_write"][3] = 1.7
        bad = BatchInput(**columns, broadcast=batch.broadcast, check=False)
        with pytest.raises(ParameterError) as marked_error:
            batch_predict(bad)
        with pytest.raises(ParameterError) as plain_error:
            batch_predict(unmarked(bad, check=False))
        expected = f"{fraction_violation('alpha_write', 1.7)} at row 3"
        assert str(marked_error.value) == expected
        assert str(plain_error.value) == expected

    def test_results_are_caller_owned(self, pdf1d_rat):
        # Fresh, unaliased columns: no view of an input or another result.
        for batch in (space_batch(pdf1d_rat, 64, alphas=False),
                      unmarked(space_batch(pdf1d_rat, 64))):
            result = batch_predict(batch)
            columns = [getattr(result, name) for name in RESULT_COLUMNS]
            assert all(column.flags.owndata for column in columns)
            assert len({id(column) for column in columns}) == len(columns)
            again = batch_predict(batch)
            for column in columns:
                column[:] = -1.0
            assert_bitwise(batch_predict(batch), again)

    def test_empty_broadcast_batch(self, pdf1d_rat):
        # take() keeps broadcast marks; zero rows have nothing to read.
        batch = BatchInput.from_base(pdf1d_rat, 4)
        empty = batch.take(np.array([], dtype=np.intp))
        assert empty.broadcast == batch.broadcast
        result = batch_predict(empty)
        assert all(
            getattr(result, name).shape == (0,) for name in RESULT_COLUMNS
        )
