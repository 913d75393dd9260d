"""Sweep and crossover analysis tests."""

import pytest

from repro.analysis.sweep import (
    crossover_block_size,
    double_buffer_gain,
    sweep,
    sweep_alpha,
    sweep_clock,
    sweep_throughput_proc,
)
from repro.core.throughput import predict
from repro.errors import ParameterError


class TestSweep:
    def test_clock_sweep_speedups_increase(self, pdf1d_rat):
        result = sweep_clock(pdf1d_rat, [75e6, 100e6, 150e6])
        speedups = result.speedups()
        assert speedups == sorted(speedups)
        assert len(result.predictions) == 3

    def test_alpha_sweep(self, pdf2d_rat):
        result = sweep_alpha(pdf2d_rat, [0.1, 0.5, 1.0])
        # Higher alpha -> less communication time -> more speedup.
        assert result.speedups() == sorted(result.speedups())

    def test_throughput_sweep_saturates(self, pdf1d_rat):
        """Speedup gains flatten once communication dominates."""
        result = sweep_throughput_proc(pdf1d_rat, [10, 100, 1e4, 1e6])
        speedups = result.speedups()
        early_gain = speedups[1] / speedups[0]
        late_gain = speedups[3] / speedups[2]
        assert early_gain > 2
        assert late_gain < 1.05

    def test_best(self, pdf1d_rat):
        result = sweep_clock(pdf1d_rat, [75e6, 150e6])
        value, prediction = result.best()
        assert value == 150e6
        assert prediction.speedup == max(result.speedups())

    def test_as_series(self, pdf1d_rat):
        series = sweep_clock(pdf1d_rat, [75e6]).as_series()
        assert len(series) == 1 and series[0][0] == 75e6

    def test_empty_sweep_rejected(self, pdf1d_rat):
        with pytest.raises(ParameterError):
            sweep(pdf1d_rat, "x", [], lambda r, v: r)


class TestCrossover:
    def test_pdf1d_is_compute_bound_at_paper_block(self, pdf1d_rat):
        crossover = crossover_block_size(pdf1d_rat)
        assert crossover is not None
        # The paper's 512-element block is already compute-bound.
        assert crossover <= 512

    def test_crossover_flips_the_bound(self, pdf2d_rat):
        crossover = crossover_block_size(pdf2d_rat)
        assert crossover is not None
        at = predict(pdf2d_rat.with_block_size(crossover, 400))
        assert at.t_comp >= at.t_comm
        if crossover > 1:
            below = predict(pdf2d_rat.with_block_size(crossover - 1, 400))
            assert below.t_comp < below.t_comm

    def test_never_compute_bound_returns_none(self):
        from repro.apps.extra.fir import fir_rat_input

        # FIR: per-element compute never catches the channel.
        assert crossover_block_size(fir_rat_input()) is None

    def test_invalid_range(self, pdf1d_rat):
        with pytest.raises(ParameterError):
            crossover_block_size(pdf1d_rat, min_elements=0)
        with pytest.raises(ParameterError):
            crossover_block_size(pdf1d_rat, min_elements=10, max_elements=5)


class TestDoubleBufferGain:
    def test_gain_bounds(self, pdf1d_rat, pdf2d_rat, md_rat):
        for rat in (pdf1d_rat, pdf2d_rat, md_rat):
            gain = double_buffer_gain(rat)
            assert 1.0 <= gain <= 2.0

    def test_gain_peaks_at_balance(self, simple_rat):
        """t_comm ~ t_comp for simple_rat (1.6e-4 vs 1.0e-4): gain high."""
        assert double_buffer_gain(simple_rat) == pytest.approx(
            2.6e-4 / 1.6e-4, rel=1e-9
        )

    def test_gain_small_when_unbalanced(self, md_rat):
        # MD: computation dominates overwhelmingly.
        assert double_buffer_gain(md_rat) == pytest.approx(1.0, abs=0.01)


class TestAsciiRendering:
    def test_bars_scale_to_peak(self, pdf1d_rat):
        result = sweep_clock(pdf1d_rat, [75e6, 150e6])
        art = result.render_ascii(width=40)
        lines = art.splitlines()
        assert "speedup vs clock_hz" in lines[0]
        # The fastest clock gets the full-width bar.
        assert lines[-1].count("#") == 40
        assert lines[1].count("#") < 40

    def test_labels_and_values_present(self, pdf1d_rat):
        art = sweep_clock(pdf1d_rat, [75e6]).render_ascii()
        assert "7.5e+07" in art or "75000000" in art.replace(",", "")
        assert "x" in art

    def test_width_validation(self, pdf1d_rat):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            sweep_clock(pdf1d_rat, [75e6]).render_ascii(width=2)


class TestSweepEdgeCases:
    def test_preserves_value_order(self, pdf1d_rat):
        # Deliberately unsorted: results must line up positionally.
        values = [150e6, 75e6, 100e6, 75e6]
        result = sweep_clock(pdf1d_rat, values)
        assert result.values == tuple(values)
        for value, prediction in zip(values, result.predictions):
            assert prediction.speedup == pytest.approx(
                predict(pdf1d_rat.with_clock_hz(value)).speedup, rel=1e-12
            )
        # Duplicated inputs yield identical rows.
        assert result.predictions[1].t_rc == result.predictions[3].t_rc

    def test_single_value_sweep(self, pdf1d_rat):
        result = sweep_clock(pdf1d_rat, [100e6])
        assert len(result.predictions) == 1
        assert result.best()[0] == 100e6

    def test_rows_carry_edited_inputs(self, pdf2d_rat):
        result = sweep_alpha(pdf2d_rat, [0.2, 0.8])
        assert result.predictions[0].rat.communication.alpha_write == 0.2
        assert result.predictions[1].rat.communication.alpha_read == 0.8


class TestCrossoverEdgeCases:
    def test_degenerate_range_single_point(self, pdf1d_rat):
        # min == max collapses the search to one probe at that block size.
        at_512 = predict(pdf1d_rat.with_block_size(512, 10_000))
        expected = 512 if at_512.t_comp >= at_512.t_comm else None
        assert crossover_block_size(
            pdf1d_rat, min_elements=512, max_elements=512
        ) == expected

    def test_degenerate_range_never_bound(self):
        from repro.apps.extra.fir import fir_rat_input

        assert crossover_block_size(
            fir_rat_input(), min_elements=64, max_elements=64
        ) is None

    def test_always_communication_bound_returns_none(self, pdf1d_rat):
        # Starve the channel so input transfer dominates at any block size.
        starved = pdf1d_rat.with_alphas(0.001, 0.001)
        assert crossover_block_size(starved) is None

    def test_matches_scalar_linear_scan(self, pdf2d_rat):
        # On a small range, the batch lattice search must agree with an
        # exhaustive scalar scan for the smallest computation-bound size.
        lo, hi = 1, 2_000
        found = crossover_block_size(
            pdf2d_rat, min_elements=lo, max_elements=hi
        )
        scan = next(
            (
                e for e in range(lo, hi + 1)
                if predict(pdf2d_rat.with_block_size(e, 400)).t_comp
                >= predict(pdf2d_rat.with_block_size(e, 400)).t_comm
            ),
            None,
        )
        assert found == scan


class TestConcurrentSweeps:
    """Sweeps share no evaluation state between threads."""

    CLOCKS = tuple(50e6 + 62.5e3 * i for i in range(4000))
    REPEATS = 30

    @staticmethod
    def _fields(prediction):
        return (
            prediction.t_input, prediction.t_output, prediction.t_comm,
            prediction.t_comp, prediction.t_rc, prediction.speedup,
            prediction.util_comp, prediction.util_comm,
        )

    def test_two_threads_match_scalar_bitwise(self, pdf1d_rat, md_rat):
        import sys
        import threading

        studies = {"pdf1d": pdf1d_rat, "md": md_rat}
        expected = {
            label: [
                self._fields(predict(rat.with_clock_hz(clock)))
                for clock in self.CLOCKS
            ]
            for label, rat in studies.items()
        }
        wrong = dict.fromkeys(studies, 0)
        start = threading.Barrier(len(studies))

        def run(label):
            start.wait()
            for _ in range(self.REPEATS):
                result = sweep_clock(studies[label], self.CLOCKS)
                got = [self._fields(p) for p in result.predictions]
                if got != expected[label]:
                    wrong[label] += 1

        threads = [
            threading.Thread(target=run, args=(label,)) for label in studies
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often mid-sweep
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == dict.fromkeys(studies, 0)
