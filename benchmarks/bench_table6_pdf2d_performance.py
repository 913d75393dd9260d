"""Table 6: 2-D PDF predicted and (reconstructed) actual performance.

The simulation is the heaviest in the suite: 400 iterations, each
reading one input block and returning 65 536 bin values (256 KiB) in
512-byte bursts — 205 200 modelled DMA transfers, the mechanism behind
the paper's 6x communication underestimate.
"""

import time

import pytest

from repro.analysis.experiments import run_experiment
from repro.apps.registry import get_case_study

#: Wall-time ceiling (s) for one pdf2d ``study.simulate()``, best of 3.
#: Burst trains time each 512-transfer write-back in one pass; the
#: per-object path this replaced took ~2.3 s on a 2-CPU Xeon, the train
#: path ~0.1 s, so the ceiling leaves headroom for shared CI runners.
SIMULATE_FLOOR_S = 0.5


def test_table6_full_reproduction(benchmark, show):
    result = benchmark.pedantic(
        run_experiment, args=("table6",), rounds=2, iterations=1
    )
    assert result.all_within
    show(result.render())


def test_table6_prediction_sweep(benchmark):
    study = get_case_study("pdf2d")
    table = benchmark(lambda: study.predicted_table())
    speedups = [round(c.speedup, 1) for c in table.columns]
    assert speedups == pytest.approx([3.5, 4.6, 6.9], abs=0.1)


def test_table6_simulated_actual(benchmark):
    study = get_case_study("pdf2d")
    result = benchmark.pedantic(study.simulate, rounds=2, iterations=1)
    column = result.as_actual_column(study.rat.software.t_soft)
    # Shape assertions (the printed actual column is illegible; see
    # DESIGN.md): communication several-fold above the 1.65E-3 prediction,
    # computation below the conservative 5.59E-2 prediction.
    assert column["t_comm"] > 3 * 1.65e-3
    assert column["t_comp"] < 5.59e-2


def test_table6_simulate_floor(show):
    """pdf2d simulation stays on the burst-train path."""
    study = get_case_study("pdf2d")
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = study.simulate()
        times.append(time.perf_counter() - start)
    best = min(times)
    show(f"pdf2d simulate: best of 3 {best * 1e3:.0f} ms "
         f"({result.input_transfers + result.output_transfers:,} transfers)")
    assert result.input_transfers + result.output_transfers == 205_200
    assert best < SIMULATE_FLOOR_S, (
        f"pdf2d simulate took {best:.3f} s (floor {SIMULATE_FLOOR_S} s)"
    )
