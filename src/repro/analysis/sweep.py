"""Parameter sweeps and crossover analyses.

RAT's value to a designer lies in what-if exploration: how does predicted
performance move as the clock, the sustained bandwidth, the block size or
the parallelism changes?  :func:`sweep` evaluates any single-parameter
family of worksheet edits; :func:`crossover_block_size` locates the block
size where a design flips between communication- and computation-bound —
the boundary at which double buffering stops paying.

Both run on the vectorized batch engine
(:mod:`repro.core.batch`): a sweep is one batch evaluation over every
edited worksheet, and the crossover search evaluates a whole lattice of
candidate block sizes per refinement round instead of one scalar probe
per bisection step.  Public signatures and result types are unchanged
— ``SweepResult`` still carries scalar
:class:`~repro.core.throughput.ThroughputPrediction` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.batch import BatchInput, batch_predict
from ..core.buffering import BufferingMode
from ..core.params import RATInput
from ..core.throughput import ThroughputPrediction, predict
from ..errors import ParameterError

__all__ = [
    "SweepResult",
    "sweep",
    "sweep_clock",
    "sweep_alpha",
    "sweep_throughput_proc",
    "crossover_block_size",
    "double_buffer_gain",
]

# An edit maps (base input, parameter value) -> edited input.
Edit = Callable[[RATInput, float], RATInput]


@dataclass(frozen=True)
class SweepResult:
    """Predictions across one swept parameter."""

    parameter: str
    values: tuple[float, ...]
    predictions: tuple[ThroughputPrediction, ...]

    def speedups(self) -> list[float]:
        """Speedup per swept value."""
        return [p.speedup for p in self.predictions]

    def best(self) -> tuple[float, ThroughputPrediction]:
        """The swept value with the highest speedup."""
        if not self.predictions:
            raise ParameterError("empty sweep")
        index = max(
            range(len(self.predictions)), key=lambda i: self.predictions[i].speedup
        )
        return self.values[index], self.predictions[index]

    def as_series(self) -> list[tuple[float, float]]:
        """``(value, speedup)`` pairs for plotting/tabulation."""
        return list(zip(self.values, self.speedups()))

    def render_ascii(self, width: int = 48) -> str:
        """Horizontal bar chart of speedup vs the swept parameter.

        Purely for terminal inspection (the CLI and examples); bars scale
        to the maximum speedup in the sweep.
        """
        if width < 8:
            raise ParameterError(f"width must be >= 8, got {width}")
        speedups = self.speedups()
        peak = max(speedups)
        label_width = max(len(f"{v:g}") for v in self.values)
        lines = [f"speedup vs {self.parameter}"]
        for value, speedup in zip(self.values, speedups):
            bar = "#" * max(1, round(speedup / peak * width))
            lines.append(
                f"{value:>{label_width}g} |{bar} {speedup:.1f}x"
            )
        return "\n".join(lines)


def sweep(
    rat: RATInput,
    parameter: str,
    values: Iterable[float],
    edit: Edit,
    mode: BufferingMode = BufferingMode.SINGLE,
) -> SweepResult:
    """Evaluate the throughput prediction across one edited parameter.

    The whole family is evaluated in a single batch evaluation; each
    returned row is numerically identical to a scalar
    ``predict(edit(rat, v), mode)``.
    """
    value_list = tuple(float(v) for v in values)
    if not value_list:
        raise ParameterError("sweep requires at least one value")
    inputs = [edit(rat, v) for v in value_list]
    batch_result = batch_predict(BatchInput.from_inputs(inputs), mode)
    predictions = tuple(batch_result.rows(inputs))
    return SweepResult(parameter=parameter, values=value_list, predictions=predictions)


def sweep_clock(
    rat: RATInput,
    clocks_hz: Iterable[float],
    mode: BufferingMode = BufferingMode.SINGLE,
) -> SweepResult:
    """Sweep the assumed fabric clock (Hz)."""
    return sweep(rat, "clock_hz", clocks_hz, lambda r, v: r.with_clock_hz(v), mode)


def sweep_alpha(
    rat: RATInput,
    alphas: Iterable[float],
    mode: BufferingMode = BufferingMode.SINGLE,
) -> SweepResult:
    """Sweep a uniform sustained-bandwidth fraction (both directions)."""
    return sweep(rat, "alpha", alphas, lambda r, v: r.with_alphas(v, v), mode)


def sweep_throughput_proc(
    rat: RATInput,
    values: Iterable[float],
    mode: BufferingMode = BufferingMode.SINGLE,
) -> SweepResult:
    """Sweep the ops/cycle estimate (the paper's MD tuning parameter)."""
    return sweep(
        rat, "throughput_proc", values, lambda r, v: r.with_throughput_proc(v), mode
    )


def crossover_block_size(
    rat: RATInput,
    *,
    min_elements: int = 1,
    max_elements: int = 1 << 26,
) -> int | None:
    """Smallest block size at which the design is computation-bound.

    Holds total work constant conceptually (block size only redistributes
    iterations) and searches on ``t_comp >= t_comm``, which is monotone
    in the block size.  Because both terms scale linearly in
    ``elements_in`` *except* for the fixed output volume, the crossover
    exists only when per-element compute time exceeds per-element
    input-transfer time; returns None otherwise.

    The search runs on the batch engine: instead of one scalar probe per
    bisection step, each refinement round evaluates a whole lattice of
    up to 64 candidate block sizes in a single batch evaluation,
    shrinking the bracket ~65x per round (the default 2**26 range
    resolves in five batch calls).  The result is identical to the
    scalar bisection's because batch rows match ``predict`` bitwise.
    """
    if min_elements < 1 or max_elements < min_elements:
        raise ParameterError(
            f"invalid search range [{min_elements}, {max_elements}]"
        )
    n_iterations = rat.software.n_iterations

    def bound_lattice(sizes: Sequence[int]) -> np.ndarray:
        inputs = [rat.with_block_size(int(e), n_iterations) for e in sizes]
        prediction = batch_predict(BatchInput.from_inputs(inputs))
        return prediction.computation_bound

    at_edges = bound_lattice([min_elements, max_elements])
    if not at_edges[1]:
        return None
    if at_edges[0]:
        return min_elements
    # Invariant: bound(lo) is False, bound(hi) is True.
    lo, hi = min_elements, max_elements
    while hi - lo > 1:
        lattice = np.unique(
            np.linspace(lo, hi, min(64, hi - lo - 1) + 2)
            .round()
            .astype(np.int64)
        )
        lattice = lattice[(lattice > lo) & (lattice < hi)]
        if lattice.size == 0:  # pragma: no cover - hi - lo > 1 guarantees one
            break
        flags = bound_lattice(lattice)
        if flags.any():
            first = int(np.argmax(flags))
            hi = int(lattice[first])
            lo = int(lattice[first - 1]) if first > 0 else lo
        else:
            lo = int(lattice[-1])
    return hi


def double_buffer_gain(rat: RATInput) -> float:
    """Speedup ratio of double over single buffering for one worksheet.

    Equals ``(t_comm + t_comp) / max(t_comm, t_comp)``; peaks at 2.0 when
    the two terms are equal and approaches 1.0 as either dominates —
    quantifying the paper's observation that double buffering would have
    "masked" the 1-D PDF's communication jitter.
    """
    single = predict(rat, BufferingMode.SINGLE)
    double = predict(rat, BufferingMode.DOUBLE)
    return double.speedup / single.speedup
