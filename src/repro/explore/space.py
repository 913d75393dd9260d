"""Design spaces: named parameter axes over a base worksheet.

A :class:`DesignSpace` is a base :class:`~repro.core.params.RATInput`
plus an ``(n, k)`` matrix of axis values — one column per named axis, one
row per candidate design.  Three constructors cover the common sampling
plans: :meth:`DesignSpace.grid` (full cross product),
:meth:`DesignSpace.random` (independent uniform draws), and
:meth:`DesignSpace.explicit` (a hand-picked point list).

Every axis is defined twice, consistently:

* a **scalar edit** reusing the worksheet's ``with_*`` methods, so
  :meth:`DesignSpace.design` yields exactly the ``RATInput`` a hand
  written what-if loop would construct; and
* a **column expansion** mapping the axis values to SI-unit
  :class:`~repro.core.batch.BatchInput` columns, so
  :meth:`DesignSpace.to_batch` can feed the vectorized engine without
  materialising per-row dataclasses.

The two definitions apply the same unit conversions in the same order,
keeping the scalar and batch paths numerically identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..core.batch import BatchInput
from ..core.params import RATInput
from ..errors import ParameterError
from ..units import MHZ

__all__ = ["AxisSpec", "DesignSpace", "axis_names"]

#: Scalar what-if edit: (base worksheet, axis value) -> edited worksheet.
Edit = Callable[[RATInput, float], RATInput]

#: Column expansion: axis value column -> BatchInput column overrides (SI).
ColumnFn = Callable[[np.ndarray], dict[str, np.ndarray]]


@dataclass(frozen=True)
class AxisSpec:
    """One sweepable worksheet parameter.

    ``edit`` is the scalar path (reuses ``RATInput.with_*``); ``columns``
    is the vectorized path; ``targets`` names the BatchInput columns the
    axis writes, used to reject overlapping axes at space construction.
    """

    name: str
    edit: Edit
    columns: ColumnFn
    targets: tuple[str, ...]


_AXES: dict[str, AxisSpec] = {
    "clock_hz": AxisSpec(
        "clock_hz",
        lambda r, v: r.with_clock_hz(v),
        lambda v: {"clock_hz": v},
        ("clock_hz",),
    ),
    "clock_mhz": AxisSpec(
        "clock_mhz",
        lambda r, v: r.with_clock_hz(v * MHZ),
        lambda v: {"clock_hz": v * MHZ},
        ("clock_hz",),
    ),
    "throughput_proc": AxisSpec(
        "throughput_proc",
        lambda r, v: r.with_throughput_proc(v),
        lambda v: {"throughput_proc": v},
        ("throughput_proc",),
    ),
    "alpha": AxisSpec(
        "alpha",
        lambda r, v: r.with_alphas(v, v),
        lambda v: {"alpha_write": v, "alpha_read": v},
        ("alpha_write", "alpha_read"),
    ),
    "alpha_write": AxisSpec(
        "alpha_write",
        lambda r, v: r.with_alphas(v, r.communication.alpha_read),
        lambda v: {"alpha_write": v},
        ("alpha_write",),
    ),
    "alpha_read": AxisSpec(
        "alpha_read",
        lambda r, v: r.with_alphas(r.communication.alpha_write, v),
        lambda v: {"alpha_read": v},
        ("alpha_read",),
    ),
    "elements_in": AxisSpec(
        "elements_in",
        lambda r, v: r.with_block_size(int(v), r.software.n_iterations),
        lambda v: {"elements_in": np.trunc(v)},
        ("elements_in",),
    ),
}


def axis_names() -> list[str]:
    """The supported axis names, sorted (CLI help and error messages)."""
    return sorted(_AXES)


def _axis(name: str) -> AxisSpec:
    spec = _AXES.get(name)
    if spec is None:
        raise ParameterError(
            f"unknown design axis {name!r}; supported: {axis_names()}"
        )
    return spec


@dataclass(frozen=True, eq=False)
class DesignSpace:
    """``n`` candidate designs spanned by named parameter axes.

    ``values`` is an ``(n, k)`` float matrix; column ``j`` holds the
    value of axis ``axes[j]`` for each design point.  Construct through
    :meth:`grid`, :meth:`random`, or :meth:`explicit`.
    """

    base: RATInput
    axes: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        for name in self.axes:
            _axis(name)  # raises on unknown axes
        if len(set(self.axes)) != len(self.axes):
            raise ParameterError(f"duplicate axes in {self.axes}")
        targets = [t for name in self.axes for t in _axis(name).targets]
        if len(set(targets)) != len(targets):
            raise ParameterError(
                f"axes {self.axes} write overlapping worksheet fields"
            )
        matrix = np.asarray(self.values, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.axes):
            raise ParameterError(
                f"values must be (n, {len(self.axes)}), got {matrix.shape}"
            )
        if matrix.shape[0] < 1:
            raise ParameterError("a design space needs at least one point")
        object.__setattr__(self, "values", matrix)

    # ---- constructors ------------------------------------------------------

    @classmethod
    def grid(cls, base: RATInput, **axes: Sequence[float]) -> "DesignSpace":
        """Full cross product of the given per-axis value lists.

        ``DesignSpace.grid(rat, clock_mhz=[75, 100, 150], alpha=[.2, .4])``
        yields 6 points.  Axis order follows keyword order; the last axis
        varies fastest.
        """
        if not axes:
            raise ParameterError("grid requires at least one axis")
        names = tuple(axes)
        columns = [
            np.asarray(list(values), dtype=np.float64)
            for values in axes.values()
        ]
        for name, column in zip(names, columns):
            if column.ndim != 1 or column.shape[0] < 1:
                raise ParameterError(f"axis {name!r} needs a 1-D value list")
        mesh = np.meshgrid(*columns, indexing="ij")
        matrix = np.stack([m.ravel() for m in mesh], axis=1)
        return cls(base=base, axes=names, values=matrix)

    @classmethod
    def random(
        cls,
        base: RATInput,
        n: int,
        *,
        seed: int = 2007,
        **ranges: tuple[float, float],
    ) -> "DesignSpace":
        """``n`` independent uniform draws from per-axis (low, high) ranges."""
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        if not ranges:
            raise ParameterError("random requires at least one axis range")
        names = tuple(ranges)
        lows = np.array([r[0] for r in ranges.values()], dtype=np.float64)
        highs = np.array([r[1] for r in ranges.values()], dtype=np.float64)
        if (highs < lows).any():
            raise ParameterError("axis ranges must satisfy low <= high")
        rng = np.random.default_rng(seed)
        matrix = lows + (highs - lows) * rng.random((n, len(names)))
        return cls(base=base, axes=names, values=matrix)

    @classmethod
    def explicit(
        cls, base: RATInput, points: Sequence[Mapping[str, float]]
    ) -> "DesignSpace":
        """A hand-picked list of ``{axis: value}`` design points.

        Every point must name the same axes (a ragged list would make
        the value matrix — and the comparison — meaningless).
        """
        if not points:
            raise ParameterError("explicit requires at least one point")
        names = tuple(points[0])
        for i, point in enumerate(points):
            if tuple(point) != names:
                raise ParameterError(
                    f"point {i} axes {tuple(point)} differ from {names}"
                )
        matrix = np.array(
            [[float(point[name]) for name in names] for point in points],
            dtype=np.float64,
        )
        return cls(base=base, axes=names, values=matrix)

    # ---- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def point(self, i: int) -> dict[str, float]:
        """Axis values of design ``i`` as ``{axis: value}``."""
        return {
            name: float(self.values[i, j]) for j, name in enumerate(self.axes)
        }

    def design(self, i: int) -> RATInput:
        """Scalar worksheet for design ``i`` via the ``with_*`` edits."""
        rat = self.base
        for j, name in enumerate(self.axes):
            rat = _axis(name).edit(rat, float(self.values[i, j]))
        return rat

    def designs(self) -> Iterator[RATInput]:
        """Iterate every design as a scalar worksheet (slow path)."""
        return (self.design(i) for i in range(len(self)))

    def to_batch(self, *, check: bool = True) -> BatchInput:
        """The whole space as one :class:`BatchInput` (fast path).

        Applies each axis's column expansion to the base worksheet; no
        per-row ``RATInput`` objects are created.  ``check=False``
        defers row validation so the fault-tolerant executor can
        quarantine invalid design points instead of losing the space to
        its first bad row.
        """
        overrides: dict[str, np.ndarray] = {}
        for j, name in enumerate(self.axes):
            overrides.update(_axis(name).columns(self.values[:, j]))
        return BatchInput.from_base(self.base, len(self), overrides, check=check)

    def describe(self) -> str:
        """e.g. ``"3 axes x 1000 points over clock_mhz, alpha, ..."``."""
        return (
            f"{len(self.axes)} axis(es) x {len(self)} point(s) over "
            + ", ".join(self.axes)
        )

