"""Design-space exploration on the vectorized batch engine.

RAT's value to a designer is what-if exploration — sweeps, crossover
bisection, Monte Carlo uncertainty bands, goal-seeking — and all of them
reduce to evaluating the worksheet equations over many candidate
designs.  This subsystem makes that evaluation fast, structured, and
fault-tolerant:

``space``
    :class:`DesignSpace`: named parameter axes over a base worksheet
    with grid / random / explicit-list sampling plans, convertible to
    scalar ``RATInput`` rows or one struct-of-arrays batch.
``executor``
    :func:`explore`: chunked evaluation through
    :func:`repro.core.batch.batch_predict`, serial or process-parallel;
    :func:`map_designs` for non-vectorizable evaluators (hardware
    simulation, goal-seek).
``runtime``
    The fault-tolerance layer: :class:`RetryPolicy` retry/backoff/
    timeout knobs, row-level quarantine with :class:`PointFailure`
    diagnostics, chunk-level crash/hang recovery with
    :class:`ChunkFailure` records, and pool respawn / serial
    degradation.
``checkpoint``
    :class:`ChunkJournal`: JSONL chunk journal keyed by a content hash
    of the run, so an interrupted exploration resumes from completed
    chunks with bitwise-identical results.

The ``rat explore`` CLI subcommand is a thin wrapper over
:meth:`DesignSpace.grid` + :func:`explore`.
"""

from .checkpoint import ChunkJournal, run_key
from .executor import (
    DEFAULT_CHUNK_SIZE,
    ExplorationResult,
    MapResult,
    explore,
    map_designs,
)
from .runtime import (
    ChunkFailure,
    ChunkRunReport,
    ON_ERROR_POLICIES,
    PointFailure,
    RetryPolicy,
    quarantine_rows,
    run_chunks,
)
from .space import AxisSpec, DesignSpace, axis_names

__all__ = [
    "AxisSpec",
    "ChunkFailure",
    "ChunkJournal",
    "ChunkRunReport",
    "DEFAULT_CHUNK_SIZE",
    "DesignSpace",
    "ExplorationResult",
    "MapResult",
    "ON_ERROR_POLICIES",
    "PointFailure",
    "RetryPolicy",
    "axis_names",
    "explore",
    "map_designs",
    "quarantine_rows",
    "run_chunks",
    "run_key",
]
