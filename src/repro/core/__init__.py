"""RAT core: the paper's primary contribution.

Submodules
----------
``params``
    The worksheet input schema (paper Table 1).
``throughput``
    Equations (1)-(11): communication/computation times, RC execution
    time under single/double buffering, speedup, utilizations.
``batch``
    Struct-of-arrays evaluation of the same equations over thousands to
    millions of design points per call (the exploration fast path).
``buffering``
    Overlap scenarios of Figure 2 and analytic timeline construction.
``worksheet``
    The user-facing RAT worksheet: clock sweeps producing performance
    tables in the style of the paper's Tables 3, 6 and 9.
``goalseek``
    Inverse analyses: solve for the throughput_proc (or clock, alpha,
    block size) required to hit a desired speedup.
``methodology``
    The Figure 1 state machine: throughput, precision, and resource
    tests applied iteratively over candidate designs.
``precision``
    Fixed-point formats, quantization error, minimal-bitwidth search.
``resources``
    Operator-level resource estimation against a device's capacities.
``composite`` / ``streaming``
    Extensions the paper lists as future work: multi-kernel
    applications, multi-FPGA scaling, and streaming designs.
"""

from .batch import BatchInput, BatchPrediction, batch_predict, mark_rows_valid
from .buffering import BufferingMode, OverlapTimeline, TimelineSegment
from .goalseek import (
    required_alpha,
    required_clock,
    required_throughput_proc,
    max_achievable_speedup,
)
from .lint import LintCode, LintWarning, lint_worksheet
from .power import DEFAULT_POWER_MODEL, PowerEstimate, PowerModel, estimate_power
from .params import (
    CommunicationParams,
    ComputationParams,
    DatasetParams,
    RATInput,
    SoftwareParams,
)
from .throughput import ThroughputPrediction, predict
from .worksheet import PerformanceTable, RATWorksheet

__all__ = [
    "BatchInput",
    "BatchPrediction",
    "BufferingMode",
    "batch_predict",
    "DEFAULT_POWER_MODEL",
    "PowerEstimate",
    "PowerModel",
    "CommunicationParams",
    "ComputationParams",
    "DatasetParams",
    "LintCode",
    "LintWarning",
    "OverlapTimeline",
    "PerformanceTable",
    "RATInput",
    "RATWorksheet",
    "SoftwareParams",
    "ThroughputPrediction",
    "TimelineSegment",
    "estimate_power",
    "lint_worksheet",
    "mark_rows_valid",
    "max_achievable_speedup",
    "predict",
    "required_alpha",
    "required_clock",
    "required_throughput_proc",
]
