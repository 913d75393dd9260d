"""Helpers shared by the workloads: paths, set-up probes, statistics and
the layer accounting every traced run reports."""

from __future__ import annotations

import bisect
import gc
import heapq
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import metrics_spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 3

#: Span summary row of a layer that never ran.
EMPTY = {"calls": 0, "total_us": 0.0, "self_us": 0.0, "value": 0.0}


def fail(message: str) -> None:
    """Abort the run without a result line."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


def program_env() -> dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    paths = [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def out_path(args, name: str) -> str:
    """A file under the checkout's ``.perfbench_out`` for this run."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{name}")


def setup_probes(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes (``--setup-probe``)."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            env=program_env(), capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def sliced_percentile(timed, q: float, speed=None, across: float = 50,
                      slice_s: float = 1.0) -> float:
    """The ``across``-th percentile over ``slice_s`` windows of each
    window's ``q``-th percentile.

    ``timed`` holds (time s, value) pairs.  A window in which the host
    stalled moves one of the per-window figures, not their median; with a
    :class:`Speedometer` each window's figure is scaled to reference
    speed by the calibrations taken in it.
    """
    groups: dict[int, list[float]] = {}
    first = min(t for t, _ in timed)
    for t, value in timed:
        groups.setdefault(int((t - first) / slice_s), []).append(value)
    figures = []
    for k, values in groups.items():
        factor = 1.0
        if speed is not None:
            start = first + k * slice_s
            factor = speed.speed_factor(start, start + slice_s)
        figures.append(percentile(values, q) * factor)
    return percentile(figures, across)


def self_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result(attempted: int, failed: int, metrics: dict, details=None) -> dict:
    """A run's outcome; ``details`` are printed for people, not reported."""
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
        "details": details or {},
    }


def zero_layers() -> dict[str, float]:
    """Every per-layer metric at 0: a layer a workload bypasses reads 0."""
    return dict.fromkeys(metrics_spec.units(per_layer=True), 0.0)


def kernel_layers(summary: dict) -> dict[str, float]:
    """``core.kernel.*`` from the plan/batch kernel spans of one run."""
    kernel = summary.get("core.kernel", EMPTY)
    calls, rows, us = kernel["calls"], kernel["value"], kernel["total_us"]
    return {
        "core.kernel.calls": calls,
        "core.kernel.rows_per_call": rows / calls if calls else 0.0,
        "core.kernel.us_per_call": us / calls if calls else 0.0,
        "core.kernel.ns_per_row": us * 1e3 / rows if rows else 0.0,
    }


def accounting(untraced: float, traced: float, accounted: float) -> dict[str, float]:
    """``residual_frac`` and ``trace_overhead_frac`` of one traced run.

    ``accounted`` is the sum of the traced layers' self times for the
    same end-to-end figure; the residual is what the layers leave
    unexplained of the untraced figure.
    """
    return {
        "residual_frac": (untraced - accounted) / untraced,
        "trace_overhead_frac": (traced - untraced) / untraced,
    }


# ---- machine speed ---------------------------------------------------------


class SetupClock:
    """Set-up time at reference speed.

    A :class:`Speedometer` runs from the start of the workload (``t0``)
    until :meth:`stop`, which returns the elapsed time normalised by it;
    it must be stopped before the workload starts a speedometer of its own.
    """

    def __init__(self, t0: float) -> None:
        self.t0 = t0
        self.speed = Speedometer()
        self.speed.__enter__()

    def stop(self) -> float:
        now = time.perf_counter()
        self.speed.__exit__()
        return self.speed.normalise(self.t0, now, now - self.t0)

#: Seconds the calibration workload takes on the reference host (a 2-vCPU
#: x86-64 VM at 2.1 GHz with CPython 3.11); normalised times are scaled to it.
REFERENCE_CAL_S = 500e-6

_CAL_DATA = [((i * 7919) % 10007) / 10007.0 for i in range(400)]


def _calibrate() -> None:
    """A fixed slice of interpreter, allocation, dict and heap work."""
    heap: list = []
    table: dict = {}
    for j, x in enumerate(_CAL_DATA):
        heapq.heappush(heap, (x, j))
        table[j] = (x * 1.5, str(j))
    while heap:
        _, j = heapq.heappop(heap)
        del table[j]


class Speedometer:
    """Samples the speed of the machine this process runs on.

    The benchmark host's speed drifts by +-25% over seconds (neighbours
    sharing its cores), far more than the changes the benchmark must
    resolve.  While active, a timer signal runs the fixed calibration
    workload every INTERVAL_S in this process and records its wall and
    CPU time.  :meth:`reference` turns that into a clock of reference-host
    seconds: the stretch between two calibrations runs at the speed the
    later one measured, and the calibrations themselves take no reference
    time.  Wall-time figures use the calibrations' wall time; CPU-time
    figures their CPU time, which a stretch in which the host did not run
    this process at all leaves alone.
    """

    INTERVAL_S = 0.025

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (start, wall s, cpu s)
        self._previous = None
        self._built = -1

    @classmethod
    def load(cls, path: str) -> "Speedometer":
        """The samples another process's speedometer wrote as JSON."""
        speed = cls()
        with open(path) as handle:
            speed.samples = [tuple(sample) for sample in json.load(handle)]
        return speed

    def _tick(self, signum, frame) -> None:
        # With the collector off, the calibration's cost does not depend
        # on how many objects the workload holds.
        collecting = gc.isenabled()
        gc.disable()
        start, cpu = time.perf_counter(), time.thread_time()
        _calibrate()
        self.samples.append(
            (start, time.perf_counter() - start, time.thread_time() - cpu)
        )
        if collecting:
            gc.enable()

    def __enter__(self) -> "Speedometer":
        _calibrate()  # warm the code path before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _build(self) -> None:
        if self._built == len(self.samples):
            return
        # A snapshot: while the timer runs, a tick may append mid-build.
        samples = list(self.samples)
        self._starts = [sample[0] for sample in samples]
        self._lengths = [sample[1] for sample in samples]
        self._clocks = {}
        for cpu, column in ((False, 1), (True, 2)):
            took = [max(sample[column], 1e-9) for sample in samples]
            at_start = [0.0]  # reference time at each calibration's start
            for i in range(1, len(samples)):
                gap = self._starts[i] - self._starts[i - 1] - self._lengths[i - 1]
                at_start.append(at_start[-1] + gap * REFERENCE_CAL_S / took[i])
            self._clocks[cpu] = (took, at_start)
        self._own = [0.0]  # calibration seconds before each calibration
        for length in self._lengths[:-1]:
            self._own.append(self._own[-1] + length)
        self._built = len(samples)

    def reference(self, t: float, cpu: bool = False) -> float:
        """Reference-host seconds elapsed at ``perf_counter()`` time ``t``."""
        self._build()
        took, at_start = self._clocks[cpu]
        starts = self._starts
        i = bisect.bisect_right(starts, t) - 1
        if i < 0:
            return (t - starts[0]) * REFERENCE_CAL_S / took[0]
        end = starts[i] + self._lengths[i]
        if t <= end:
            return at_start[i]
        rate = REFERENCE_CAL_S / took[min(i + 1, len(took) - 1)]
        return at_start[i] + (t - end) * rate

    def own(self, start: float, stop: float) -> float:
        """Seconds of calibration that started inside ``[start, stop)``."""
        self._build()
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_left(self._starts, stop)
        if hi == lo:
            return 0.0
        return self._own[hi - 1] + self._lengths[hi - 1] - self._own[lo]

    def speed_factor(self, start: float, stop: float, cpu: bool = False) -> float:
        """Reference seconds per second of work done in ``[start, stop)``."""
        busy = stop - start - self.own(start, stop)
        if busy <= 0:
            return 1.0
        return (self.reference(stop, cpu) - self.reference(start, cpu)) / busy

    def normalise(self, start: float, stop: float, amount: float,
                  cpu: bool = False) -> float:
        """``amount`` seconds of wall (or, with ``cpu``, CPU) time spent in
        ``[start, stop)``, without the calibrations' own time, at
        reference speed."""
        busy = max(amount - self.own(start, stop), 0.0)
        return busy * self.speed_factor(start, stop, cpu)
