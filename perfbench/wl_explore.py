"""``explore_sweep``: a closed loop of three back-to-back explore jobs.

* bulk: a 1e6-point seeded random space, serial, default chunk size;
* chunked: a 1e5-point grid, ~10% invalid, ``on_error="quarantine"``,
  ``chunk_size=1024`` and a checkpoint journal;
* pool: the bulk space with ``workers=2`` (pool start-up included).

One operation is one cycle of the three jobs.  The kernel runs at large
N (bulk) and small N (chunked); dispatch, quarantine and the journal
(chunked) and process shipping (pool) are exercised; serve and hwsim are
never touched.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
import time

import numpy as np

import check
import common
import inputs
import tracing

#: Discarded bulk calls before the first timed one: the first calls of a
#: process run ~2x slower while the allocator is still growing.
WARMUP_CALLS = 2
POOL_WORKERS = 2


class Sweep:
    """The seeded spaces and the three jobs of one cycle."""

    def __init__(self, seed: int) -> None:
        import repro.explore
        from repro.apps.registry import get_case_study

        self.explore = repro.explore
        base = get_case_study(inputs.STUDIES[seed % len(inputs.STUDIES)]).rat
        self.bulk = inputs.bulk_space(seed, base)
        self.grid, self.invalid = inputs.chunked_space(seed, base)
        self.rng = np.random.default_rng(seed)
        self.tmp = tempfile.mkdtemp(prefix="journal-", dir=common.OUT_DIR)
        self.journal = os.path.join(self.tmp, "chunks.jsonl")
        self.problems: list[str] = []
        self.attempted = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def job(self, kind: str, speed=None):
        """Run one job; returns (wall s, cpu s, result), normalised to
        reference speed when a :class:`common.Speedometer` is given."""
        explore = self.explore.explore  # looked up per call: tracing patches it
        wall0, cpu0 = time.perf_counter(), _cpu()
        if kind == "bulk":
            result = explore(self.bulk)
        elif kind == "chunked":
            result = explore(
                self.grid, on_error="quarantine",
                chunk_size=inputs.CHUNKED_CHUNK, checkpoint=self.journal,
            )
        else:
            result = explore(self.bulk, workers=POOL_WORKERS)
        wall1 = time.perf_counter()
        wall, cpu = wall1 - wall0, _cpu() - cpu0
        if speed is not None:
            wall = speed.normalise(wall0, wall1, wall)
            cpu = speed.normalise(wall0, wall1, cpu, cpu=True)
        return wall, cpu, result

    def verify(self, kind: str, result) -> None:
        """Check one result (outside every timed interval)."""
        self.attempted += 1
        if kind == "chunked":
            problem = check.check_exploration(result, self.grid, self.invalid, self.rng)
        else:
            problem = check.check_exploration(result, self.bulk, None, self.rng)
        if problem:
            self.problems.append(f"{kind}: {problem}")

    def cycles(self, budget_s: float, on_job=None, speed=None) -> list[dict]:
        """Whole cycles while another still fits in ``budget_s`` (>= 1)."""
        out = []
        started = time.perf_counter()
        while True:
            cycle = {}
            cycle_start = time.perf_counter()
            for kind in ("bulk", "chunked", "pool"):
                t0 = time.perf_counter_ns()
                wall, cpu, result = self.job(kind, speed)
                cycle[kind] = (wall, cpu)
                if on_job:
                    on_job(kind, t0, time.perf_counter_ns(), result)
                self.verify(kind, result)
                del result
            cycle["wall"] = sum(cycle[k][0] for k in ("bulk", "chunked", "pool"))
            cycle["cpu"] = sum(cycle[k][1] for k in ("bulk", "chunked", "pool"))
            out.append(cycle)
            now = time.perf_counter()
            if now - started + (now - cycle_start) > budget_s:
                return out


def _cpu() -> float:
    """CPU seconds of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _setup(seed: int) -> Sweep:
    sweep = Sweep(seed)
    for _ in range(WARMUP_CALLS):
        sweep.job("bulk")
    _, _, result = sweep.job("bulk")
    sweep.verify("bulk", result)
    if sweep.problems:
        common.fail(f"set-up operation wrong: {sweep.problems[0]}")
    return sweep


def setup_probe(seed: int, clock) -> float:
    sweep = _setup(seed)
    elapsed = clock.stop()
    sweep.close()
    return elapsed


def _points_per_s(cycles, kind: str, points: int) -> float:
    return points / statistics.median(c[kind][0] for c in cycles)


def run(args, clock) -> dict:
    sweep = _setup(args.seed)
    setup = [clock.stop()]
    details = {}
    try:
        if not args.trace:
            setup += common.setup_probes(args, common.SETUP_SAMPLES - 1)
            with common.Speedometer() as speed:
                cycles = sweep.cycles(args.seconds, speed=speed)
            walls = [c["wall"] * 1e6 for c in cycles]
            metrics = {
                "setup_s": statistics.median(setup),
                "p50_us": common.percentile(walls, 50),
                "cpu_us_per_op": statistics.median(c["cpu"] * 1e6 for c in cycles),
                "peak_rss_mb": common.self_rss_mb(),
            }
            details = {
                f"{kind}_points_per_s": (_points_per_s(cycles, kind, len(space)), "pts/s")
                for kind, space in (
                    ("bulk", sweep.bulk), ("chunked", sweep.grid), ("pool", sweep.bulk),
                )
            }
        else:
            metrics = _traced(args, sweep)
    finally:
        sweep.close()
    for problem in sweep.problems:
        print(f"check: {problem}")
    failed = len(sweep.problems)
    if args.trace:
        metrics["error_rate"] = failed / sweep.attempted
    return common.result(sweep.attempted, failed, metrics, details)


def _traced(args, sweep: Sweep) -> dict:
    tracer = tracing.Tracer()
    windows: dict[str, list[tuple[int, int]]] = {"bulk": [], "chunked": [], "pool": []}
    counts = {"failed_points": 0, "retries": 0, "bytes": 0}

    def on_job(kind, start, stop, result):
        windows[kind].append((start, stop))
        counts["failed_points"] += result.n_failed
        counts["retries"] += result.retries
        if kind == "chunked":
            counts["bytes"] += os.path.getsize(sweep.journal)

    with common.Speedometer() as speed:
        plain = sweep.cycles(args.seconds / 2, speed=speed)
        tracing.install_explore(tracer)
        traced = sweep.cycles(args.seconds / 2, on_job, speed)
        tracer.restore()
    tracer.dump(common.out_path(args, "spans.json"))
    n = len(traced)
    clock = speed.reference
    per = {kind: _window_summary(tracer, spans, clock) for kind, spans in windows.items()}
    whole = tracer.summary(clock=clock)
    # Worker-measured chunk times, scaled by the speed seen in the parent
    # over the same pool job and shared between the workers.
    pool_kernel_us = sum(
        elapsed * 1e6 * speed.speed_factor(start / 1e9, stop / 1e9)
        for start, stop in windows["pool"]
        for at, elapsed in tracer.samples["explore.chunk_elapsed_s"]
        if start <= at < stop
    ) / POOL_WORKERS
    pool_run = per["pool"].get("explore.run", common.EMPTY)
    ship_us = pool_run["self_us"] - pool_kernel_us
    serial_self = sum(
        per[kind].get("explore.run", common.EMPTY)["self_us"]
        for kind in ("bulk", "chunked")
    )
    get = lambda name: whole.get(name, common.EMPTY)  # noqa: E731
    layers = common.zero_layers()
    layers.update(common.kernel_layers(whole))
    layers.update({
        "explore.space.materialize_us": get("explore.space.materialize")["total_us"] / n,
        "explore.space.rows": get("explore.space.materialize")["value"] / n,
        "explore.runtime.quarantine_us": get("explore.runtime.quarantine")["total_us"] / n,
        "explore.runtime.failed_points": counts["failed_points"] / n,
        "explore.runtime.retries": counts["retries"] / n,
        "explore.runtime.ship_us": ship_us / n,
        "explore.checkpoint.records": get("explore.checkpoint.write")["calls"] / n,
        "explore.checkpoint.bytes": counts["bytes"] / n,
        "explore.checkpoint.write_us": get("explore.checkpoint.write")["total_us"] / n,
        "explore.executor.residual_us": serial_self / n,
        "explore.bulk_points_per_s": _points_per_s(traced, "bulk", len(sweep.bulk)),
        "explore.chunked_points_per_s": _points_per_s(traced, "chunked", len(sweep.grid)),
        "explore.pool_points_per_s": _points_per_s(traced, "pool", len(sweep.bulk)),
    })
    # Layers of one cycle: every span's self time, the pool run's self
    # time standing for worker kernel time plus shipping.
    accounted = sum(row["self_us"] for row in whole.values()) / n
    untraced = statistics.median(c["wall"] for c in plain) * 1e6
    traced_wall = statistics.median(c["wall"] for c in traced) * 1e6
    layers.update(common.accounting(untraced, traced_wall, accounted))
    return layers


def _window_summary(tracer, windows, clock) -> dict:
    total: dict[str, dict] = {}
    for start, stop in windows:
        for name, row in tracer.summary(start, stop, clock).items():
            acc = total.setdefault(name, dict(common.EMPTY))
            for key in acc:
                acc[key] += row[key]
    return total
