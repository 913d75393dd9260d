"""``reproduce_paper``: the registry's 15 paper artefacts, back to back.

The only workload that runs ``hwsim`` (table6 alone is most of a suite),
the scalar core, precision and resources; serve and explore are never
touched.  One operation is one whole suite, ``run_all_experiments()``.
"""

from __future__ import annotations

import statistics
import time

import check
import common
import tracing


def _first_operation() -> None:
    from repro.analysis.experiments import list_experiments, run_experiment

    result = run_experiment(list_experiments()[0])
    if not result.all_within:
        common.fail(f"set-up experiment {result.experiment_id} out of tolerance")


def setup_probe(seed: int, clock) -> float:
    _first_operation()
    return clock.stop()


def _suites(budget_s: float, minimum: int, speed=None) -> list[tuple]:
    """(wall s, cpu s, results, raw wall s) per suite: at least ``minimum`` suites,
    then more while another one still fits in ``budget_s``.  With a
    :class:`common.Speedometer`, times are normalised to reference speed."""
    from repro.analysis import experiments

    out = []
    started = time.perf_counter()
    while True:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        results = experiments.run_all_experiments()
        wall1 = time.perf_counter()
        wall, cpu = wall1 - wall0, time.process_time() - cpu0
        if speed is not None:
            wall = speed.normalise(wall0, wall1, wall)
            cpu = speed.normalise(wall0, wall1, cpu, cpu=True)
        out.append((wall, cpu, results, wall1 - wall0))
        spent = time.perf_counter() - started
        if len(out) >= minimum and spent + (wall1 - wall0) > budget_s:
            return out


def _errors(suites) -> tuple[int, int]:
    attempted = failed = 0
    for _, _, results, _ in suites:
        attempted += len(results)
        problems = check.check_experiments(results)
        failed += len(problems)
        for problem in problems:
            print(f"check: {problem}")
    return attempted, failed


def run(args, clock) -> dict:
    _first_operation()
    setup = [clock.stop()]
    if not args.trace:
        setup += common.setup_probes(args, common.SETUP_SAMPLES - 1)
        with common.Speedometer() as speed:
            suites = _suites(args.seconds, 2, speed)
        attempted, failed = _errors(suites)
        walls = [suite[0] * 1e6 for suite in suites]
        return common.result(attempted, failed, {
            "setup_s": statistics.median(setup),
            "p50_us": common.percentile(walls, 50),
            "cpu_us_per_op": statistics.median(suite[1] * 1e6 for suite in suites),
            "peak_rss_mb": common.self_rss_mb(),
        }, {
            "raw_suite_s": (statistics.median(suite[3] for suite in suites), "s"),
            "suites": (len(suites), "count"),
        })

    tracer = tracing.Tracer()
    with common.Speedometer() as speed:
        plain = _suites(args.seconds / 2, 1, speed)
        tracing.install_reproduce(tracer)
        traced = _suites(args.seconds / 2, 1, speed)
        tracer.restore()
    tracer.dump(common.out_path(args, "spans.json"))
    attempted, failed = _errors(plain + traced)
    n = len(traced)
    s = tracer.summary(clock=speed.reference)
    layers = common.zero_layers()
    for name, row in s.items():
        if name.startswith("analysis.experiments."):
            layers[f"{name}_ms"] = row["total_us"] / 1e3 / n
    engine = s.get("hwsim.engine.run", common.EMPTY)
    sim = s.get("hwsim.system.run", common.EMPTY)
    predict = s.get("core.throughput.predict", common.EMPTY)
    layers.update(common.kernel_layers(s))
    layers.update({
        "analysis.suite_s": statistics.median(suite[0] for suite in traced),
        "hwsim.engine.events": engine["value"] / n,
        "hwsim.engine.run_us": engine["total_us"] / n,
        "hwsim.engine.ns_per_event": (
            engine["total_us"] * 1e3 / engine["value"] if engine["value"] else 0.0
        ),
        "hwsim.system.runs": sim["calls"] / n,
        "hwsim.system.self_us": sim["self_us"] / n,
        "core.throughput.predict_calls": predict["calls"] / n,
        "core.throughput.predict_us": predict["total_us"] / n,
    })
    untraced = statistics.median(suite[0] for suite in plain) * 1e6
    traced_e2e = statistics.median(suite[0] for suite in traced) * 1e6
    accounted = sum(
        row["self_us"] for row in s.values()
    ) / n
    layers.update(common.accounting(untraced, traced_e2e, accounted))
    layers["error_rate"] = failed / attempted
    return common.result(attempted, failed, layers)
