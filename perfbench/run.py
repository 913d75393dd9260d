"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``./src``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced pass.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # workload start: before the program is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

WORKLOADS = ("predict_trickle", "predict_flood", "explore_sweep", "reproduce_paper")


def emit(result: dict, units: dict[str, str]) -> None:
    """Print every metric with its unit, then the JSON result line."""
    for name, value in result["metrics"].items():
        print(f"{name:<44} {value:>16.6g} {units[name]}")
    for name, (value, unit) in result.pop("details").items():
        print(f"detail {name:<37} {value:>16.6g} {unit}")
    print(
        f"correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}"
    )
    result["metrics"] = {
        name: {"value": float(value), "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result), flush=True)


def _runner(workload: str):
    if workload == "reproduce_paper":
        import wl_reproduce as module
    elif workload == "explore_sweep":
        import wl_explore as module
    else:
        import wl_serve as module

        return module.TRICKLE if workload == "predict_trickle" else module.FLOOD
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import common
    import metrics_spec

    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        common.fail(f"no program source in {common.SRC}; run from the checkout root")
    sys.path.insert(0, common.SRC)
    clock = common.SetupClock(T0)
    runner = _runner(args.workload)
    if args.setup_probe:
        print(runner.setup_probe(args.seed, clock))
        return 0
    result = runner.run(args, clock)
    units = metrics_spec.units(per_layer=bool(args.trace))
    missing = set(units) - set(result["metrics"])
    extra = set(result["metrics"]) - set(units)
    if missing or extra:
        common.fail(f"metric set mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    result["metrics"] = {name: result["metrics"][name] for name in units}
    emit(result, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
