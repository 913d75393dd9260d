"""The benchmark's own tests: seeded inputs, the output checker, the
rate ladder and the tracer.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def bases():
    return inputs.base_worksheets()


# ---- seeded inputs ---------------------------------------------------------


def test_schedules_are_deterministic_per_seed():
    first = inputs.poisson_schedule(7, 300.0, 2.0)
    assert first == inputs.poisson_schedule(7, 300.0, 2.0)
    assert first != inputs.poisson_schedule(8, 300.0, 2.0)
    assert all(0 <= t < 2.0 for t in first)
    assert first == sorted(first)
    assert 450 < len(first) < 750  # ~600 arrivals at 300/s for 2 s


def test_worksheets_and_mix_are_deterministic_per_seed(bases):
    assert inputs.worksheet_pool(3, bases) == inputs.worksheet_pool(3, bases)
    assert inputs.worksheet_pool(3, bases) != inputs.worksheet_pool(4, bases)
    assert inputs.request_mix(3, 500) == inputs.request_mix(3, 500)
    assert inputs.request_mix(3, 500) != inputs.request_mix(4, 500)


def test_invalid_share_and_mode_mix_are_exact(bases):
    from repro.core.params import RATInput
    from repro.errors import ParameterError

    pool = inputs.worksheet_pool(5, bases)
    messages = set()
    for worksheet in pool:
        try:
            RATInput.from_dict(worksheet)
        except ParameterError as exc:
            messages.add(str(exc).split(" must ")[0])
    invalid = sum(1 for ws in pool if _invalid(ws))
    assert invalid == round(inputs.POOL_SIZE * inputs.INVALID_SHARE)
    assert len(messages) >= 5  # diagnostics span several rules
    mix = inputs.request_mix(5, 2 * inputs.POOL_SIZE)
    assert sorted(i for i, _ in mix[:inputs.POOL_SIZE]) == list(range(inputs.POOL_SIZE))
    modes = [mode for _, mode in mix[:20]]
    assert (modes.count("both"), modes.count("single"), modes.count("double")) == (16, 2, 2)


def _invalid(worksheet) -> bool:
    from repro.core.params import RATInput
    from repro.errors import ParameterError

    try:
        RATInput.from_dict(worksheet)
    except ParameterError:
        return True
    return False


def test_explore_spaces_are_seeded_with_about_ten_percent_invalid(bases):
    from repro.core.params import RATInput

    base = RATInput.from_dict(bases["pdf1d"])
    space, invalid = inputs.chunked_space(9, base)
    again, _ = inputs.chunked_space(9, base)
    assert len(space) == 100_000
    assert (space.values == again.values).all()
    assert 0.08 < invalid.mean() < 0.13


# ---- output checker --------------------------------------------------------


def _responses(pool, keys):
    """Real service answers for ``keys``, through ``RATApp.handle``."""
    from repro.serve.app import RATApp
    from repro.serve.protocol import Request

    async def main():
        app = RATApp()
        await app.startup()
        try:
            out = []
            for index, mode in keys:
                body = inputs.request_body(pool[index], mode)
                response = await app.handle(Request(
                    "POST", "/v1/predict", {"content-length": str(len(body))}, body,
                ))
                out.append((response.status, response.body))
            return out
        finally:
            await app.shutdown()

    return asyncio.run(main())


def test_checker_accepts_the_service_and_catches_corruption(bases):
    pool = inputs.worksheet_pool(11, bases)
    reference = check.PredictReference(pool)
    valid = next(i for i, ws in enumerate(pool) if not _invalid(ws))
    invalid = next(i for i, ws in enumerate(pool) if _invalid(ws))
    keys = [(valid, "both"), (valid, "double"), (invalid, "both")]
    answers = _responses(pool, keys)
    for (index, mode), (status, body) in zip(keys, answers):
        assert reference.check(index, mode, status, body) == ""

    status, body = answers[0]
    payload = json.loads(body)
    t_rc = payload["predictions"]["single"]["t_rc"]
    payload["predictions"]["single"]["t_rc"] = math.nextafter(t_rc, math.inf)
    corrupted = json.dumps(payload).encode()
    assert "t_rc" in reference.check(valid, "both", status, corrupted)

    status, body = answers[2]
    payload = json.loads(body)
    payload["error"] = payload["error"].replace("must", "should")
    assert "diagnostic" in reference.check(
        invalid, "both", status, json.dumps(payload).encode()
    )
    assert "status" in reference.check(invalid, "both", 200, answers[0][1])
    assert "status" in reference.check(valid, "both", 429, b"{}")


def test_experiment_check_catches_a_missed_anchor():
    from repro.analysis.experiments import run_experiment

    results = [run_experiment(eid) for eid in ("table3", "table6", "table9")]
    assert check.check_experiments(results) == []
    assert any("anchor" in p for p in check.check_experiments(results[1:]))


# ---- rate ladder -----------------------------------------------------------


@pytest.mark.parametrize("capacity", [0, 999, 1000, 3000, 4321, 19999, 25000])
def test_max_rps_finds_the_highest_sustained_rung(capacity):
    probed = []

    async def holds(rate):
        probed.append(rate)
        return rate <= capacity

    found = asyncio.run(loadgen.max_rps(loadgen.LADDER, holds))
    expected = max((r for r in loadgen.LADDER if r <= capacity), default=0)
    assert found == expected
    assert len(probed) <= loadgen.probes_needed(loadgen.LADDER)


def test_small_ladder():
    async def holds(rate):
        return rate < 250

    assert asyncio.run(loadgen.max_rps((100, 200, 300), holds)) == 200


def test_ladder_steps_are_finer_than_ten_percent():
    steps = [b / a - 1 for a, b in zip(loadgen.LADDER, loadgen.LADDER[1:])]
    assert max(steps) < 0.10


def test_sustained_needs_low_p90_and_no_backlog():
    fast = [1000.0] * 95 + [50_000.0] * 5
    assert loadgen.sustained(fast, backlog=3, aborted=False, rate=3000)
    slow = [1000.0] * 80 + [50_000.0] * 20
    assert not loadgen.sustained(slow, backlog=3, aborted=False, rate=3000)
    assert not loadgen.sustained(fast, backlog=500, aborted=False, rate=3000)
    assert not loadgen.sustained(fast, backlog=0, aborted=True, rate=3000)


def test_open_loop_times_from_due_and_reports_lag():
    fired = []

    async def main():
        return await loadgen.open_loop([0.0, 0.01, 0.02], lambda i, due: fired.append(i))

    lags, aborted = asyncio.run(main())
    assert fired == [0, 1, 2] and not aborted
    assert all(0 <= lag < 0.05 for lag in lags)


# ---- tracer ----------------------------------------------------------------


def test_self_time_subtracts_children_and_restore_unpatches():
    import time
    import types

    module = types.SimpleNamespace()

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        module.inner()

    module.inner, module.outer = inner, outer
    tracer = tracing.Tracer()
    assert tracer.span(module, "inner", "inner")
    assert tracer.span(module, "outer", "outer")
    assert not tracer.span(module, "missing", "missing")
    module.outer()
    tracer.restore()
    assert module.inner is inner and module.outer is outer
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1
    assert summary["outer"]["total_us"] >= 20_000
    assert 9_000 <= summary["outer"]["self_us"] < summary["outer"]["total_us"] - 9_000


# ---- speed normalisation ---------------------------------------------------


def test_reference_clock_scales_by_the_later_calibration():
    import common

    ref = common.REFERENCE_CAL_S
    speed = common.Speedometer()
    # Calibrations at t=0 (reference speed), t=1 (half speed), t=2 (reference).
    speed.samples = [(0.0, ref, ref), (1.0, 2 * ref, 2 * ref), (2.0, ref, ref)]
    assert speed.reference(0.0) == 0.0
    assert speed.reference(ref) == 0.0  # calibrations take no reference time
    assert speed.reference(1.0) == pytest.approx((1.0 - ref) / 2)
    assert speed.reference(1.0 + 2 * ref) == speed.reference(1.0)
    assert speed.reference(2.0) - speed.reference(1.0 + 2 * ref) == pytest.approx(1.0 - 2 * ref)
    assert speed.own(0.0, 1.5) == pytest.approx(3 * ref)
    # One second of work at half speed, its calibration removed, is half
    # a reference second.
    assert speed.normalise(0.5, 1.5, 1.0) == pytest.approx(
        (1.0 - 2 * ref) * speed.speed_factor(0.5, 1.5)
    )
    assert speed.speed_factor(ref, 1.0) == pytest.approx(0.5)
    assert speed.speed_factor(1.0 + 2 * ref, 2.0) == pytest.approx(1.0)


def test_sliced_percentile_takes_the_median_window():
    import common

    timed = [(t / 100, 1.0) for t in range(300)] + [(3.5, 100.0)] * 200
    assert common.sliced_percentile(timed, 50) == 1.0
