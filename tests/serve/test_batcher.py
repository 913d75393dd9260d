"""Micro-batcher tests: batch formation, parity, quarantine, admission."""

import asyncio
import inspect
import json

import pytest

from repro.core.buffering import BufferingMode
from repro.core.params import RATInput
from repro.core.throughput import predict
from repro.errors import (
    AdmissionError,
    DeadlineError,
    ParameterError,
    ServeError,
)
from repro.serve.batcher import (
    MicroBatcher,
    resolve_modes,
    scalar_diagnostic,
    worksheet_row,
)

WORKSHEET = {
    "name": "1-D PDF",
    "elements_in": 512,
    "elements_out": 1,
    "bytes_per_element": 4,
    "throughput_ideal_mbps": 1000.0,
    "alpha_write": 0.37,
    "alpha_read": 0.16,
    "ops_per_element": 768,
    "throughput_proc": 20.0,
    "clock_mhz": 150.0,
    "t_soft": 0.578,
    "n_iterations": 400,
}

_RESULT_FIELDS = (
    "t_input", "t_output", "t_comm", "t_comp", "t_rc",
    "speedup", "util_comp", "util_comm",
)


def run(coro):
    return asyncio.run(coro)


async def _with_batcher(body, **kwargs):
    batcher = MicroBatcher(**kwargs)
    batcher.start()
    try:
        return await body(batcher)
    finally:
        await batcher.close()


def hold_consumer(batcher):
    """Keep ``batcher``'s consumer from running until ``release()``.

    Call before the batcher starts.  Submits queue up meanwhile, which
    lets socket-level tests line up requests that arrive on different
    loop iterations and then release them as one batch.
    """
    gate = asyncio.Event()
    consume = batcher._consume

    async def gated():
        await gate.wait()
        await consume()

    batcher._consume = gated
    return gate.set


async def wait_for_depth(batcher, depth, timeout_s=10.0):
    """Poll until ``depth`` requests are queued (the consumer is held)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while batcher.depth < depth:
        assert loop.time() < deadline, f"queue stuck at {batcher.depth}"
        await asyncio.sleep(0.001)


class TestWorksheetRow:
    def test_matches_from_dict_staging(self):
        row = worksheet_row(WORKSHEET)
        rat = RATInput.from_dict(WORKSHEET)
        assert row == (
            float(rat.dataset.elements_in),
            float(rat.dataset.elements_out),
            rat.dataset.bytes_per_element,
            rat.communication.ideal_bandwidth,
            rat.communication.alpha_write,
            rat.communication.alpha_read,
            rat.computation.ops_per_element,
            rat.computation.throughput_proc,
            rat.computation.clock_hz,
            rat.software.t_soft,
            float(rat.software.n_iterations),
        )

    def test_int_fields_truncate_like_from_dict(self):
        # from_dict coerces counts through int(); staging must match.
        row = worksheet_row({**WORKSHEET, "elements_in": 512.9})
        assert row[0] == 512.0

    def test_missing_field(self):
        bad = dict(WORKSHEET)
        del bad["t_soft"]
        with pytest.raises(ParameterError, match="missing worksheet field"):
            worksheet_row(bad)

    def test_non_numeric_field(self):
        with pytest.raises(ParameterError, match="non-numeric"):
            worksheet_row({**WORKSHEET, "clock_mhz": "fast"})

    def test_non_mapping(self):
        with pytest.raises(ParameterError):
            worksheet_row([1, 2, 3])


class TestResolveModes:
    def test_values(self):
        assert resolve_modes("single") == (BufferingMode.SINGLE,)
        assert resolve_modes("double") == (BufferingMode.DOUBLE,)
        assert resolve_modes("both") == (
            BufferingMode.SINGLE, BufferingMode.DOUBLE,
        )

    def test_unknown_mode(self):
        with pytest.raises(ParameterError, match="mode must be one of"):
            resolve_modes("triple")


class TestBitwiseParity:
    def test_single_submit_equals_scalar_predict(self):
        """Acceptance criterion: micro-batched results are bitwise-equal
        to scalar ``predict()`` for the same worksheet."""
        async def body(batcher):
            return await batcher.submit(WORKSHEET)

        record, _ = run(_with_batcher(body))
        rat = RATInput.from_dict(WORKSHEET)
        for mode in (BufferingMode.SINGLE, BufferingMode.DOUBLE):
            scalar = predict(rat, mode)
            for field in _RESULT_FIELDS:
                assert record[mode.value][field] == getattr(scalar, field)

    def test_parity_holds_inside_coalesced_batch(self):
        """Sharing a batch with different worksheets must not perturb a
        row's result (no cross-row contamination)."""
        variants = [
            {**WORKSHEET, "clock_mhz": 75.0 + 25.0 * i} for i in range(8)
        ]

        async def body(batcher):
            return await asyncio.gather(
                *[batcher.submit(ws) for ws in variants]
            )

        results = run(_with_batcher(body))
        sizes = {batch_size for _, batch_size in results}
        assert sizes == {8}, "expected all 8 requests in one batch"
        for ws, (record, _) in zip(variants, results):
            scalar = predict(RATInput.from_dict(ws), BufferingMode.SINGLE)
            assert record["single"]["speedup"] == scalar.speedup
            assert record["single"]["t_rc"] == scalar.t_rc

    def test_json_roundtrip_preserves_parity(self):
        """float -> JSON -> float is exact (repr round-trip), so wire
        serialisation cannot break the bitwise guarantee."""
        async def body(batcher):
            return await batcher.submit(WORKSHEET)

        record, _ = run(_with_batcher(body))
        rehydrated = json.loads(json.dumps(record))
        scalar = predict(RATInput.from_dict(WORKSHEET), BufferingMode.DOUBLE)
        assert rehydrated["double"]["speedup"] == scalar.speedup


class TestCoalescing:
    def test_concurrent_submits_share_a_batch(self):
        async def body(batcher):
            return await asyncio.gather(
                *[batcher.submit(WORKSHEET) for _ in range(32)]
            )

        results = run(_with_batcher(body))
        assert {batch_size for _, batch_size in results} == {32}
        assert len(results) == 32

    def test_batch_size_cap_respected(self):
        async def body(batcher):
            return await asyncio.gather(
                *[batcher.submit(WORKSHEET) for _ in range(10)]
            )

        results = run(_with_batcher(body, max_batch_size=4))
        assert sorted(batch_size for _, batch_size in results) == (
            [2] * 2 + [4] * 8
        )

    def test_zero_wait_still_serves(self, monkeypatch):
        """A lone request is dispatched at once: no coalescing timer."""
        async def body(batcher):
            async def no_sleep(*args, **kwargs):
                raise AssertionError("batcher path awaited asyncio.sleep")

            monkeypatch.setattr(asyncio, "sleep", no_sleep)
            return await batcher.submit(WORKSHEET)

        record, batch_size = run(_with_batcher(body))
        assert batch_size == 1
        assert record["single"]["speedup"] > 0

    def test_arrivals_during_a_batch_form_the_next_batch(self):
        async def body(batcher):
            late = []
            execute = batcher._execute

            def execute_and_admit(batch):
                # Requests that arrive while the first batch runs must
                # queue behind it and then share one follow-up batch.
                if not late:
                    late.extend(
                        asyncio.ensure_future(batcher.submit(WORKSHEET))
                        for _ in range(5)
                    )
                execute(batch)

            batcher._execute = execute_and_admit
            first = await batcher.submit(WORKSHEET)
            return first, await asyncio.gather(*late), batcher.batches

        (_, first_size), rest, batches = run(_with_batcher(body))
        assert first_size == 1
        assert [batch_size for _, batch_size in rest] == [5] * 5
        assert batches == 2

    def test_mixed_modes_in_one_batch(self):
        async def body(batcher):
            return await asyncio.gather(
                batcher.submit(WORKSHEET, resolve_modes("single")),
                batcher.submit(WORKSHEET, resolve_modes("double")),
                batcher.submit(WORKSHEET, resolve_modes("both")),
            )

        only_single, only_double, both = run(
            _with_batcher(body)
        )
        assert set(only_single[0]) == {"single"}
        assert set(only_double[0]) == {"double"}
        assert set(both[0]) == {"single", "double"}


class TestQuarantine:
    def test_one_bad_row_fails_only_that_request(self):
        bad = {**WORKSHEET, "alpha_write": -0.5}

        async def body(batcher):
            futures = [
                batcher.submit(WORKSHEET),
                batcher.submit(bad),
                batcher.submit(WORKSHEET),
            ]
            return await asyncio.gather(*futures, return_exceptions=True)

        ok1, err, ok2 = run(_with_batcher(body))
        assert isinstance(err, ParameterError)
        for ok in (ok1, ok2):
            record, _ = ok
            scalar = predict(
                RATInput.from_dict(WORKSHEET), BufferingMode.SINGLE
            )
            assert record["single"]["speedup"] == scalar.speedup

    def test_diagnostic_is_byte_identical_to_scalar_path(self):
        """Acceptance criterion: the quarantined request's error message
        is the byte-identical scalar diagnostic."""
        bad_sheets = [
            {**WORKSHEET, "alpha_write": -0.5},
            {**WORKSHEET, "elements_in": 0},
            {**WORKSHEET, "clock_mhz": 0.0},
            {**WORKSHEET, "n_iterations": -3},
        ]
        for bad in bad_sheets:
            with pytest.raises(ParameterError) as scalar_info:
                RATInput.from_dict(bad)

            async def body(batcher, bad=bad):
                # Coalesce with a good row so the error takes the
                # batch-quarantine path, not a scalar pre-check.
                results = await asyncio.gather(
                    batcher.submit(WORKSHEET),
                    batcher.submit(bad),
                    return_exceptions=True,
                )
                return results[1]

            served = run(_with_batcher(body))
            assert isinstance(served, ParameterError)
            assert str(served) == str(scalar_info.value)

    def test_scalar_diagnostic_fallback(self):
        # A worksheet the scalar path accepts uses the fallback message.
        assert scalar_diagnostic(WORKSHEET, "fallback text") == "fallback text"


class TestAdmissionControl:
    def test_queue_full_raises_429_error(self):
        async def body(batcher):
            tasks = [
                asyncio.ensure_future(batcher.submit(WORKSHEET))
                for _ in range(4)
            ]
            # One yield lets the submits enqueue; the consumer they
            # wake is scheduled behind this coroutine, so the queue is
            # still full when the fifth submit arrives.
            await asyncio.sleep(0)
            with pytest.raises(AdmissionError) as info:
                await batcher.submit(WORKSHEET)
            assert info.value.retry_after_s > 0
            return await asyncio.gather(*tasks)

        results = run(
            _with_batcher(body, max_pending=4)
        )
        assert len(results) == 4

    def test_rejected_when_not_started(self):
        async def body():
            batcher = MicroBatcher()
            with pytest.raises(ServeError):
                await batcher.submit(WORKSHEET)

        run(body())

    def test_deadline_expired_in_queue(self):
        async def body(batcher):
            # An already-expired deadline (negative) must fail at batch
            # execution time with DeadlineError, not be evaluated.
            good = asyncio.ensure_future(batcher.submit(WORKSHEET))
            with pytest.raises(DeadlineError):
                await batcher.submit(WORKSHEET, deadline_s=-1.0)
            return await good

        record, _ = run(_with_batcher(body))
        assert record["single"]["speedup"] > 0

    def test_retry_after_scales_with_depth(self):
        batcher = MicroBatcher(max_batch_size=8)
        shallow = batcher.retry_after_s()
        batcher._pending.extend([None] * 64)  # simulate depth
        assert batcher.retry_after_s() > shallow

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ParameterError):
            MicroBatcher(max_batch_size=0)
        with pytest.raises(ParameterError):
            MicroBatcher(max_pending=0)

    def test_no_wait_or_worker_knobs_anywhere(self):
        """Batches form on arrival with one consumer, so no layer takes
        a coalescing-wait or consumer-count setting."""
        from dataclasses import fields

        from repro.serve import RATApp, serve
        from repro.serve.cluster import ShardConfig

        surfaces = {
            "MicroBatcher": inspect.signature(MicroBatcher).parameters,
            "RATApp": inspect.signature(RATApp).parameters,
            "serve": inspect.signature(serve).parameters,
            "ShardConfig": [f.name for f in fields(ShardConfig)],
        }
        for surface, names in surfaces.items():
            retired = [n for n in names if "wait" in n or n == "workers"]
            assert retired == [], f"{surface} still takes {retired}"


class TestLifecycle:
    def test_close_drains_queued_work(self):
        async def body():
            batcher = MicroBatcher()
            batcher.start()
            futures = [
                asyncio.ensure_future(batcher.submit(WORKSHEET))
                for _ in range(5)
            ]
            await asyncio.sleep(0)  # let submits enqueue
            await batcher.close(drain=True)
            return await asyncio.gather(*futures)

        results = run(body())
        assert len(results) == 5

    def test_close_without_drain_fails_queued_work(self):
        async def body():
            batcher = MicroBatcher()
            batcher.start()
            future = asyncio.ensure_future(batcher.submit(WORKSHEET))
            await asyncio.sleep(0)
            await batcher.close(drain=False)
            return await asyncio.gather(future, return_exceptions=True)

        (result,) = run(body())
        assert isinstance(result, ServeError)

    def test_submit_after_close_rejected(self):
        async def body():
            batcher = MicroBatcher()
            batcher.start()
            await batcher.close()
            with pytest.raises(ServeError):
                await batcher.submit(WORKSHEET)

        run(body())

    def test_counters_track_served_batches(self):
        from repro.obs import get_metrics

        metrics = get_metrics()
        waits = metrics.histogram("serve.batch_wait_seconds")
        sizes = metrics.histogram("serve.batch_size")
        before = waits.count, sizes.count

        async def body(batcher):
            await asyncio.gather(
                *[batcher.submit(WORKSHEET) for _ in range(6)]
            )
            return batcher.batches, batcher.served

        batches, served = run(_with_batcher(body))
        assert (batches, served) == (1, 6)
        # Queue wait is per request; batch size is per batch.
        assert waits.count - before[0] == 6
        assert sizes.count - before[1] == 1


class TestParityWithQuarantine:
    def test_parity_survives_quarantine(self):
        # A mixed batch: one poisoned row quarantined, the surviving
        # rows still byte-match scalar predict.
        async def body(batcher):
            good = batcher.submit(WORKSHEET)
            bad = batcher.submit({**WORKSHEET, "alpha_write": 1.7})
            good2 = batcher.submit({**WORKSHEET, "clock_mhz": 100.0})
            results = await asyncio.gather(
                good, bad, good2, return_exceptions=True
            )
            return results

        first, poisoned, second = run(
            _with_batcher(body)
        )
        assert isinstance(poisoned, ParameterError)
        rat = RATInput.from_dict(WORKSHEET)
        assert first[0]["single"]["speedup"] == predict(
            rat, BufferingMode.SINGLE
        ).speedup
        rat2 = RATInput.from_dict({**WORKSHEET, "clock_mhz": 100.0})
        assert second[0]["single"]["speedup"] == predict(
            rat2, BufferingMode.SINGLE
        ).speedup
