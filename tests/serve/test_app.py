"""Application-layer tests: routing, endpoints, error mapping."""

import asyncio
import json

from repro.core.buffering import BufferingMode
from repro.core.params import RATInput
from repro.core.throughput import predict
from repro.serve.app import RATApp
from repro.serve.protocol import Request

from .test_batcher import WORKSHEET


def post(path, payload):
    body = json.dumps(payload).encode()
    return Request("POST", path, {"content-length": str(len(body))}, body)


def get(path):
    return Request("GET", path, {})


def run_app(*requests, **app_kwargs):
    """Boot an app, serve the requests sequentially, drain, return
    (status, decoded-body) pairs."""
    async def body():
        app = RATApp(**app_kwargs)
        await app.startup()
        try:
            responses = []
            for request in requests:
                response = await app.handle(request)
                payload = (
                    json.loads(response.body)
                    if response.content_type.startswith("application/json")
                    else response.body.decode()
                )
                responses.append((response.status, payload, response))
            return responses
        finally:
            await app.shutdown()

    return asyncio.run(body())


class TestRouting:
    def test_unknown_route_404(self):
        [(status, payload, _)] = run_app(get("/v2/nothing"))
        assert status == 404
        assert "no route" in payload["error"]

    def test_wrong_method_405(self):
        [(status, _, _)] = run_app(get("/v1/predict"))
        assert status == 405

    def test_healthz_requires_get(self):
        [(status, _, _)] = run_app(post("/healthz", {}))
        assert status == 405

    def test_malformed_json_400(self):
        request = Request(
            "POST", "/v1/predict", {"content-length": "5"}, b"{nope"
        )
        [(status, payload, _)] = run_app(request)
        assert status == 400
        assert "malformed JSON" in payload["error"]


class TestHealthz:
    def test_ok(self):
        [(status, payload, _)] = run_app(get("/healthz"))
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["queue_depth"] == 0

    def test_draining_visible_and_other_routes_503(self):
        async def body():
            app = RATApp()
            await app.startup()
            app.draining = True
            health = await app.handle(get("/healthz"))
            predict_response = await app.handle(
                post("/v1/predict", WORKSHEET)
            )
            await app.shutdown()
            return health, predict_response

        health, predict_response = asyncio.run(body())
        assert json.loads(health.body)["status"] == "draining"
        assert predict_response.status == 503


class TestLivenessReadinessSplit:
    def test_live_and_ready_ok_by_default(self):
        (live, ready) = run_app(get("/healthz/live"), get("/healthz/ready"))
        assert live[0] == 200
        assert live[1]["live"] is True
        assert ready[0] == 200
        assert ready[1] == {"ready": True, "reason": "ok"}

    def test_legacy_healthz_alias_still_answers(self):
        [(status, payload, _)] = run_app(get("/healthz"))
        assert status == 200
        assert payload["ready"] is True

    def test_shard_identity_stamped_when_set(self):
        (health, live, ready) = run_app(
            get("/healthz"), get("/healthz/live"), get("/healthz/ready"),
            shard_id=3,
        )
        assert health[1]["shard"] == 3
        assert live[1]["shard"] == 3
        assert ready[1]["shard"] == 3

    def test_draining_not_ready_but_still_live(self):
        async def body():
            app = RATApp()
            await app.startup()
            app.draining = True
            live = await app.handle(get("/healthz/live"))
            ready = await app.handle(get("/healthz/ready"))
            await app.shutdown()
            return live, ready

        live, ready = asyncio.run(body())
        assert live.status == 200
        assert ready.status == 503
        assert json.loads(ready.body)["reason"] == "draining"

    def test_cluster_floor_breaks_readiness_not_liveness(self):
        async def body():
            app = RATApp(shard_id=1)
            await app.startup()
            app.cluster_state = {"ready": False, "live": 1, "shards": 4}
            live = await app.handle(get("/healthz/live"))
            ready = await app.handle(get("/healthz/ready"))
            predicted = await app.handle(post("/v1/predict", WORKSHEET))
            await app.shutdown()
            return live, ready, predicted

        live, ready, predicted = asyncio.run(body())
        assert live.status == 200
        assert ready.status == 503
        assert "floor" in json.loads(ready.body)["reason"]
        # Readiness is a routing hint, not a request gate: work that
        # still arrives on this shard is served.
        assert predicted.status == 200


class TestPredict:
    def test_bare_worksheet_body(self):
        [(status, payload, _)] = run_app(post("/v1/predict", WORKSHEET))
        assert status == 200
        assert payload["name"] == "1-D PDF"
        assert set(payload["predictions"]) == {"single", "double"}

    def test_enveloped_worksheet_with_mode(self):
        [(status, payload, _)] = run_app(
            post("/v1/predict", {"worksheet": WORKSHEET, "mode": "single"})
        )
        assert status == 200
        assert set(payload["predictions"]) == {"single"}

    def test_result_bitwise_equal_to_scalar(self):
        [(_, payload, _)] = run_app(post("/v1/predict", WORKSHEET))
        rat = RATInput.from_dict(WORKSHEET)
        for mode in (BufferingMode.SINGLE, BufferingMode.DOUBLE):
            scalar = predict(rat, mode)
            served = payload["predictions"][mode.value]
            for field, value in served.items():
                assert value == getattr(scalar, field), (mode, field)

    def test_invalid_worksheet_400_with_scalar_message(self):
        bad = {**WORKSHEET, "alpha_read": 2.0}
        [(status, payload, _)] = run_app(post("/v1/predict", bad))
        assert status == 400
        assert payload["error"] == "alpha_read must be in (0, 1], got 2.0"

    def test_missing_field_400(self):
        bad = dict(WORKSHEET)
        del bad["ops_per_element"]
        [(status, payload, _)] = run_app(post("/v1/predict", bad))
        assert status == 400
        assert "missing worksheet field 'ops_per_element'" in payload["error"]

    def test_bad_mode_400(self):
        [(status, _, _)] = run_app(
            post("/v1/predict", {"worksheet": WORKSHEET, "mode": "warp"})
        )
        assert status == 400

    def test_non_object_body_400(self):
        [(status, _, _)] = run_app(post("/v1/predict", [1, 2]))
        assert status == 400

    def test_bad_deadline_400(self):
        [(status, _, _)] = run_app(
            post("/v1/predict", {"worksheet": WORKSHEET, "deadline_ms": 0})
        )
        assert status == 400


class TestBatchEndpoint:
    def test_mixed_valid_invalid_rows(self):
        sheets = [
            WORKSHEET,
            {**WORKSHEET, "alpha_write": -1.0},
            {**WORKSHEET, "clock_mhz": 75.0},
        ]
        [(status, payload, _)] = run_app(
            post("/v1/batch", {"worksheets": sheets, "mode": "single"})
        )
        assert status == 200
        assert payload["rows"] == 3
        assert payload["evaluated"] == 2
        assert payload["failed"] == 1
        ok0, bad1, ok2 = payload["results"]
        assert ok0["ok"] and ok2["ok"] and not bad1["ok"]
        assert bad1["error"] == "alpha_write must be in (0, 1], got -1.0"
        scalar = predict(RATInput.from_dict(sheets[2]), BufferingMode.SINGLE)
        assert ok2["predictions"]["single"]["speedup"] == scalar.speedup

    def test_malformed_row_reported_in_place(self):
        [(status, payload, _)] = run_app(
            post("/v1/batch", {"worksheets": [WORKSHEET, {"nope": 1}]})
        )
        assert status == 200
        assert payload["results"][0]["ok"]
        assert "missing worksheet field" in payload["results"][1]["error"]

    def test_empty_batch_400(self):
        [(status, _, _)] = run_app(post("/v1/batch", {"worksheets": []}))
        assert status == 400

    def test_oversized_batch_413(self):
        [(status, payload, _)] = run_app(
            post("/v1/batch", {"worksheets": [WORKSHEET] * 5}),
            max_batch_rows=4,
        )
        assert status == 413
        assert "exceeds" in payload["error"]


class TestExploreEndpoint:
    def test_study_sweep(self):
        [(status, payload, _)] = run_app(
            post("/v1/explore", {
                "study": "pdf1d",
                "axes": {"clock_mhz": [100.0, 150.0, 200.0]},
                "top": 2,
            })
        )
        assert status == 200
        assert payload["points"] == 3
        assert len(payload["predictions"]) == 2
        speedups = [p["speedup"] for p in payload["predictions"]]
        assert speedups == sorted(speedups, reverse=True)

    def test_inline_worksheet_and_range_axis(self):
        [(status, payload, _)] = run_app(
            post("/v1/explore", {
                "worksheet": WORKSHEET,
                "axes": {"clock_mhz": {"lo": 100, "hi": 200, "count": 5}},
            })
        )
        assert status == 200
        assert payload["points"] == 5

    def test_missing_base_400(self):
        [(status, _, _)] = run_app(post("/v1/explore", {"axes": {}}))
        assert status == 400

    def test_unknown_axis_400(self):
        [(status, _, _)] = run_app(
            post("/v1/explore", {"study": "pdf1d", "axes": {"warp": [1]}})
        )
        assert status == 400

    def test_bad_axis_spec_400(self):
        for axes in ({"clock_mhz": []}, {"clock_mhz": {"lo": 1}},
                     {"clock_mhz": "75,100"}):
            [(status, _, _)] = run_app(
                post("/v1/explore", {"study": "pdf1d", "axes": axes})
            )
            assert status == 400, axes

    def test_point_limit_413(self):
        [(status, payload, _)] = run_app(
            post("/v1/explore", {
                "study": "pdf1d",
                "axes": {"clock_mhz": {"lo": 50, "hi": 500, "count": 100}},
            }),
            max_explore_points=10,
        )
        assert status == 413
        assert "100 points" in payload["error"]


class TestMetricsEndpoint:
    def test_plain_text_summary(self):
        [_, (status, text, response)] = run_app(
            post("/v1/predict", WORKSHEET), get("/metrics")
        )
        assert status == 200
        assert response.content_type.startswith("text/plain")
        assert "serve.requests" in text
        assert "serve.batch_size" in text


class TestErrorMapping:
    def test_429_carries_retry_after_header(self):
        async def body():
            app = RATApp(max_pending=1)
            await app.startup()
            try:
                first = asyncio.ensure_future(
                    app.handle(post("/v1/predict", WORKSHEET))
                )
                # One yield queues the first request; the consumer it
                # wakes runs after this coroutine, so the slot is taken.
                await asyncio.sleep(0)
                second = await app.handle(post("/v1/predict", WORKSHEET))
                await first
                return second
            finally:
                await app.shutdown()

        response = asyncio.run(body())
        assert response.status == 429
        headers = dict(response.headers)
        assert int(headers["Retry-After"]) >= 1

    def test_unexpected_exception_500(self):
        async def body():
            app = RATApp()
            await app.startup()
            app._route = None  # force a TypeError inside handle()
            try:
                return await app.handle(get("/healthz"))
            finally:
                await app.shutdown()

        response = asyncio.run(body())
        assert response.status == 500
        assert "internal error" in json.loads(response.body)["error"]
