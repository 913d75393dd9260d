"""Transport tests: real sockets, keep-alive, framing limits, drain."""

import asyncio
import json

from repro.serve import RATApp, RATServer

from .test_batcher import WORKSHEET, hold_consumer, wait_for_depth


async def _start_server(*, held=False, **app_kwargs):
    """Start a server; ``held`` also returns the batcher's release()."""
    app = RATApp(**app_kwargs)
    release = hold_consumer(app.batcher) if held else None
    server = RATServer(app, host="127.0.0.1", port=0)
    await server.start()
    return (app, server, release) if held else (app, server)


def _request_bytes(method, path, payload=None, extra_headers=""):
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: test\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra_headers}"
        "\r\n"
    )
    return head.encode() + body


async def _roundtrip(port, *wire_requests):
    """Send requests down one keep-alive connection; return raw responses."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    try:
        for wire in wire_requests:
            writer.write(wire)
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            headers = {}
            for line in head.split(b"\r\n")[1:]:
                if b":" in line:
                    name, _, value = line.partition(b":")
                    headers[name.strip().lower()] = value.strip()
            body = await reader.readexactly(
                int(headers.get(b"content-length", b"0"))
            )
            status = int(head.split(b" ", 2)[1])
            responses.append((status, headers, body))
    finally:
        writer.close()
        await writer.wait_closed()
    return responses


class TestEndToEnd:
    def test_full_session_on_one_connection(self):
        async def body():
            app, server = await _start_server()
            try:
                return await _roundtrip(
                    server.port,
                    _request_bytes("GET", "/healthz"),
                    _request_bytes("POST", "/v1/predict", WORKSHEET),
                    _request_bytes("GET", "/metrics"),
                )
            finally:
                await server.shutdown()

        health, predicted, metrics = asyncio.run(body())
        assert health[0] == 200
        assert json.loads(health[2])["status"] == "ok"
        assert predicted[0] == 200
        payload = json.loads(predicted[2])
        assert payload["predictions"]["single"]["speedup"] > 0
        assert metrics[0] == 200
        assert b"serve.requests" in metrics[2]

    def test_concurrent_connections_coalesce(self):
        async def one(port):
            [(status, _, body)] = await _roundtrip(
                port, _request_bytes("POST", "/v1/predict", WORKSHEET)
            )
            assert status == 200
            return json.loads(body)["batch_size"]

        async def body():
            app, server, release = await _start_server(held=True)
            try:
                clients = [
                    asyncio.ensure_future(one(server.port))
                    for _ in range(16)
                ]
                await wait_for_depth(app.batcher, 16)
                release()
                return await asyncio.gather(*clients)
            finally:
                release()
                await server.shutdown()

        sizes = asyncio.run(body())
        assert sizes == [16] * 16, f"connections did not coalesce: {sizes}"

    def test_error_status_on_the_wire(self):
        async def body():
            app, server = await _start_server()
            try:
                return await _roundtrip(
                    server.port,
                    _request_bytes(
                        "POST", "/v1/predict",
                        {**WORKSHEET, "alpha_write": 5.0},
                    ),
                )
            finally:
                await server.shutdown()

        [(status, _, raw)] = asyncio.run(body())
        assert status == 400
        assert json.loads(raw)["error"] == (
            "alpha_write must be in (0, 1], got 5.0"
        )


class TestFraming:
    def test_malformed_request_line_closes_connection(self):
        async def body():
            app, server = await _start_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"BOGUS\r\n\r\n")
                await writer.drain()
                response = await reader.read(4096)
                eof = await reader.read(1)
                writer.close()
                await writer.wait_closed()
                return response, eof
            finally:
                await server.shutdown()

        response, eof = asyncio.run(body())
        assert b"400 Bad Request" in response
        assert b"Connection: close" in response
        assert eof == b""  # server closed after the error

    def test_oversized_body_rejected_before_read(self):
        async def body():
            app, server = await _start_server(max_body_bytes=64)
            try:
                return await _roundtrip(
                    server.port,
                    _request_bytes("POST", "/v1/predict", WORKSHEET),
                )
            finally:
                await server.shutdown()

        [(status, _, raw)] = asyncio.run(body())
        assert status == 413
        assert b"exceeds" in raw

    def test_connection_close_honoured(self):
        async def body():
            app, server = await _start_server()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(_request_bytes(
                    "GET", "/healthz", extra_headers="Connection: close\r\n"
                ))
                await writer.drain()
                response = await reader.read(65536)
                eof = await reader.read(1)
                writer.close()
                await writer.wait_closed()
                return response, eof
            finally:
                await server.shutdown()

        response, eof = asyncio.run(body())
        assert b"200 OK" in response
        assert b"Connection: close" in response
        assert eof == b""


class TestDrain:
    def test_drain_serves_inflight_then_stops(self):
        async def body():
            app, server, release = await _start_server(held=True)
            inflight = asyncio.ensure_future(_roundtrip(
                server.port,
                _request_bytes("POST", "/v1/predict", WORKSHEET),
            ))
            await wait_for_depth(app.batcher, 1)  # queued, not yet served
            run_task = asyncio.ensure_future(server.run())
            server.drain()
            release()
            await asyncio.wait_for(run_task, timeout=10.0)
            [(status, _, raw)] = await inflight
            # After drain the listener is gone.
            try:
                await asyncio.open_connection("127.0.0.1", server.port)
                refused = False
            except OSError:
                refused = True
            return status, json.loads(raw), refused

        status, payload, refused = asyncio.run(body())
        assert status == 200
        assert payload["predictions"]["single"]["speedup"] > 0
        assert refused

    def test_healthz_reports_draining(self):
        async def body():
            app, server = await _start_server()
            app.draining = True
            try:
                [(status, _, raw)] = await _roundtrip(
                    server.port, _request_bytes("GET", "/healthz")
                )
                return status, json.loads(raw)
            finally:
                await server.shutdown()

        status, payload = asyncio.run(body())
        assert status == 200
        assert payload["status"] == "draining"
