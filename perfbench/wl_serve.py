"""``predict_trickle`` and ``predict_flood``: ``POST /v1/predict`` traffic.

Both are open loops of seeded Poisson arrivals against the service in
its default configuration (``rat serve`` / ``RATApp()`` with no tuning
flags), and one operation is one request.

* trickle: 300 req/s over real sockets, from one asyncio client with two
  keep-alive connections, against a ``python -m repro serve --port 0``
  subprocess.  Nearly every request arrives alone, so per-request cost
  (socket, HTTP parse, JSON, staging, the coalescing wait, two kernel
  calls for ``mode=both``, encode) dominates and batching is bypassed.
* flood: 2000 req/s (about 40% of single-row capacity) into
  ``RATApp.handle`` on one asyncio loop in this process, requests parsed
  from wire bytes with ``parse_head``/``body_length`` and responses
  rendered with ``format_response``; no sockets.  Requests coalesce into
  batches, so per-batch validation, quarantine and the kernel run on the
  path.  The traced run also searches the fixed rate ladder for
  ``max_rps``.
"""

from __future__ import annotations

import asyncio
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from time import perf_counter, perf_counter_ns

import check
import common
import inputs
import loadgen
import tracing

TRICKLE_RPS = 300.0
TRICKLE_CONNECTIONS = 2
#: Serve latency is the lower quartile over 1 s windows of the window
#: medians, not their median: host stalls that hold the processes for
#: seconds at a time (the generator itself up to 34 ms late) would
#: otherwise set it.
WINDOW_QUANTILE = 25
#: 40% of single-row capacity: a 383 ms host stall seen at 3,000 req/s
#: overflowed the 1,024-request admission queue into 429s.
FLOOD_RPS = 2000.0
WARMUP_S = 0.1
TRICKLE_WARMUP = 20

#: Share of a traced run spent on the untraced and the traced pass; the
#: flood's traced run gives the rest to the rate ladder.
FLOOD_PASS_SHARE = 0.3


class Traffic:
    """The seeded requests of one run, their wire bytes and references."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pool = inputs.worksheet_pool(seed, inputs.base_worksheets())
        self.mix = inputs.request_mix(seed, 20 * inputs.POOL_SIZE)
        self.reference = check.PredictReference(self.pool)
        self._wire: dict[tuple[int, str], bytes] = {}
        self._pos = 0

    def next(self) -> tuple[int, str]:
        key = self.mix[self._pos % len(self.mix)]
        self._pos += 1
        return key

    def wire(self, key: tuple[int, str]) -> bytes:
        raw = self._wire.get(key)
        if raw is None:
            index, mode = key
            raw = self._wire[key] = inputs.wire_request(
                inputs.request_body(self.pool[index], mode)
            )
        return raw

    def verify(self, responses) -> tuple[int, int, dict[int, int]]:
        """(attempted, failed, status counts) over (key, status, body)."""
        failed = 0
        statuses: dict[int, int] = {}
        for (index, mode), status, body in responses:
            statuses[status] = statuses.get(status, 0) + 1
            problem = self.reference.check(index, mode, status, body)
            if problem:
                failed += 1
                if failed <= 5:
                    print(f"check: worksheet {index} mode {mode}: {problem}")
        return len(responses), failed, statuses


def _split_response(raw: bytes) -> tuple[int, bytes]:
    cut = raw.index(b"\r\n\r\n")
    return int(raw[9:12]), raw[cut + 4:]


def _latency_stats(timed_us, lags_s, speed=None) -> dict[str, float]:
    """Latency figures from (due s, latency µs) pairs and generator lags.

    p50/p90 are the WINDOW_QUANTILE-th percentile over 1 s windows of
    each window's percentile, normalised to reference speed when a speedometer
    ran, so a second in which the host stalled does not move them; p99 is
    taken over the whole pass.  Only p50 is gated (see README.md).
    """
    latencies = [latency for _, latency in timed_us]
    return {
        "p50_us": common.sliced_percentile(timed_us, 50, speed, WINDOW_QUANTILE),
        "loadgen.p90_us": common.sliced_percentile(timed_us, 90, speed, WINDOW_QUANTILE),
        "loadgen.p99_us": common.percentile(latencies, 99),
        "loadgen.samples": float(len(latencies)),
        "loadgen.lag_p99_us": common.percentile([lag * 1e6 for lag in lags_s], 99),
    }


def _raw_details(timed_us, lags_s, speed) -> dict:
    """Ungated latency figures, p50/p90 also before speed normalisation."""
    raw = _latency_stats(timed_us, lags_s)
    return {
        "raw_p50_us": (raw["p50_us"], "us"),
        "p90_us": (
            _latency_stats(timed_us, lags_s, speed)["loadgen.p90_us"], "us"
        ),
        "raw_p90_us": (raw["loadgen.p90_us"], "us"),
        "p99_us": (raw["loadgen.p99_us"], "us"),
        "lag_p99_us": (raw["loadgen.lag_p99_us"], "us"),
        "samples": (raw["loadgen.samples"], "count"),
    }


# ---- flood: in-process -----------------------------------------------------


class Pass:
    """What one open-loop pass produced."""

    def __init__(self) -> None:
        self.records: list[tuple] = []  # (key, due, done, response bytes)
        self.lags: list[float] = []
        self.backlog = 0
        self.aborted = False
        self.cpu_s = 0.0
        self.start_ns = self.stop_ns = 0

    @property
    def latencies_us(self) -> list[float]:
        return [(done - due) * 1e6 for _, due, done, _ in self.records]

    @property
    def timed_us(self) -> list[tuple[float, float]]:
        return [(due, (done - due) * 1e6) for _, due, done, _ in self.records]

    def responses(self):
        return [(key, *_split_response(raw)) for key, _, _, raw in self.records]


class InProcess:
    """Wire bytes -> ``parse_head`` -> ``RATApp.handle`` -> ``format_response``."""

    def __init__(self, traffic: Traffic) -> None:
        from repro.serve import protocol
        from repro.serve.app import RATApp

        self.traffic = traffic
        self.protocol = protocol  # attributes looked up per call: tracing patches them
        self.app = RATApp()
        self.ladder_responses: list = []

    async def _one(self, key, due, sink) -> None:
        protocol = self.protocol
        raw = self.traffic.wire(key)
        cut = raw.index(b"\r\n\r\n")
        method, path, version, headers, query = protocol.parse_head(raw[:cut])
        n = protocol.body_length(headers, self.app.max_body_bytes)
        request = protocol.Request(
            method=method, path=path, headers=headers,
            body=raw[cut + 4:cut + 4 + n], version=version, query=query,
        )
        response = await self.app.handle(request)
        out = protocol.format_response(response, keep_alive=request.keep_alive)
        sink.append((key, due, perf_counter(), out))

    async def run_pass(self, rate: float, duration: float, *, ladder=False,
                       speed=None) -> Pass:
        """One open-loop pass; ``ladder`` aborts a runaway backlog early.

        With a :class:`common.Speedometer` the pass's CPU time is
        normalised to reference speed.
        """
        result = Pass()
        loop = asyncio.get_running_loop()
        inflight: set[asyncio.Task] = set()

        def fire(i, due):
            task = loop.create_task(self._one(self.traffic.next(), due, result.records))
            inflight.add(task)
            task.add_done_callback(inflight.discard)

        limit = max(64, rate * 0.05)
        offsets = inputs.poisson_schedule(self.traffic.seed, rate, duration)
        cpu0, wall0 = time.process_time(), perf_counter()
        result.start_ns = perf_counter_ns()
        result.lags, result.aborted = await loadgen.open_loop(
            offsets, fire,
            abort_when=(lambda: len(inflight) > limit) if ladder else None,
        )
        result.backlog = len(inflight)
        while inflight:
            await asyncio.wait(set(inflight))
        result.stop_ns = perf_counter_ns()
        result.cpu_s = time.process_time() - cpu0
        if speed is not None:
            result.cpu_s = speed.normalise(
                wall0, perf_counter(), result.cpu_s, cpu=True
            )
        return result

    async def holds(self, rate: float, duration: float) -> bool:
        probe = await self.run_pass(rate, duration, ladder=True)
        self.ladder_responses.extend(probe.responses())
        return loadgen.sustained(probe.latencies_us, probe.backlog, probe.aborted, rate)


async def _flood_setup(seed: int) -> InProcess:
    flood = InProcess(Traffic(seed))
    await flood.app.startup()
    await flood.run_pass(FLOOD_RPS, WARMUP_S)
    first = Pass()
    await flood._one(flood.traffic.next(), perf_counter(), first.records)
    _, failed, _ = flood.traffic.verify(first.responses())
    if failed:
        common.fail("set-up request answered wrongly")
    return flood


class Flood:
    @staticmethod
    def setup_probe(seed: int, clock) -> float:
        async def main():
            flood = await _flood_setup(seed)
            elapsed = clock.stop()
            await flood.app.shutdown()
            return elapsed

        return asyncio.run(main())

    @staticmethod
    def run(args, clock) -> dict:
        return asyncio.run(_flood(args, clock))


async def _flood(args, clock) -> dict:
    flood = await _flood_setup(args.seed)
    setup = [clock.stop()]
    try:
        if not args.trace:
            setup += await asyncio.to_thread(
                common.setup_probes, args, common.SETUP_SAMPLES - 1
            )
            with common.Speedometer() as speed:
                main = await flood.run_pass(FLOOD_RPS, args.seconds, speed=speed)
            attempted, failed, _ = flood.traffic.verify(main.responses())
            stats = _latency_stats(main.timed_us, main.lags, speed)
            return common.result(attempted, failed, {
                "setup_s": statistics.median(setup),
                "p50_us": stats["p50_us"],
                "cpu_us_per_op": main.cpu_s * 1e6 / len(main.records),
                "peak_rss_mb": common.self_rss_mb(),
            }, _raw_details(main.timed_us, main.lags, speed))
        return await _flood_traced(args, flood)
    finally:
        await flood.app.shutdown()


async def _flood_traced(args, flood: InProcess) -> dict:
    span_s = args.seconds * FLOOD_PASS_SHARE
    tracer = tracing.Tracer()
    with common.Speedometer() as speed:
        plain = await flood.run_pass(FLOOD_RPS, span_s, speed=speed)
        tracing.install_serve(tracer, wire=True)
        try:
            traced = await flood.run_pass(FLOOD_RPS, span_s, speed=speed)
        finally:
            tracer.restore()
        probe_s = (
            args.seconds * (1 - 2 * FLOOD_PASS_SHARE)
            / loadgen.probes_needed(loadgen.LADDER)
        )
        max_rps = await loadgen.max_rps(
            loadgen.LADDER, lambda rate: flood.holds(rate, probe_s)
        )
    tracer.dump(common.out_path(args, "spans.json"))
    attempted, failed, _ = flood.traffic.verify(
        plain.responses() + flood.ladder_responses
    )
    t_attempted, t_failed, statuses = flood.traffic.verify(traced.responses())
    attempted += t_attempted
    failed += t_failed
    n = len(traced.records)
    s = tracer.summary(traced.start_ns, traced.stop_ns, clock=speed.reference)
    layers = common.zero_layers()
    layers.update(_serve_layers(tracer, traced.start_ns, traced.stop_ns, n, statuses, speed))
    layers.update({
        key: value
        for key, value in _latency_stats(plain.timed_us, plain.lags, speed).items()
        if key.startswith("loadgen.")
    })
    layers["loadgen.max_rps"] = max_rps
    # CPU per request: every traced layer's CPU self time; the submit
    # span's own time is waiting on the batch, not CPU, and is left out.
    accounted = sum(
        s.get(name, common.EMPTY)[key]
        for name, key in (
            ("serve.protocol.parse", "total_us"),
            ("serve.protocol.format", "total_us"),
            ("serve.app.handle", "self_us"),
            ("serve.app.json_decode", "total_us"),
            ("serve.batcher.stage", "total_us"),
            ("serve.batcher.execute", "total_us"),
        )
    ) / n
    layers.update(common.accounting(
        plain.cpu_s * 1e6 / len(plain.records), traced.cpu_s * 1e6 / n, accounted,
    ))
    layers["error_rate"] = failed / attempted
    return common.result(attempted, failed, layers)


def _in_window(tracer, key: str, start_ns: int, stop_ns: int) -> list[float]:
    """Timestamped samples of ``key`` taken inside ``[start_ns, stop_ns)``."""
    return [
        value for at, value in tracer.samples.get(key, [])
        if start_ns <= at < stop_ns
    ]


def _serve_layers(tracer, start_ns: int, stop_ns: int, n: int,
                  statuses: dict[int, int], speed) -> dict:
    """Per-request serve layer figures from one traced window, at the
    reference speed ``speed`` (the serving process's speedometer) gives."""
    s = tracer.summary(start_ns, stop_ns, clock=speed.reference)
    get = lambda name: s.get(name, common.EMPTY)  # noqa: E731
    factor = speed.speed_factor(start_ns / 1e9, stop_ns / 1e9)
    waits = [
        wait * factor
        for wait in _in_window(tracer, "serve.batcher.queue_wait_us", start_ns, stop_ns)
    ]
    sizes = _in_window(tracer, "serve.batcher.batch_size", start_ns, stop_ns)
    out = {
        "serve.protocol.parse_us": get("serve.protocol.parse")["total_us"] / n,
        "serve.protocol.format_us": get("serve.protocol.format")["total_us"] / n,
        "serve.app.self_us": get("serve.app.handle")["self_us"] / n,
        "serve.app.json_decode_us": get("serve.app.json_decode")["total_us"] / n,
        "serve.batcher.stage_us": get("serve.batcher.stage")["total_us"] / n,
        "serve.batcher.queue_wait_p50_us": common.percentile(waits, 50),
        "serve.batcher.queue_wait_p90_us": common.percentile(waits, 90),
        "serve.batcher.batch_size_mean": statistics.fmean(sizes) if sizes else 0.0,
        "serve.batcher.batch_size_p50": common.percentile(sizes, 50),
        "serve.batcher.batches": float(get("serve.batcher.execute")["calls"]),
        "serve.batcher.validate_us": get("serve.batcher.validate")["total_us"] / n,
        "serve.batcher.diagnose_us": get("serve.batcher.diagnose")["total_us"] / n,
        "serve.batcher.self_us": get("serve.batcher.execute")["self_us"] / n,
        "serve.batcher.quarantined": float(statuses.get(400, 0)),
        "serve.batcher.rejected": float(statuses.get(429, 0)),
        "serve.batcher.expired": float(statuses.get(504, 0)),
    }
    out.update(common.kernel_layers(s))
    return out


# ---- trickle: real sockets -------------------------------------------------


class Server:
    """A ``rat serve --port 0`` subprocess.

    ``instruments`` maps ``serve_launcher.py`` options (``--spans``,
    ``--speed``) to the files they write when the server exits; with any,
    the server is started through that launcher.
    """

    def __init__(self, instruments: dict[str, str] | None = None) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if instruments:
            options = [part for item in instruments.items() for part in item]
            cmd[1:3] = [os.path.join(common.HERE, "serve_launcher.py"), *options]
        self._stderr = open(os.path.join(common.OUT_DIR, "server.stderr"), "ab")
        self.proc = subprocess.Popen(
            cmd, env=common.program_env(), stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        banner = self.proc.stdout.readline() if ready else ""
        if "listening on http://" not in banner:
            self.stop()
            common.fail(f"server did not start: {banner!r}")
        self.port = int(banner.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


class Client:
    """Keep-alive HTTP connections to one server."""

    def __init__(self, traffic: Traffic, port: int) -> None:
        self.traffic = traffic
        self.port = port

    async def _exchange(self, reader, writer, key):
        writer.write(self.traffic.wire(key))
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        body = await reader.readexactly(length)
        return int(head[9:12]), body

    async def sequential(self, count: int) -> list:
        """``count`` requests one after another on one connection."""
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            out = []
            for _ in range(count):
                key = self.traffic.next()
                out.append((key, *await self._exchange(reader, writer, key)))
            return out
        finally:
            writer.close()
            await writer.wait_closed()

    async def open_loop(self, rate: float, duration: float) -> list:
        """Poisson arrivals over TRICKLE_CONNECTIONS connections.

        Records (key, due, sent, received, status, body) per request.
        """
        queue: asyncio.Queue = asyncio.Queue()
        records: list = []
        conns = [
            await asyncio.open_connection("127.0.0.1", self.port)
            for _ in range(TRICKLE_CONNECTIONS)
        ]

        async def worker(reader, writer):
            while (item := await queue.get()) is not None:
                key, due = item
                sent = perf_counter()
                status, body = await self._exchange(reader, writer, key)
                records.append((key, due, sent, perf_counter(), status, body))

        workers = [asyncio.create_task(worker(r, w)) for r, w in conns]
        offsets = inputs.poisson_schedule(self.traffic.seed, rate, duration)
        lags, _ = await loadgen.open_loop(
            offsets, lambda i, due: queue.put_nowait((self.traffic.next(), due))
        )
        for _ in workers:
            queue.put_nowait(None)
        try:
            await asyncio.gather(*workers)
        finally:
            for _, writer in conns:
                writer.close()
                await writer.wait_closed()
        return records, lags


def _launch(traffic: Traffic, instruments=None) -> tuple[Server, tuple[float, float]]:
    """Start a server, warm it up, check one request.

    Returns the server and the (start, end) ``perf_counter()`` times of
    its set-up.
    """
    started = perf_counter()
    server = Server(instruments)
    try:
        client = Client(traffic, server.port)
        asyncio.run(client.sequential(TRICKLE_WARMUP))
        first = asyncio.run(client.sequential(1))
        _, failed, _ = traffic.verify(first)
    except BaseException:
        server.stop()
        raise
    if failed:
        server.stop()
        common.fail("set-up request answered wrongly")
    return server, (started, perf_counter())


def _trickle_pass(traffic: Traffic, server: Server, seconds: float):
    client = Client(traffic, server.port)
    cpu0 = server.cpu_s()
    start_ns = perf_counter_ns()
    records, lags = asyncio.run(client.open_loop(TRICKLE_RPS, seconds))
    stop_ns = perf_counter_ns()
    cpu = server.cpu_s() - cpu0
    return records, lags, cpu, start_ns, stop_ns


class Trickle:
    """Set-up is measured in-run: three server launches, each normalised
    by the speedometer of the server it started."""

    @staticmethod
    def run(args, clock) -> dict:
        clock.stop()  # the bench process's own start is not trickle's set-up
        traffic = Traffic(args.seed)
        if args.trace:
            return _trickle_traced(args, traffic)
        # The server measures its own speed: its CPU and the latency it
        # serves are normalised by it (see README.md).
        setup = []
        for i in range(common.SETUP_SAMPLES - 1):
            speed_path = common.out_path(args, f"setup{i}-speed.json")
            server, (started, ended) = _launch(traffic, {"--speed": speed_path})
            server.stop()
            setup.append(common.Speedometer.load(speed_path).normalise(
                started, ended, ended - started
            ))
        speed_path = common.out_path(args, "speed.json")
        server, (started, ended) = _launch(traffic, {"--speed": speed_path})
        try:
            records, lags, cpu, start_ns, stop_ns = _trickle_pass(
                traffic, server, args.seconds
            )
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        speed = common.Speedometer.load(speed_path)
        setup.append(speed.normalise(started, ended, ended - started))
        cpu = speed.normalise(start_ns / 1e9, stop_ns / 1e9, cpu, cpu=True)
        attempted, failed, _ = traffic.verify([(k, st, b) for k, _, _, _, st, b in records])
        timed = [(due, (done - due) * 1e6) for _, due, _, done, _, _ in records]
        stats = _latency_stats(timed, lags, speed)
        return common.result(attempted, failed, {
            "setup_s": statistics.median(setup),
            "p50_us": stats["p50_us"],
            "cpu_us_per_op": cpu * 1e6 / len(records),
            "peak_rss_mb": rss,
        }, _raw_details(timed, lags, speed))


def _trickle_traced(args, traffic: Traffic) -> dict:
    plain_speed_path = common.out_path(args, "plain-speed.json")
    server, _ = _launch(traffic, {"--speed": plain_speed_path})
    try:
        plain, plain_lags, _, a_ns, b_ns = _trickle_pass(traffic, server, args.seconds / 2)
    finally:
        server.stop()
    spans_path = common.out_path(args, "spans.json")
    speed_path = common.out_path(args, "speed.json")
    server, _ = _launch(traffic, {"--spans": spans_path, "--speed": speed_path})
    try:
        traced, _, _, start_ns, stop_ns = _trickle_pass(traffic, server, args.seconds / 2)
    finally:
        server.stop()
    tracer = tracing.load(spans_path)
    plain_speed = common.Speedometer.load(plain_speed_path)
    speed = common.Speedometer.load(speed_path)
    attempted, failed, _ = traffic.verify([(k, st, b) for k, _, _, _, st, b in plain])
    t_attempted, t_failed, statuses = traffic.verify(
        [(k, st, b) for k, _, _, _, st, b in traced]
    )
    attempted += t_attempted
    failed += t_failed
    n = len(traced)
    factor = speed.speed_factor(start_ns / 1e9, stop_ns / 1e9)
    s = tracer.summary(start_ns, stop_ns, clock=speed.reference)
    layers = common.zero_layers()
    layers.update(_serve_layers(tracer, start_ns, stop_ns, n, statuses, speed))
    plain_timed = [(due, (done - due) * 1e6) for _, due, _, done, _, _ in plain]
    layers.update({
        key: value
        for key, value in _latency_stats(plain_timed, plain_lags, plain_speed).items()
        if key.startswith("loadgen.")
    })
    server_us = sum(
        s.get(name, common.EMPTY)["total_us"]
        for name in ("serve.app.handle", "serve.protocol.parse", "serve.protocol.format")
    ) / n
    mean_us = lambda pairs: statistics.fmean((b - a) * 1e6 for a, b in pairs)  # noqa: E731
    wire_us = mean_us((sent, done) for _, _, sent, done, _, _ in traced) * factor
    layers["serve.socket_us"] = wire_us - server_us
    # Mean latency from the due time, layer by layer: load generator and
    # client queue, socket, protocol, app, staging, queue wait and the
    # request's batch; what is left (waking the request after its batch)
    # is the residual.
    execute = _in_window(tracer, "serve.batcher.execute_us", start_ns, stop_ns)
    waits = _in_window(tracer, "serve.batcher.queue_wait_us", start_ns, stop_ns)
    accounted = (
        mean_us((due, sent) for _, due, sent, _, _, _ in traced) * factor
        + layers["serve.socket_us"]
        + server_us
        - s.get("serve.batcher.submit", common.EMPTY)["self_us"] / n
        + (statistics.fmean(waits) + statistics.fmean(execute)) * factor
    )
    traced_mean = mean_us((due, done) for _, due, _, done, _, _ in traced) * factor
    plain_mean = mean_us((due, done) for _, due, _, done, _, _ in plain) * (
        plain_speed.speed_factor(a_ns / 1e9, b_ns / 1e9)
    )
    layers.update(common.accounting(plain_mean, traced_mean, accounted))
    layers["error_rate"] = failed / attempted
    return common.result(attempted, failed, layers)


TRICKLE = Trickle()
FLOOD = Flood()
