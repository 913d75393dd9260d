"""Out-of-program tracing: spans recorded around calls into each layer.

The program under test carries no benchmark spans.  A traced run wraps
the public functions of each ``repro`` layer from here, records one span
per call (name, start, end, parent, request id, value) in memory, and
writes them when the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

_CURRENT = contextvars.ContextVar("perfbench_span", default=-1)
_REQUEST = contextvars.ContextVar("perfbench_request", default=-1)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index, request id, value]
        self.spans: list[list | None] = []
        #: Free-form samples keyed by name (queue waits, chunk times...).
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []
        self._next_request = 0

    # ---- recording ---------------------------------------------------------

    def wrap(self, fn, name, value=None, pre=None, request=False):
        """A wrapper recording one span per call of ``fn``.

        ``name`` is a string or ``f(args) -> str``; ``value(args, result,
        state)`` attaches a number (rows, events) where ``state`` is what
        ``pre(args)`` returned before the call.  ``request=True`` starts
        a new request id for the call's subtree.
        """
        spans = self.spans

        def begin(args):
            idx = len(spans)
            spans.append(None)
            parent = _CURRENT.get()
            rid_token = None
            if request:
                rid_token = _REQUEST.set(self._next_request)
                self._next_request += 1
            return idx, parent, _CURRENT.set(idx), rid_token, (
                pre(args) if pre else None
            )

        def end(args, begun, start, result):
            idx, parent, token, rid_token, state = begun
            stop = perf_counter_ns()
            rid = _REQUEST.get()
            _CURRENT.reset(token)
            if rid_token is not None:
                _REQUEST.reset(rid_token)
            label = name(args) if callable(name) else name
            extra = value(args, result, state) if value else 0
            spans[idx] = [label, start, stop, parent, rid, extra]

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                begun = begin(args)
                start = perf_counter_ns()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end(args, begun, start, result)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            begun = begin(args)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end(args, begun, start, result)

        return wrapper

    def patch(self, owner, attr, wrapper_factory) -> bool:
        """Replace ``owner.attr`` by ``wrapper_factory(original)``.

        A module-level function is also replaced in every loaded
        ``repro`` module that imported it by name.  Returns False (and
        patches nothing) when the attribute does not exist, so a later
        refactor that drops a function leaves the run working.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return False
        wrapped = wrapper_factory(original)
        targets = [owner]
        if inspect.ismodule(owner):
            targets += [
                module
                for mod_name, module in list(sys.modules.items())
                if mod_name.startswith("repro") and module is not owner
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapped)
        return True

    def span(self, owner, attr, name, **kw) -> bool:
        """Patch ``owner.attr`` with a plain recording wrapper."""
        return self.patch(owner, attr, lambda fn: self.wrap(fn, name, **kw))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # ---- analysis ----------------------------------------------------------

    def finished(self, since_ns: int = 0, until_ns: int | None = None):
        """Completed spans starting inside ``[since_ns, until_ns)``."""
        return [
            (i, s) for i, s in enumerate(self.spans)
            if s is not None and s[1] >= since_ns
            and (until_ns is None or s[1] < until_ns)
        ]

    def summary(self, since_ns: int = 0, until_ns: int | None = None,
                clock=None) -> dict:
        """Per span name: calls, total/self µs and the summed value.

        ``clock`` maps ``perf_counter()`` seconds to another time base
        (a :meth:`common.Speedometer.reference` clock); durations are
        then measured on it.
        """
        chosen = self.finished(since_ns, until_ns)
        if clock is not None:
            chosen = [
                (i, [s[0], clock(s[1] / 1e9) * 1e9, clock(s[2] / 1e9) * 1e9, *s[3:]])
                for i, s in chosen
            ]
        child_ns: dict[int, float] = defaultdict(float)
        for _, s in chosen:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_us": 0.0, "self_us": 0.0, "value": 0.0}
        )
        for i, s in chosen:
            row = out[s[0]]
            row["calls"] += 1
            row["total_us"] += (s[2] - s[1]) / 1e3
            row["self_us"] += (s[2] - s[1] - child_ns.get(i, 0)) / 1e3
            row["value"] += s[5]
        return out

    def dump(self, path: str) -> None:
        """Write every span and sample as one JSON document."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent",
                               "request", "value"],
                    "spans": [s for s in self.spans if s is not None],
                    "samples": self.samples,
                },
                handle,
            )


def load(path: str) -> Tracer:
    """Rebuild a :class:`Tracer`'s data from :meth:`Tracer.dump` output."""
    with open(path) as handle:
        data = json.load(handle)
    tracer = Tracer()
    tracer.spans = data["spans"]
    tracer.samples.update(data["samples"])
    return tracer


# ---- layer installers ------------------------------------------------------


def _rows(args, result, state):
    return len(args[1]) if len(args) > 1 else 0


def _rows0(args, result, state):
    return len(args[0]) if args else 0


def install_kernel(tracer: Tracer) -> None:
    """core.plan / core.batch: both kernel entry points as ``core.kernel``."""
    from repro.core import batch, plan

    tracer.span(plan.PredictionPlan, "evaluate", "core.kernel", value=_rows)
    tracer.span(batch, "batch_predict", "core.kernel", value=_rows0)


def install_serve(tracer: Tracer, *, wire: bool) -> None:
    """serve.app / serve.batcher (+ serve.protocol when ``wire``)."""
    import repro.serve.server  # noqa: F401 - load importers of protocol
    from repro.serve import app, batcher, protocol

    install_kernel(tracer)
    tracer.span(app.RATApp, "handle", "serve.app.handle", request=True)
    tracer.span(protocol.Request, "json", "serve.app.json_decode")
    tracer.span(batcher.MicroBatcher, "submit", "serve.batcher.submit")
    tracer.span(batcher, "worksheet_row", "serve.batcher.stage")
    tracer.span(batcher, "row_violations", "serve.batcher.validate")
    tracer.span(batcher, "scalar_diagnostic", "serve.batcher.diagnose")

    def execute_factory(fn):
        recorded = tracer.wrap(
            fn, "serve.batcher.execute", value=lambda a, r, s: len(a[1])
        )
        samples = tracer.samples

        @functools.wraps(fn)
        def execute(self, batch):
            at = perf_counter_ns()
            for pending in batch:
                samples["serve.batcher.queue_wait_us"].append(
                    (at, (at / 1e9 - pending.enqueued) * 1e6)
                )
            samples["serve.batcher.batch_size"].append((at, len(batch)))
            try:
                return recorded(self, batch)
            finally:
                took = (perf_counter_ns() - at) / 1e3
                samples["serve.batcher.execute_us"].extend(
                    [(at, took)] * len(batch)
                )

        return execute

    tracer.patch(batcher.MicroBatcher, "_execute", execute_factory)
    if wire:
        tracer.span(protocol, "parse_head", "serve.protocol.parse")
        tracer.span(protocol, "format_response", "serve.protocol.format")


def install_explore(tracer: Tracer) -> None:
    """explore.space / runtime / checkpoint / executor + the kernel."""
    from repro.explore import checkpoint, executor, space

    install_kernel(tracer)
    tracer.span(executor, "explore", "explore.run")
    tracer.span(space.DesignSpace, "to_batch", "explore.space.materialize",
                value=lambda a, r, s: len(r) if r is not None else 0)
    tracer.span(executor, "quarantine_rows", "explore.runtime.quarantine",
                value=lambda a, r, s: len(r[1]) if r is not None else 0)
    tracer.span(checkpoint.ChunkJournal, "append", "explore.checkpoint.write")

    def chunk_factory(fn):
        @functools.wraps(fn)
        def emit(index, size, elapsed, *, synthetic):
            tracer.samples["explore.chunk_elapsed_s"].append(
                (perf_counter_ns(), elapsed)
            )
            return fn(index, size, elapsed, synthetic=synthetic)

        return emit

    tracer.patch(executor, "_emit_chunk_observability", chunk_factory)


def install_reproduce(tracer: Tracer) -> None:
    """analysis.experiments, hwsim.engine/system, core.throughput."""
    from repro.analysis import experiments
    from repro.core import throughput
    from repro.hwsim import engine, system

    install_kernel(tracer)
    tracer.span(
        experiments.Experiment, "run",
        lambda args: f"analysis.experiments.{args[0].experiment_id}",
    )
    tracer.span(
        engine.EventQueue, "run", "hwsim.engine.run",
        pre=lambda args: args[0].fired,
        value=lambda args, result, before: args[0].fired - before,
    )
    tracer.span(system.RCSystemSim, "run", "hwsim.system.run")
    tracer.span(throughput, "predict", "core.throughput.predict")
