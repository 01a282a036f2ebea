"""In-memory span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files only: around the calls
it makes into each layer, by wrapping public methods for the duration of
the traced run, and through the engine's public ``telemetry=`` hook (a
:class:`~repro.telemetry.Telemetry` whose profiler records spans here).
Each span keeps its name, start, end and parent; nothing is written until
:meth:`Tracer.write` runs at the end of the benchmark.

A layer's self time is the time its spans cover minus the time their
child spans cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from repro.telemetry import PhaseProfiler, Telemetry

#: Span-name prefix -> repo module the span's time belongs to.
LAYER_OF_PREFIX = {
    "graphs.": "repro.graphs",
    "core.": "repro.core",
    "round.": "repro.sim",
    "sim.": "repro.sim",
    "commcplx.": "repro.commcplx",
    "window.": "repro.asynchrony",
    "experiments.": "repro.experiments",
    "net.": "repro.net",
}


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_OF_PREFIX.items():
        if name.startswith(prefix):
            return layer
    return "other"


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: spans are a shared no-op, wrapping is never asked."""

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack
        self._index = len(tracer.spans)
        tracer.spans.append(
            [self._name, perf_counter(), 0.0, stack[-1] if stack else -1]
        )
        stack.append(self._index)
        return self

    def __exit__(self, *exc):
        tracer = self._tracer
        tracer.spans[self._index][2] = perf_counter()
        tracer._stack.pop()
        return False


class Tracer:
    """Spans ``[name, start, end, parent_index]`` plus named counters."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    # -- wrapping public callables ----------------------------------------

    def wrap(self, owner, attr: str, span: str | None = None,
             count: str | None = None, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper until :meth:`unwrap`.

        ``span`` times every call as a span of that name; ``count`` only
        bumps a counter (for methods called millions of times, where a
        span per call would cost more than the call); ``after(result)``
        sees each return value.
        """
        original = getattr(owner, attr)
        tracer = self

        if span is not None:
            def wrapper(*args, **kwargs):
                with tracer.span(span):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
        else:
            counts = self.counts
            counts.setdefault(count, 0)

            def wrapper(*args, **kwargs):
                counts[count] += 1
                return original(*args, **kwargs)

        had_own = isinstance(owner, type) or attr in vars(owner)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, had_own))

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def wrapped(self):
        """Undo every :meth:`wrap` made inside the block on exit."""
        try:
            yield self
        finally:
            self.unwrap()

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict:
        """``{name: {"calls", "seconds", "self_seconds"}}`` over all spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            cell = out.setdefault(
                name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
            )
            cell["calls"] += 1
            cell["seconds"] += end - start
            cell["self_seconds"] += end - start - child_time[index]
        return dict(sorted(out.items()))

    def layer_self_seconds(self) -> dict:
        """Self time summed per repo module (see :data:`LAYER_OF_PREFIX`)."""
        layers: dict[str, float] = {}
        for name, cell in self.summary().items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + cell["self_seconds"]
        return dict(sorted(layers.items()))

    def write(self, path: Path, header: dict) -> None:
        """Write the spans once: a header line, then one line per span
        ``[index, parent, name, start, end]`` with times relative to the
        first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                **header,
                "counts": self.counts,
                "summary": self.summary(),
                "layer_self_seconds": self.layer_self_seconds(),
            }, sort_keys=True) + "\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps(
                    [index, parent, name, round(start - origin, 9),
                     round(end - origin, 9)]
                ) + "\n")


class _TracerProfiler(PhaseProfiler):
    """A phase profiler whose spans land in a :class:`Tracer`."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def span(self, name: str) -> _Span:
        return self._tracer.span(name)


class SpanTelemetry(Telemetry):
    """The engine's public telemetry bundle, recording into a tracer."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.profiler = _TracerProfiler(tracer)
