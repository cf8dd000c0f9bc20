"""In-memory span tracer and the transparent wrappers the traced run uses.

A traced run times each layer from *outside* the program: it hands the
library delegating subclasses of the objects the library calls back into
(the protocol kernel, the stopping rule, the counter RNG streams and each
scheduled event) and wraps the benchmark's own calls into the public
functions (``run_experiment``, ``algebraic_connectivity``, ...). Nothing
inside ``src/`` is patched.

A span is ``(name, start, end, parent)``; spans stay in memory and are
written out when the run ends. A layer's self time is the summed
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from repro.core.protocols import SelfishUniformProtocol, SelfishWeightedProtocol
from repro.core.stopping import NashStop
from repro.scenarios.events import Event
from repro.scenarios.schedule import Schedule
from repro.utils.rng import CounterStreams


class Tracer:
    """Collects the spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = {}
        self.call_ms: dict[str, list[float]] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]!r} closed out of order")
        return end - span[1]

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (e.g. before the tracer existed)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def timed_call(self, name: str, ms: float) -> None:
        self.call_ms.setdefault(name, []).append(ms)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Summed self time per span name, over the spans from ``first`` on."""
        totals: dict[str, float] = {}
        spans = self.spans[first:]
        for name, start, end, _ in spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        for name, start, end, parent in spans:
            if parent >= 0:
                parent_name = self.spans[parent][0]
                totals[parent_name] -= end - start
        return totals

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span (JSON lines) after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"meta": meta}) + "\n")
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or a no-op context when untraced."""
    return nullcontext() if tracer is None else tracer.span(name)


# ----------------------------------------------------------------------
# Delegating wrappers handed to the library
# ----------------------------------------------------------------------
class _TracedKernel:
    """Mixin timing ``execute_round_batch`` and counting its work."""

    def __init__(self, tracer: Tracer, **kwargs):
        super().__init__(**kwargs)
        self.tracer = tracer

    def execute_round_batch(self, batch, graph, rngs, active=None, backend=None):
        tracer = self.tracer
        book = tracer.begin("trace.bookkeeping")
        rows = (
            np.arange(batch.num_replicas)
            if active is None
            else np.flatnonzero(active)
        )
        offered = int(batch.num_tasks[rows].sum())
        tracer.end(book)
        index = tracer.begin("core.protocols")
        summary = super().execute_round_batch(
            batch, graph, rngs, active, backend=backend
        )
        seconds = tracer.end(index)
        tracer.timed_call("core.protocols", seconds * 1e3)
        tracer.count("core.protocols.calls")
        tracer.count("core.protocols.active_rows", rows.size)
        tracer.count("core.protocols.tasks_offered", offered)
        tracer.count("core.protocols.tasks_moved", int(summary.tasks_moved.sum()))
        return summary


class TracedWeightedProtocol(_TracedKernel, SelfishWeightedProtocol):
    """``SelfishWeightedProtocol`` whose rounds are ``core.protocols`` spans."""


class TracedUniformProtocol(_TracedKernel, SelfishUniformProtocol):
    """``SelfishUniformProtocol`` whose rounds are ``core.protocols`` spans."""


class TracedNashStop(NashStop):
    """``NashStop`` whose batched check is a ``core.stopping`` span."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    def satisfied_batch(self, batch, graph, replicas):
        with self.tracer.span("core.stopping"):
            hit = super().satisfied_batch(batch, graph, replicas)
        self.tracer.count("core.stopping.calls")
        self.tracer.count("core.stopping.rows_checked", len(replicas))
        self.tracer.count("core.stopping.hits", int(np.count_nonzero(hit)))
        return hit


class _TracedGenerator:
    """Proxy of a counter site's generator: each draw is a ``utils.rng`` span."""

    def __init__(self, generator: np.random.Generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, attribute):
        method = getattr(self._generator, attribute)
        if not callable(method):
            return method
        tracer = self._tracer

        def traced(*args, **kwargs):
            with tracer.span("utils.rng"):
                out = method(*args, **kwargs)
            tracer.count("utils.rng.variates", int(np.size(out)))
            return out

        return traced


class TracedCounterStreams(CounterStreams):
    """``CounterStreams`` whose block fills are ``utils.rng`` spans."""

    def __init__(self, tracer: Tracer, seed: int, num_replicas: int):
        super().__init__(seed, num_replicas)
        self.tracer = tracer

    def site(self, label):
        with self.tracer.span("utils.rng"):
            generator = super().site(label)
        self.tracer.count("utils.rng.calls")
        return _TracedGenerator(generator, self.tracer)

    def site_uniforms(self, label, rows, width):
        with self.tracer.span("utils.rng"):
            block = super().site_uniforms(label, rows, width)
        self.tracer.count("utils.rng.calls")
        self.tracer.count("utils.rng.uniforms", block.size)
        return block


class TracedEvent(Event):
    """Delegating event: ``apply_batch`` is a ``scenarios.events.<name>``
    span."""

    def __init__(self, inner: Event, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name
        self.mutates_topology = inner.mutates_topology
        self.deterministic = inner.deterministic

    def apply(self, state, graph, rng):
        return self._inner.apply(state, graph, rng)

    def transform_graph(self, graph, base_graph, round_index):
        return self._inner.transform_graph(graph, base_graph, round_index)

    def apply_batch(self, batch, graph, rngs, replicas=None):
        tracer = self._tracer
        with tracer.span(f"scenarios.events.{self.name}"):
            outcome = self._inner.apply_batch(batch, graph, rngs, replicas)
        tracer.count("scenarios.events.calls")
        tracer.count(
            "scenarios.events.task_events",
            int(np.max(outcome.tasks_added) + np.max(outcome.tasks_removed)),
        )
        return outcome

    def describe(self):
        return self._inner.describe()


def traced_schedule(schedule: Schedule, tracer: Tracer) -> Schedule:
    """The same schedule with every event wrapped in :class:`TracedEvent`."""
    return Schedule(
        [
            dataclasses.replace(entry, event=TracedEvent(entry.event, tracer))
            for entry in schedule.entries
        ]
    )
