"""Benchmark-side spans and the backend proxy that times the runtime layer.

Everything here measures the program from outside: a :class:`Tracer`
span goes around a public call, and :class:`TimingBackend` wraps a real
:class:`repro.runtime.Backend` so the engine's own calls into the
session (open, stages, state access, close) each become a span.  Spans
live in memory; :meth:`Tracer.write` exports them once the traced pass
is over.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import monotonic_ns
from typing import Any, Dict, Iterator, List, NamedTuple, Optional

import numpy as np

from repro.obs import TraceRecorder, write_chrome_trace
from repro.runtime import Backend
from repro.runtime.base import BackendSession


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    t0_ns: int
    t1_ns: int

    @property
    def seconds(self) -> float:
        return (self.t1_ns - self.t0_ns) * 1e-9


class _OpenSpan:
    __slots__ = ("counts", "span")

    def __init__(self, counts: Dict[str, Any]):
        self.counts = counts
        self.span: Optional[Span] = None


class Tracer:
    """In-memory span store for one traced run.

    Spans nest by call order (the innermost open span is the parent).
    They are mirrored into a :class:`repro.obs.TraceRecorder` — the same
    recorder the program's own ``wire.*`` spans land in when it is
    handed to the engine — so one Chrome trace-event file holds both.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.rec = TraceRecorder(label=run_id)
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **counts: Any) -> Iterator["_OpenSpan"]:
        """Time a block.

        The yielded handle takes counts known only afterwards
        (``handle.counts["edges"] = m``) and, once the block has exited,
        holds the closed :class:`Span` as ``handle.span``.
        """
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(sid, parent, name, 0, 0))  # placeholder keeps ids in call order
        self._open.append(sid)
        handle = _OpenSpan(counts)
        t0 = monotonic_ns()
        try:
            yield handle
        finally:
            t1 = monotonic_ns()
            self._open.pop()
            handle.span = self.spans[sid] = Span(sid, parent, name, t0, t1)
            self.rec.add(
                name, t0, t1, cat="ledger",
                args={"id": sid, "parent": parent, "run": self.run_id, **handle.counts},
            )

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_seconds(self, span: Span) -> float:
        """Span duration minus the part its child spans cover."""
        return span.seconds - sum(c.seconds for c in self.children(span))

    def write(self, path: str) -> str:
        return write_chrome_trace(self.rec, path)


class _TimingSession(BackendSession):
    """Forwards every engine-facing call to the real session inside a span."""

    def __init__(self, inner: BackendSession, tracer: Tracer, stats: "RuntimeStats"):
        self._inner = inner
        self._tracer = tracer
        self._stats = stats
        self.backend_name = inner.backend_name

    # The engine reads `recorder` directly; spans belong to the real session.
    @property
    def recorder(self):
        return self._inner.recorder

    def attach_recorder(self, recorder) -> None:
        self._inner.attach_recorder(recorder)

    def compute_stage(self, superstep: int = 0):
        with self._tracer.span("runtime.compute_stage", superstep=superstep) as timed:
            result = self._inner.compute_stage(superstep)
        self._stats.stage(timed.span.seconds, [result.walls])
        return result

    def exchange_stage(self, superstep: int = 0):
        with self._tracer.span("runtime.exchange_stage", superstep=superstep) as timed:
            result = self._inner.exchange_stage(superstep)
        # Two pull phases with a barrier between them.
        self._stats.stage(timed.span.seconds, [result.up_walls, result.down_walls])
        return result

    def any_active(self) -> bool:
        with self._tracer.span("runtime.state", op="any_active"):
            return self._inner.any_active()

    def pull_state(self):
        with self._tracer.span("runtime.state", op="pull_state"):
            return self._inner.pull_state()

    def push_state(self, arrays) -> None:
        with self._tracer.span("runtime.state", op="push_state"):
            self._inner.push_state(arrays)

    def close(self) -> None:
        with self._tracer.span("runtime.close"):
            self._inner.close()


class RuntimeStats:
    """What the proxy learns from the stage results, beside its spans."""

    def __init__(self, workers_overlap: bool) -> None:
        self._workers_overlap = workers_overlap
        self.dispatch_s = 0.0
        #: per-worker kernel seconds summed over every stage.
        self.busy: Optional[np.ndarray] = None

    def stage(self, wall: float, phases: List[np.ndarray]) -> None:
        """``phases``: per-worker kernel walls of each barrier-separated phase."""
        for walls in phases:
            # What the stage had to wait for: its slowest worker when they
            # run side by side, all of them when they take turns.
            wall -= float(walls.max() if self._workers_overlap else walls.sum())
            self.busy = walls.copy() if self.busy is None else self.busy + walls
        # The rest the coordinator added: command round-trips and barriers.
        self.dispatch_s += wall


class TimingBackend(Backend):
    """A :class:`Backend` that delegates to ``inner`` and times each call."""

    def __init__(self, inner: Backend, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer
        self.stats = RuntimeStats(workers_overlap=inner.name != "serial")

    def session(self, dgraph, program) -> BackendSession:
        with self.tracer.span("runtime.session_open", workers=dgraph.num_workers):
            inner = self.inner.session(dgraph, program)
        return _TimingSession(inner, self.tracer, self.stats)
