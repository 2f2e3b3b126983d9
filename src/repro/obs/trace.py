"""Span recording: monotonic-clock intervals labeled worker/superstep/stage.

Two implementations of one tiny protocol:

:class:`TraceRecorder`
    The real thing — an append-only list of :class:`Span` records plus
    a :class:`~repro.obs.metrics.MetricsRegistry`.  Span timestamps are
    raw :func:`time.monotonic_ns` values; exporters subtract the
    recorder's ``origin_ns`` so traces start at t=0.

:data:`NULL_RECORDER`
    The always-off singleton (``enabled`` is ``False``).  Every method
    is a constant no-op and :meth:`~_NullRecorder.span` returns one
    shared context manager, so holding it costs a trace-disabled run
    nothing per superstep.  Hot paths guard span construction with
    ``if recorder.enabled:`` and call kwargs-free no-op methods
    otherwise — zero per-superstep allocations on the disabled path.

The recorder is deliberately not thread-safe for concurrent ``add``
calls: every producer in this codebase records from the coordinator
thread (worker timestamps travel back through the existing stage
barriers — see :mod:`repro.runtime.base`), which also keeps span order
deterministic for a given execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .metrics import MetricsRegistry, _NullMetricsRegistry

__all__ = ["Span", "TraceRecorder", "NULL_RECORDER"]


@dataclass(frozen=True)
class Span:
    """One closed interval on the trace timeline.

    ``worker`` is ``None`` for coordinator-side spans (the engine loop,
    pipeline stages, checkpoint writes); exporters map workers to one
    ``tid`` each and the coordinator to ``tid`` 0.  ``t0_ns``/``t1_ns``
    are raw ``time.monotonic_ns`` readings.
    """

    name: str
    cat: str
    t0_ns: int
    t1_ns: int
    worker: Optional[int] = None
    superstep: Optional[int] = None
    args: Optional[Dict[str, Any]] = None

    @property
    def duration_seconds(self) -> float:
        return (self.t1_ns - self.t0_ns) * 1e-9


class _SpanContext:
    """Context manager that records one span on exit (re-entrant safe)."""

    __slots__ = ("_recorder", "_name", "_cat", "_worker", "_superstep", "_args", "_t0")

    def __init__(self, recorder, name, cat, worker, superstep, args):
        self._recorder = recorder
        self._name = name
        self._cat = cat
        self._worker = worker
        self._superstep = superstep
        self._args = args
        self._t0 = 0

    def __enter__(self) -> "_SpanContext":
        self._t0 = time.monotonic_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self._recorder.add(
            self._name,
            self._t0,
            time.monotonic_ns(),
            worker=self._worker,
            superstep=self._superstep,
            cat=self._cat,
            args=self._args,
        )


@dataclass
class TraceRecorder:
    """Collects spans and metrics for one traced execution."""

    label: str = "run"
    enabled: bool = field(default=True, init=False)

    def __post_init__(self) -> None:
        self.metrics = MetricsRegistry()
        #: the timeline origin every exported timestamp is relative to.
        self.origin_ns = time.monotonic_ns()
        # One wall-clock stamp for the trace *header* so a human can
        # tell when the trace was taken.  Recorded metadata only, never
        # an input to any result — see the audited exemption in
        # repro.lint.rules.determinism.
        self.wall_time = time.time()
        # Raw tuples in Span field order; materialized lazily by
        # spans().  Appending a tuple is ~2x cheaper than constructing
        # a frozen dataclass, and add() sits inside every traced
        # superstep — this is most of the tracing-enabled overhead on
        # sub-10ms runs (CI's trace-smoke overhead gate, <= +5%).
        self._spans: List[tuple] = []

    # ------------------------------------------------------------------

    def add(
        self,
        name: str,
        t0_ns: int,
        t1_ns: int,
        worker: Optional[int] = None,
        superstep: Optional[int] = None,
        cat: str = "stage",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one closed span from raw ``monotonic_ns`` readings."""
        self._spans.append(
            (name, cat, int(t0_ns), int(t1_ns), worker, superstep, args)
        )

    def span(
        self,
        name: str,
        worker: Optional[int] = None,
        superstep: Optional[int] = None,
        cat: str = "stage",
        args: Optional[Dict[str, Any]] = None,
    ) -> _SpanContext:
        """``with recorder.span("pipeline.partition"): ...``"""
        return _SpanContext(self, name, cat, worker, superstep, args)

    # ------------------------------------------------------------------

    def spans(self) -> Tuple[Span, ...]:
        return tuple(Span(*raw) for raw in self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans())

    def num_workers(self) -> int:
        """1 + the highest worker id seen (0 when only coordinator spans)."""
        workers = [raw[4] for raw in self._spans if raw[4] is not None]
        return max(workers) + 1 if workers else 0


class _NullSpanContext:
    """The shared no-op context manager the null recorder hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class _NullRecorder:
    """Tracing disabled: every operation is a constant no-op.

    A single module-level instance (:data:`NULL_RECORDER`) serves every
    untraced execution; nothing is ever stored, and ``span`` returns
    the one shared context manager instead of constructing anything.
    """

    __slots__ = ()

    enabled = False
    metrics = _NullMetricsRegistry()

    def add(self, *args, **kwargs) -> None:
        return None

    def span(self, *args, **kwargs) -> _NullSpanContext:
        return _NULL_SPAN

    def spans(self) -> Tuple[Span, ...]:
        return ()

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[Span]:
        return iter(())

    def num_workers(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_RECORDER"


#: the process-wide disabled recorder; hot paths hold this by default.
NULL_RECORDER = _NullRecorder()
