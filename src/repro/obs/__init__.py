"""``repro.obs`` — per-worker structured tracing and a metrics registry.

The paper's evaluation is about *where time goes across workers*:
Figure 4 is a per-worker Gantt timeline, Tables IV/V are
message-balance breakdowns.  This package is the observability
substrate that lets the reproduction answer those questions about its
own *real* parallel execution (the deterministic
:class:`~repro.bsp.cost_model.CostModel` remains authoritative for the
paper artifacts — tracing never feeds results):

:mod:`repro.obs.trace`
    :class:`TraceRecorder` — monotonic-clock spans labeled with worker,
    superstep and stage.  :data:`NULL_RECORDER` is the always-off
    singleton every hot path holds by default: calls on it are no-ops
    and allocate nothing, so a trace-disabled run pays one attribute
    check (``recorder.enabled``) per guarded site and nothing else.

:mod:`repro.obs.metrics`
    :class:`MetricsRegistry` — counters (messages sent/received per
    worker, checkpoint bytes, spill bytes) and gauges (active/changed
    vertex counts, peak-RSS samples), snapshotted deterministically
    into the exported trace.

:mod:`repro.obs.export`
    Renderer: Chrome trace-event JSON — one ``tid`` per worker, loadable
    in Perfetto / ``chrome://tracing``, reconstructing the Fig. 4
    timeline from real execution — and the loader that reads it back.

:mod:`repro.obs.summary`
    Shape validation plus the per-worker/per-stage aggregation behind
    the ``repro trace <file>`` CLI verb: busy seconds by stage,
    barrier-wait time, straggler and imbalance ratios.

Layering contract: this package imports nothing from the rest of
:mod:`repro` but the leaf table renderer :mod:`repro.tables` (the
runtime/engine/pipeline layers import *it*), and the
worker kernels in :mod:`repro.runtime.worker` never touch it at all —
sessions time the kernels from outside and pass the recorder down
(enforced by the ``worker-purity`` lint rule).

Clock: spans use :func:`time.monotonic_ns`, which on Linux is
``CLOCK_MONOTONIC`` — a system-wide clock, so timestamps taken inside
the process backend's children are directly comparable with the
coordinator's.  (On platforms without a system-wide monotonic clock,
cross-process span alignment is best-effort; per-span durations are
always correct.)
"""

from __future__ import annotations

from .export import load_trace, write_chrome_trace
from .metrics import MetricsRegistry, sample_peak_rss_kb
from .summary import TraceSummary, render_trace_summary, summarize_trace, validate_chrome_trace
from .trace import NULL_RECORDER, Span, TraceRecorder

__all__ = [
    "Span",
    "TraceRecorder",
    "NULL_RECORDER",
    "MetricsRegistry",
    "sample_peak_rss_kb",
    "write_chrome_trace",
    "load_trace",
    "TraceSummary",
    "summarize_trace",
    "validate_chrome_trace",
    "render_trace_summary",
]
