"""Trace validation and the per-worker/per-stage summary.

:func:`validate_chrome_trace` is the shape contract the CI
``trace-smoke`` job and the exporter tests enforce on Chrome trace
files: every duration event carries ``pid``/``tid``/``ts``/``dur``,
spans on one ``tid`` properly nest (or are disjoint), and worker
threads occupy exactly one ``tid`` each (worker ``w`` ↔ ``tid w+1``,
contiguous, coordinator on ``tid`` 0).

:func:`summarize_trace` aggregates a loaded trace into the
:class:`TraceSummary` behind ``repro trace <file>``: per-worker busy
seconds split by stage (compute / exchange up / exchange down), barrier
wait, plus the two load-balance figures the paper's Figure 4 and
Table V are about —

``straggler_ratio``
    max over workers of total busy seconds divided by the mean: 1.0 is
    a perfectly balanced run, 2.0 means the slowest worker did twice
    the mean work and everyone else waited for it.

``stage_imbalance``
    the same max/mean ratio per stage, which localizes *where* the skew
    comes from (compute skew vs. exchange hot spots).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ..tables import render_table

__all__ = [
    "validate_chrome_trace",
    "summarize_trace",
    "TraceSummary",
    "render_trace_summary",
]

#: nesting comparisons tolerate sub-microsecond float rounding.
_TOL_US = 0.01

#: worker span names by stage bucket (barrier spans are their own bucket).
_WORKER_STAGES = ("compute", "exchange.up", "exchange.down")


def _check_nesting(tid: int, events: Sequence[Dict[str, Any]]) -> List[str]:
    """Spans on one tid must nest or be disjoint — never partially overlap."""
    problems: List[str] = []
    ordered = sorted(events, key=lambda e: (e["ts"], -e["dur"]))
    stack: List[Tuple[float, float, str]] = []
    for event in ordered:
        t0, t1 = event["ts"], event["ts"] + event["dur"]
        while stack and t0 >= stack[-1][1] - _TOL_US:
            stack.pop()
        if stack and t1 > stack[-1][1] + _TOL_US:
            problems.append(
                f"tid {tid}: span {event['name']!r} [{t0:.1f}, {t1:.1f}]us "
                f"partially overlaps {stack[-1][2]!r} "
                f"[{stack[-1][0]:.1f}, {stack[-1][1]:.1f}]us"
            )
            continue
        stack.append((t0, t1, event["name"]))
    return problems


def validate_chrome_trace(trace: Any) -> Dict[str, Any]:
    """Validate Chrome trace-event shape; raise ``ValueError`` on problems.

    ``trace`` is a path or an already-parsed document.  Returns summary
    stats (event count, tids, workers, duration) on success.
    """
    if isinstance(trace, str):
        with open(trace, "r", encoding="utf-8") as fh:
            trace = json.load(fh)
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("not a Chrome trace: no 'traceEvents' array")
    problems: List[str] = []
    by_tid: Dict[int, List[Dict[str, Any]]] = {}
    thread_names: Dict[int, str] = {}
    num_x = 0
    for i, event in enumerate(trace["traceEvents"]):
        if not isinstance(event, dict) or "ph" not in event:
            problems.append(f"event {i}: not an object with a 'ph' phase")
            continue
        if event["ph"] == "M":
            if event.get("name") == "thread_name":
                thread_names[event.get("tid", 0)] = event.get("args", {}).get("name", "")
            continue
        if event["ph"] != "X":
            problems.append(f"event {i}: unexpected phase {event['ph']!r}")
            continue
        num_x += 1
        missing = [k for k in ("pid", "tid", "ts", "dur", "name") if k not in event]
        if missing:
            problems.append(f"event {i} ({event.get('name', '?')!r}): missing {missing}")
            continue
        by_tid.setdefault(event["tid"], []).append(event)
    # One tid per worker: the worker tids declared by thread_name
    # metadata must be 1..p with no gaps, coordinator on tid 0.
    worker_tids = sorted(
        tid for tid, name in thread_names.items() if name.startswith("worker")
    )
    if worker_tids and worker_tids != list(range(1, len(worker_tids) + 1)):
        problems.append(
            f"worker tids {worker_tids} are not contiguous from 1 "
            "(one tid per worker, coordinator on tid 0)"
        )
    for tid in by_tid:
        if tid != 0 and tid not in thread_names:
            problems.append(f"tid {tid} has events but no thread_name metadata")
    for tid, events in sorted(by_tid.items()):
        problems.extend(_check_nesting(tid, events))
    if problems:
        raise ValueError(
            "invalid Chrome trace:\n  " + "\n  ".join(problems[:20])
            + ("" if len(problems) <= 20 else f"\n  ... {len(problems) - 20} more")
        )
    spans = [e for events in by_tid.values() for e in events]
    end = max((e["ts"] + e["dur"] for e in spans), default=0.0)
    start = min((e["ts"] for e in spans), default=0.0)
    return {
        "num_events": num_x,
        "tids": sorted(by_tid),
        "num_workers": len(worker_tids),
        "duration_us": end - start,
    }


@dataclass
class TraceSummary:
    """The aggregate ``repro trace`` prints (seconds unless noted)."""

    label: str
    num_workers: int
    num_supersteps: int
    #: per worker: stage-name -> busy seconds (compute/exchange.up/down).
    worker_stage_seconds: List[Dict[str, float]] = field(default_factory=list)
    #: per worker: seconds spent waiting at stage barriers.
    worker_barrier_seconds: List[float] = field(default_factory=list)
    #: coordinator-side totals: span name -> seconds.
    coordinator_seconds: Dict[str, float] = field(default_factory=dict)
    #: max/mean of per-worker total busy seconds (1.0 = balanced).
    straggler_ratio: float = 1.0
    #: per stage, max/mean of per-worker busy seconds.
    stage_imbalance: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)

    def worker_busy_seconds(self) -> List[float]:
        return [sum(stages.values()) for stages in self.worker_stage_seconds]


def _max_mean(values: Sequence[float]) -> float:
    vals = [v for v in values]
    if not vals:
        return 1.0
    mean = sum(vals) / len(vals)
    if mean <= 0:
        return 1.0
    return max(vals) / mean


def summarize_trace(trace: Dict[str, Any]) -> TraceSummary:
    """Aggregate a :func:`repro.obs.export.load_trace` dict."""
    events = trace["events"]
    meta = trace.get("meta", {})
    workers = sorted({e["worker"] for e in events if e["worker"] is not None})
    p = (max(workers) + 1) if workers else int(meta.get("num_workers") or 0)
    supersteps = {e["superstep"] for e in events if e["superstep"] is not None}

    stage_seconds = [{stage: 0.0 for stage in _WORKER_STAGES} for _ in range(p)]
    barrier_seconds = [0.0 for _ in range(p)]
    coordinator: Dict[str, float] = {}
    for event in events:
        seconds = event["dur_us"] * 1e-6
        w = event["worker"]
        if w is None:
            coordinator[event["name"]] = coordinator.get(event["name"], 0.0) + seconds
        elif event["name"].startswith("barrier."):
            barrier_seconds[w] += seconds
        elif event["name"] in _WORKER_STAGES:
            stage_seconds[w][event["name"]] += seconds

    busy = [sum(stages.values()) for stages in stage_seconds]
    imbalance = {
        "compute": _max_mean([s["compute"] for s in stage_seconds]),
        "exchange": _max_mean(
            [s["exchange.up"] + s["exchange.down"] for s in stage_seconds]
        ),
    }
    return TraceSummary(
        label=str(meta.get("label", "run")),
        num_workers=p,
        num_supersteps=len(supersteps),
        worker_stage_seconds=stage_seconds,
        worker_barrier_seconds=barrier_seconds,
        coordinator_seconds=coordinator,
        straggler_ratio=_max_mean(busy),
        stage_imbalance=imbalance,
        metrics=trace.get("metrics", {}),
    )


def render_trace_summary(summary: TraceSummary) -> str:
    """Human-readable per-worker/per-stage report for ``repro trace``."""
    out: List[str] = [
        f"trace: {summary.label}  workers={summary.num_workers}  "
        f"supersteps={summary.num_supersteps}"
    ]
    if summary.num_workers:
        rows = []
        for w, stages in enumerate(summary.worker_stage_seconds):
            busy = sum(stages.values())
            rows.append(
                (
                    w,
                    f"{stages['compute']:.4f}",
                    f"{stages['exchange.up']:.4f}",
                    f"{stages['exchange.down']:.4f}",
                    f"{summary.worker_barrier_seconds[w]:.4f}",
                    f"{busy:.4f}",
                )
            )
        out.append(
            render_table(
                ["Worker", "Compute", "ExchUp", "ExchDown", "Barrier", "Busy"],
                rows,
            )
        )
        out.append(
            f"straggler ratio (max/mean busy): {summary.straggler_ratio:.3f}   "
            f"imbalance: compute {summary.stage_imbalance.get('compute', 1.0):.3f}, "
            f"exchange {summary.stage_imbalance.get('exchange', 1.0):.3f}"
        )
    if summary.coordinator_seconds:
        rows = [
            (name, f"{seconds:.4f}")
            for name, seconds in sorted(summary.coordinator_seconds.items())
        ]
        out.append(render_table(["Coordinator span", "Seconds"], rows))
    if summary.metrics:
        rows = []
        for name, snap in sorted(summary.metrics.items()):
            if snap.get("kind") == "counter":
                rows.append((name, "counter", f"{snap.get('total', 0):g}"))
            else:
                peak = max(snap.get("max", {}).values(), default=0)
                rows.append((name, "gauge(max)", f"{peak:g}"))
        out.append(render_table(["Metric", "Kind", "Value"], rows))
    return "\n\n".join(out)
