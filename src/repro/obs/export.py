"""Trace exporter and the matching loader.

One on-disk form, Chrome trace-event JSON (conventionally ``.json`` /
``.trace.json``): complete ``"X"`` duration events on ``pid`` 1 with
**one ``tid`` per worker** (worker ``w`` → ``tid w+1``; the coordinator
— engine loop, pipeline stages, checkpoint writes — is ``tid`` 0) plus
``"M"`` thread-name metadata.  Load it in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing`` and the compute /
exchange / barrier spans render exactly the per-worker Gantt timeline of
the paper's Figure 4 — from real execution rather than the cost model.

Timestamps are microseconds relative to the recorder's ``origin_ns``,
so every trace starts near t=0.  :func:`load_trace` reads it back into
one normalized dict (``format``/``meta``/``events``/``metrics``) for
:mod:`repro.obs.summary` and the ``repro trace`` CLI.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = ["write_chrome_trace", "load_trace"]

_FORMAT = "repro-trace"
_VERSION = 1
#: chrome pid all events share (single logical process).
_PID = 1


def _tid(worker: Optional[int]) -> int:
    """Coordinator spans on tid 0, worker ``w`` on tid ``w + 1``."""
    return 0 if worker is None else int(worker) + 1


def _tid_name(tid: int) -> str:
    return "coordinator" if tid == 0 else f"worker {tid - 1}"


def write_chrome_trace(recorder, path: str) -> str:
    """Render the recorder as Chrome trace-event JSON (Perfetto-loadable)."""
    origin = recorder.origin_ns
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
         "args": {"name": f"repro:{recorder.label}"}},
    ]
    tids = sorted({_tid(s.worker) for s in recorder.spans()} | {0})
    for tid in tids:
        events.append(
            {"name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
             "args": {"name": _tid_name(tid)}}
        )
        events.append(
            {"name": "thread_sort_index", "ph": "M", "pid": _PID, "tid": tid,
             "args": {"sort_index": tid}}
        )
    for span in recorder.spans():
        args: Dict[str, Any] = {}
        if span.superstep is not None:
            args["superstep"] = span.superstep
        if span.args:
            args.update(span.args)
        events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "pid": _PID,
                "tid": _tid(span.worker),
                "ts": (span.t0_ns - origin) / 1000.0,
                "dur": (span.t1_ns - span.t0_ns) / 1000.0,
                "args": args,
            }
        )
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "format": _FORMAT,
            "version": _VERSION,
            "label": recorder.label,
            "wall_time": recorder.wall_time,
            "num_workers": recorder.num_workers(),
            "num_spans": len(recorder),
            "metrics": recorder.metrics.snapshot(),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return str(path)


def _normalize_chrome(document: Dict[str, Any]) -> Dict[str, Any]:
    events = []
    dropped = 0
    for event in document.get("traceEvents", []):
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        # A trace from a crashed run can hold torn events missing the
        # required fields; drop them (counted in meta) instead of
        # raising so the surviving spans still render partial tables.
        if not all(k in event for k in ("name", "tid", "ts", "dur")):
            dropped += 1
            continue
        tid = event["tid"]
        args = dict(event.get("args") or {})
        try:
            ts_us, dur_us = float(event["ts"]), float(event["dur"])
        except (TypeError, ValueError):
            dropped += 1
            continue
        events.append(
            {
                "name": event["name"],
                "cat": event.get("cat", ""),
                "worker": None if tid == 0 else tid - 1,
                "superstep": args.pop("superstep", None),
                "ts_us": ts_us,
                "dur_us": dur_us,
                "args": args,
            }
        )
    meta = dict(document.get("otherData") or {})
    metrics = meta.pop("metrics", {})
    if dropped:
        meta["dropped_events"] = dropped
    return {"format": "chrome", "meta": meta, "events": events, "metrics": metrics}


def load_trace(path: str) -> Dict[str, Any]:
    """Read a Chrome trace-event file into the normalized dict.

    The result maps ``format`` (``"chrome"``), ``meta`` (the header
    fields), ``events`` (span dicts with ``name``/``cat``/``worker``/
    ``superstep``/``ts_us``/``dur_us``/``args``) and ``metrics`` (the
    registry snapshot).  Raises :class:`ValueError` for anything that is
    not Chrome trace-event JSON.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        raise ValueError(f"{path}: empty trace file")
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a trace file ({exc})") from exc
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError(f"{path}: not Chrome trace-event JSON (no 'traceEvents')")
    return _normalize_chrome(document)
