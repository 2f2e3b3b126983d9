"""The committed example trace stays valid and Fig.-4-shaped.

``examples/traces/pagerank_p4_process.trace.json`` is a real p=4
process-backend PageRank run recorded through ``repro run --trace``.
It is the artifact the README points users at, so the suite pins its
contract: Chrome trace-event shape, one tid per worker, and a
per-worker timeline with compute + exchange spans in *every*
superstep — the reconstruction of the paper's Figure 4 Gantt chart
from real execution.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import (
    load_trace,
    render_trace_summary,
    summarize_trace,
    validate_chrome_trace,
)

EXAMPLE = (
    Path(__file__).resolve().parents[2]
    / "examples"
    / "traces"
    / "pagerank_p4_process.trace.json"
)


@pytest.fixture(scope="module")
def trace():
    assert EXAMPLE.is_file(), f"committed example trace missing: {EXAMPLE}"
    return load_trace(str(EXAMPLE))


class TestExampleTrace:
    def test_chrome_shape_valid(self):
        stats = validate_chrome_trace(str(EXAMPLE))
        assert stats["num_workers"] == 4
        # coordinator tid 0 plus one tid per worker.
        assert stats["tids"] == [0, 1, 2, 3, 4]
        assert stats["num_events"] > 0

    def test_one_tid_per_worker_metadata(self):
        doc = json.loads(EXAMPLE.read_text())
        names = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert names[0] == "coordinator"
        assert {names[w + 1] for w in range(4)} == {f"worker {w}" for w in range(4)}

    def test_fig4_timeline_every_worker_every_superstep(self, trace):
        """Each worker shows compute and exchange work in each superstep."""
        supersteps = sorted(
            {e["superstep"] for e in trace["events"] if e["superstep"] is not None}
        )
        assert len(supersteps) == 20  # pagerank?pagerank_iters default run
        seen = {
            (e["name"], e["worker"], e["superstep"])
            for e in trace["events"]
            if e["worker"] is not None
        }
        for step in supersteps:
            for w in range(4):
                for stage in ("compute", "exchange.up", "exchange.down"):
                    assert (stage, w, step) in seen, (stage, w, step)

    def test_summary_statistics(self, trace):
        summary = summarize_trace(trace)
        assert summary.num_workers == 4
        assert summary.num_supersteps == 20
        busy = summary.worker_busy_seconds()
        assert len(busy) == 4 and all(b > 0.0 for b in busy)
        assert summary.straggler_ratio >= 1.0
        assert summary.stage_imbalance["compute"] >= 1.0
        assert "superstep" in summary.coordinator_seconds
        # the run's message totals were snapshotted into the trace.
        assert summary.metrics["messages.sent"]["total"] > 0

    def test_summary_renders(self, trace):
        text = render_trace_summary(summarize_trace(trace))
        assert "workers=4" in text
        assert "straggler ratio" in text
        rows = [line for line in text.splitlines() if line.lstrip()[:1].isdigit()]
        assert [row.split()[0] for row in rows] == ["0", "1", "2", "3"]
        assert "Coordinator span" in text
