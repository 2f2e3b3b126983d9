"""summarize_trace math (straggler/imbalance ratios) and the rendered report."""

import pytest

from repro.obs import summarize_trace, render_trace_summary
from repro.obs.summary import _max_mean


def _event(name, worker=None, superstep=None, ts=0.0, dur=1.0, cat="worker"):
    return {
        "name": name, "cat": cat, "worker": worker, "superstep": superstep,
        "ts_us": ts, "dur_us": dur, "args": {},
    }


@pytest.fixture
def skewed_trace():
    """Two workers, one superstep; worker 1 computes 3x longer.

    Durations are in microseconds; summarize_trace reports seconds.
    """
    events = [
        _event("compute", worker=0, superstep=0, dur=1_000_000.0),   # 1 s
        _event("compute", worker=1, superstep=0, dur=3_000_000.0),   # 3 s
        _event("exchange.up", worker=0, superstep=0, dur=500_000.0),
        _event("exchange.up", worker=1, superstep=0, dur=500_000.0),
        _event("exchange.down", worker=0, superstep=0, dur=250_000.0),
        _event("exchange.down", worker=1, superstep=0, dur=250_000.0),
        _event("barrier.compute", worker=0, superstep=0, dur=2_000_000.0, cat="barrier"),
        _event("barrier.compute", worker=1, superstep=0, dur=0.0, cat="barrier"),
        _event("stage.compute", superstep=0, dur=3_100_000.0, cat="stage"),
        _event("converge", superstep=0, dur=10_000.0, cat="stage"),
        _event("superstep", superstep=0, dur=4_000_000.0, cat="superstep"),
    ]
    return {"format": "chrome", "meta": {"label": "skew"}, "events": events,
            "metrics": {"messages.sent": {"kind": "counter", "total": 42.0,
                                          "series": {"worker_0": 20.0, "worker_1": 22.0}}}}


class TestSummarizeTrace:
    def test_per_worker_stage_seconds(self, skewed_trace):
        s = summarize_trace(skewed_trace)
        assert s.num_workers == 2
        assert s.num_supersteps == 1
        assert s.worker_stage_seconds[0]["compute"] == pytest.approx(1.0)
        assert s.worker_stage_seconds[1]["compute"] == pytest.approx(3.0)
        assert s.worker_stage_seconds[0]["exchange.up"] == pytest.approx(0.5)
        assert s.worker_stage_seconds[1]["exchange.down"] == pytest.approx(0.25)

    def test_barrier_seconds_localize_waiting(self, skewed_trace):
        s = summarize_trace(skewed_trace)
        assert s.worker_barrier_seconds[0] == pytest.approx(2.0)
        assert s.worker_barrier_seconds[1] == pytest.approx(0.0)

    def test_straggler_ratio_is_max_over_mean_busy(self, skewed_trace):
        s = summarize_trace(skewed_trace)
        # busy: w0 = 1.75 s, w1 = 3.75 s -> max/mean = 3.75 / 2.75
        assert s.worker_busy_seconds() == pytest.approx([1.75, 3.75])
        assert s.straggler_ratio == pytest.approx(3.75 / 2.75)

    def test_stage_imbalance_localizes_skew(self, skewed_trace):
        s = summarize_trace(skewed_trace)
        assert s.stage_imbalance["compute"] == pytest.approx(3.0 / 2.0)
        assert s.stage_imbalance["exchange"] == pytest.approx(1.0)

    def test_coordinator_spans_and_metrics_carried(self, skewed_trace):
        s = summarize_trace(skewed_trace)
        assert s.coordinator_seconds["stage.compute"] == pytest.approx(3.1)
        assert s.coordinator_seconds["converge"] == pytest.approx(0.01)
        assert s.metrics["messages.sent"]["total"] == 42.0

    def test_coordinator_only_trace(self):
        trace = {"format": "chrome", "meta": {"label": "x", "num_workers": 0},
                 "events": [_event("pipeline.partition", dur=100.0, cat="pipeline")],
                 "metrics": {}}
        s = summarize_trace(trace)
        assert s.num_workers == 0
        assert s.straggler_ratio == 1.0
        assert s.worker_stage_seconds == []


class TestMaxMean:
    def test_empty_and_zero_are_balanced(self):
        assert _max_mean([]) == 1.0
        assert _max_mean([0.0, 0.0]) == 1.0

    def test_ratio(self):
        assert _max_mean([1.0, 3.0]) == pytest.approx(1.5)


class TestRender:
    def test_report_has_worker_table_and_ratios(self, skewed_trace):
        text = render_trace_summary(summarize_trace(skewed_trace))
        assert "trace: skew  workers=2  supersteps=1" in text
        assert "Worker" in text and "Barrier" in text
        assert "straggler ratio" in text
        assert "Coordinator span" in text
        assert "messages.sent" in text

    def test_report_without_workers_skips_worker_table(self):
        trace = {"format": "chrome", "meta": {"label": "x"},
                 "events": [_event("pipeline.source", dur=5.0, cat="pipeline")],
                 "metrics": {}}
        text = render_trace_summary(summarize_trace(trace))
        assert "Worker" not in text
        assert "pipeline.source" in text
