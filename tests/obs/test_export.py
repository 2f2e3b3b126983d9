"""Exporter round-trips: Chrome trace shape and the loader."""

import json

import pytest

from repro.obs import (
    TraceRecorder,
    load_trace,
    validate_chrome_trace,
    write_chrome_trace,
)


@pytest.fixture
def recorder():
    """Two workers, two supersteps, nested coordinator spans + metrics."""
    rec = TraceRecorder(label="unit")
    o = rec.origin_ns
    for step in range(2):
        base = o + step * 10_000
        for w in range(2):
            t0 = base + w * 100
            rec.add("compute", t0, t0 + 2_000, worker=w, superstep=step, cat="worker")
            rec.add(
                "barrier.compute", t0 + 2_000, base + 2_200,
                worker=w, superstep=step, cat="barrier",
            )
        rec.add("stage.compute", base, base + 2_500, superstep=step)
        rec.add("converge", base + 2_500, base + 2_600, superstep=step)
        rec.add("superstep", base, base + 9_000, superstep=step, cat="superstep")
    rec.metrics.counter("messages.sent").inc(10, worker=0)
    rec.metrics.counter("messages.sent").inc(12, worker=1)
    rec.metrics.gauge("vertices.active").sample(42)
    return rec


class TestChromeTrace:
    def test_document_shape(self, recorder, tmp_path):
        path = write_chrome_trace(recorder, str(tmp_path / "t.json"))
        with open(path) as fh:
            doc = json.load(fh)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        meta = doc["otherData"]
        assert meta["format"] == "repro-trace"
        assert meta["label"] == "unit"
        assert meta["num_workers"] == 2
        assert meta["num_spans"] == len(recorder)
        assert meta["metrics"]["messages.sent"]["total"] == 22

    def test_one_tid_per_worker_plus_coordinator(self, recorder, tmp_path):
        path = write_chrome_trace(recorder, str(tmp_path / "t.json"))
        with open(path) as fh:
            doc = json.load(fh)
        names = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {0: "coordinator", 1: "worker 0", 2: "worker 1"}
        x_tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert x_tids == {0, 1, 2}

    def test_timestamps_relative_to_origin_in_us(self, recorder, tmp_path):
        path = write_chrome_trace(recorder, str(tmp_path / "t.json"))
        with open(path) as fh:
            doc = json.load(fh)
        first_compute = next(
            e for e in doc["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "compute"
        )
        assert first_compute["ts"] == pytest.approx(0.0)
        assert first_compute["dur"] == pytest.approx(2.0)  # 2000 ns = 2 us
        assert first_compute["args"]["superstep"] == 0

    def test_validates(self, recorder, tmp_path):
        path = write_chrome_trace(recorder, str(tmp_path / "t.json"))
        stats = validate_chrome_trace(path)
        assert stats["num_workers"] == 2
        assert stats["tids"] == [0, 1, 2]
        assert stats["num_events"] == len(recorder)
        assert stats["duration_us"] > 0

    def test_validate_rejects_partial_overlap(self):
        events = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "coordinator"}},
            {"name": "a", "ph": "X", "pid": 1, "tid": 0, "ts": 0.0, "dur": 10.0},
            {"name": "b", "ph": "X", "pid": 1, "tid": 0, "ts": 5.0, "dur": 10.0},
        ]
        with pytest.raises(ValueError, match="partially overlaps"):
            validate_chrome_trace({"traceEvents": events})

    def test_validate_rejects_missing_fields_and_gappy_tids(self):
        events = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2,
             "args": {"name": "worker 1"}},
            {"name": "a", "ph": "X", "pid": 1, "tid": 2, "ts": 0.0},  # no dur
        ]
        with pytest.raises(ValueError) as err:
            validate_chrome_trace({"traceEvents": events})
        assert "missing" in str(err.value)
        assert "not contiguous" in str(err.value)

    def test_validate_rejects_non_trace(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"hello": 1})


class TestLoader:
    def test_loader_normalizes_chrome_spans(self, recorder, tmp_path):
        trace = load_trace(write_chrome_trace(recorder, str(tmp_path / "t.json")))
        assert trace["format"] == "chrome"
        key = lambda e: (e["name"], e["worker"], e["superstep"], e["ts_us"], e["dur_us"])
        origin = recorder.origin_ns
        assert [key(e) for e in trace["events"]] == [
            (s.name, s.worker, s.superstep,
             (s.t0_ns - origin) / 1000.0, (s.t1_ns - s.t0_ns) / 1000.0)
            for s in recorder.spans()
        ]
        assert trace["metrics"] == recorder.metrics.snapshot()
        assert trace["meta"]["label"] == "unit"

    def test_loader_rejects_non_trace_files(self, tmp_path):
        plain = tmp_path / "notes.txt"
        plain.write_text("just some text\n")
        with pytest.raises(ValueError):
            load_trace(str(plain))
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_trace(str(empty))
        wrong_json = tmp_path / "doc.json"
        wrong_json.write_text(json.dumps({"results": [1, 2, 3]}))
        with pytest.raises(ValueError):
            load_trace(str(wrong_json))

    def test_loader_refuses_json_lines(self, tmp_path):
        lines = tmp_path / "run.jsonl"
        lines.write_text(
            json.dumps({"type": "header", "num_workers": 2}) + "\n"
            + json.dumps({"type": "span", "name": "compute"}) + "\n"
        )
        with pytest.raises(ValueError, match="not a trace file"):
            load_trace(str(lines))


class TestCrashedTraces:
    """Traces from crashed runs degrade gracefully instead of raising."""

    def test_torn_chrome_events_are_dropped(self, recorder, tmp_path):
        path = write_chrome_trace(recorder, str(tmp_path / "t.json"))
        doc = json.load(open(path))
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                del event["dur"]
                break
        crashed = tmp_path / "torn.json"
        crashed.write_text(json.dumps(doc))
        trace = load_trace(str(crashed))
        assert trace["meta"]["dropped_events"] == 1
        assert len(trace["events"]) == len(recorder) - 1

    def test_unparseable_chrome_times_are_dropped(self, recorder, tmp_path):
        path = write_chrome_trace(recorder, str(tmp_path / "t.json"))
        doc = json.load(open(path))
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        spans[0]["ts"] = "not-a-number"
        spans[1]["dur"] = None
        crashed = tmp_path / "torn.json"
        crashed.write_text(json.dumps(doc))
        trace = load_trace(str(crashed))
        assert trace["meta"]["dropped_events"] == 2
        assert len(trace["events"]) == len(recorder) - 2

    def test_truncated_chrome_document_is_corruption(self, recorder, tmp_path):
        path = write_chrome_trace(recorder, str(tmp_path / "t.json"))
        text = open(path).read()
        crashed = tmp_path / "cut.json"
        crashed.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match="not a trace file"):
            load_trace(str(crashed))

    def test_summarize_survives_dropped_events(self, recorder, tmp_path):
        from repro.obs import summarize_trace

        path = write_chrome_trace(recorder, str(tmp_path / "t.json"))
        doc = json.load(open(path))
        compute = [e for e in doc["traceEvents"] if e.get("name") == "compute"]
        del compute[-1]["ts"]
        crashed = tmp_path / "crashed.json"
        crashed.write_text(json.dumps(doc))
        trace = load_trace(str(crashed))
        assert trace["meta"]["dropped_events"] == 1
        summary = summarize_trace(trace)
        assert summary  # partial tables still render
