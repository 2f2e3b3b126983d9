"""``repro run --trace`` and the ``repro trace`` summary verb."""

import json

import pytest

from repro.cli import main
from repro.graph import powerlaw_graph, write_edge_list
from repro.obs import validate_chrome_trace


@pytest.fixture
def edge_file(tmp_path):
    g = powerlaw_graph(300, eta=2.2, min_degree=2, seed=1, name="obs-cli")
    path = str(tmp_path / "g.txt")
    write_edge_list(g, path)
    return path


@pytest.fixture
def trace_file(edge_file, tmp_path, capsys):
    path = str(tmp_path / "run.trace.json")
    code = main(
        ["run", edge_file, "--app", "pr", "--workers", "2",
         "--backend", "thread", "--trace", path]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "trace written to" in out and "repro trace" in out
    return path


class TestRunTrace:
    def test_trace_file_is_valid_chrome_trace(self, trace_file):
        stats = validate_chrome_trace(trace_file)
        assert stats["num_workers"] == 2
        assert stats["num_events"] > 0

    def test_any_extension_gets_chrome_trace(self, edge_file, tmp_path):
        path = str(tmp_path / "run.jsonl")
        assert main(
            ["run", edge_file, "--app", "cc", "--workers", "2", "--trace", path]
        ) == 0
        stats = validate_chrome_trace(json.load(open(path)))
        assert stats["num_workers"] == 2


class TestTraceVerb:
    def test_summary_report(self, trace_file, capsys):
        assert main(["trace", trace_file]) == 0
        out = capsys.readouterr().out
        assert "workers=2" in out
        assert "straggler ratio" in out
        assert "Worker" in out and "Compute" in out

    def test_json_output(self, trace_file, capsys):
        assert main(["trace", trace_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_workers"] == 2
        assert len(doc["worker_stage_seconds"]) == 2
        assert doc["straggler_ratio"] >= 1.0

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 2
        assert "No such file" in capsys.readouterr().err

    def test_non_trace_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"results": [1, 2]}))
        assert main(["trace", str(bad)]) == 2
        assert capsys.readouterr().err

    def test_crashed_trace_warns_but_summarizes(self, edge_file, tmp_path, capsys):
        """A trace torn by a crash still renders partial tables, with a
        stderr warning counting what was dropped."""
        path = str(tmp_path / "run.trace.json")
        assert main(
            ["run", edge_file, "--app", "cc", "--workers", "2", "--trace", path]
        ) == 0
        capsys.readouterr()
        doc = json.load(open(path))
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        del spans[-1]["dur"]  # tear the final span
        crashed = str(tmp_path / "crashed.json")
        open(crashed, "w").write(json.dumps(doc))
        assert main(["trace", crashed]) == 0
        captured = capsys.readouterr()
        assert "torn record(s) dropped" in captured.err
        assert "crashed run" in captured.err
        assert "Worker" in captured.out  # the surviving spans still render
