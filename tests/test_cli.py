"""Unit tests for the command-line interface."""

import argparse
import json
import socket

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph import powerlaw_graph, read_edge_list, write_edge_list
from repro.pipeline import PARTITIONERS


@pytest.fixture
def edge_file(tmp_path):
    g = powerlaw_graph(300, eta=2.2, min_degree=2, seed=1, name="cli")
    path = str(tmp_path / "cli.txt")
    write_edge_list(g, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_partition_defaults(self):
        args = build_parser().parse_args(["partition", "g.txt"])
        assert args.method == "ebv"
        assert args.parts == 8

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "g.txt", "--method", "bogus"])

    def test_method_accepts_spec_kwargs(self):
        args = build_parser().parse_args(
            ["partition", "g.txt", "--method", "ebv?alpha=2,sort_order=input"]
        )
        assert args.method == "ebv?alpha=2,sort_order=input"

    def test_unknown_app_rejected_and_error_lists_new_apps(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "g.txt", "--app", "bogus"])
        err = capsys.readouterr().err
        assert "bfs" in err and "kcore" in err


class TestGenerate:
    def test_powerlaw(self, tmp_path, capsys):
        out = str(tmp_path / "g.txt")
        assert main(["generate", out, "--vertices", "200", "--seed", "3"]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["stats", out]) == 0

    def test_road(self, tmp_path, capsys):
        out = str(tmp_path / "road.txt")
        assert main(["generate", out, "--kind", "road", "--vertices", "100"]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_rmat(self, tmp_path):
        out = str(tmp_path / "rmat.txt")
        assert main(["generate", out, "--kind", "rmat", "--vertices", "256"]) == 0

    def test_er(self, tmp_path):
        out = str(tmp_path / "er.txt")
        assert main(["generate", out, "--kind", "er", "--vertices", "100"]) == 0


class TestStats:
    def test_prints_table(self, edge_file, capsys):
        assert main(["stats", edge_file]) == 0
        out = capsys.readouterr().out
        assert "AvgDeg" in out and "eta" in out


class TestPartition:
    @pytest.mark.parametrize("method", ["ebv", "dbh", "ne", "metis", "hdrf"])
    def test_methods(self, edge_file, capsys, method):
        assert main(["partition", edge_file, "--method", method, "--parts", "4"]) == 0
        assert "RF" in capsys.readouterr().out

    def test_refine_flag(self, edge_file, capsys):
        assert main(["partition", edge_file, "--refine"]) == 0
        assert "+refine" in capsys.readouterr().out

    def test_output_file(self, edge_file, tmp_path, capsys):
        out = str(tmp_path / "parts.txt")
        assert main(["partition", edge_file, "--output", out, "--parts", "4"]) == 0
        parts = np.loadtxt(out, dtype=int)
        assert parts.min() >= 0 and parts.max() < 4


class TestStreamPartition:
    def test_spills_and_prints_table(self, edge_file, tmp_path, capsys):
        spill = str(tmp_path / "spill")
        assert main([
            "stream-partition", edge_file, "--parts", "4",
            "--chunk-size", "128", "--spill-dir", spill,
        ]) == 0
        out = capsys.readouterr().out
        assert "RF" in out and "PeakRSS" in out and spill in out
        import os
        assert os.path.exists(os.path.join(spill, "manifest.json"))

    def test_matches_inmemory_partition(self, edge_file, tmp_path, capsys):
        from repro.graph import read_edge_list
        from repro.partition import StreamingEBVPartitioner
        from repro.stream import SpilledPartition

        spill = str(tmp_path / "spill")
        assert main([
            "stream-partition", edge_file,
            "--method", "ebv-stream?chunk_size=64",
            "--parts", "4", "--chunk-size", "100", "--spill-dir", spill,
        ]) == 0
        g = read_edge_list(edge_file)
        expected = StreamingEBVPartitioner(chunk_size=64).partition(g, 4)
        assert np.array_equal(
            SpilledPartition(spill).edge_parts(), expected.edge_parts
        )

    def test_json_output(self, edge_file, tmp_path, capsys):
        spill = str(tmp_path / "spill")
        assert main([
            "stream-partition", edge_file, "--parts", "2",
            "--spill-dir", spill, "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_parts"] == 2
        assert payload["spill_dir"] == spill
        assert payload["seconds"] > 0
        assert isinstance(payload["peak_rss_kb"], int)

    def test_npy_format_auto_detected(self, edge_file, tmp_path, capsys):
        from repro.graph import read_edge_list
        from repro.stream import SpilledPartition, save_edge_npy

        g = read_edge_list(edge_file)
        npy = str(tmp_path / "g.npy")
        save_edge_npy(npy, g)
        text_spill = str(tmp_path / "text-spill")
        npy_spill = str(tmp_path / "npy-spill")
        assert main([
            "stream-partition", edge_file, "--parts", "4",
            "--spill-dir", text_spill,
        ]) == 0
        assert main([
            "stream-partition", npy, "--parts", "4", "--spill-dir", npy_spill,
        ]) == 0
        assert np.array_equal(
            SpilledPartition(text_spill).edge_parts(),
            SpilledPartition(npy_spill).edge_parts(),
        )

    def test_non_streaming_method_reports_error(self, edge_file, tmp_path, capsys):
        assert main([
            "stream-partition", edge_file, "--method", "ebv",
            "--spill-dir", str(tmp_path / "s"),
        ]) == 2
        assert "does not support streaming" in capsys.readouterr().err

    def test_existing_spill_needs_overwrite(self, edge_file, tmp_path, capsys):
        spill = str(tmp_path / "spill")
        args = ["stream-partition", edge_file, "--parts", "2", "--spill-dir", spill]
        assert main(args) == 0
        assert main(args) == 2
        assert "overwrite" in capsys.readouterr().err
        assert main(args + ["--overwrite"]) == 0

    def test_missing_input_reports_error(self, tmp_path, capsys):
        assert main([
            "stream-partition", str(tmp_path / "nope.txt"),
            "--spill-dir", str(tmp_path / "s"),
        ]) == 2
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_cc(self, edge_file, capsys):
        assert main(["run", edge_file, "--app", "CC", "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "Supersteps" in out and "Messages" in out

    def test_sssp_reports_reach(self, edge_file, capsys):
        assert main(["run", edge_file, "--app", "SSSP", "--workers", "4"]) == 0
        assert "reached" in capsys.readouterr().out

    def test_reach_names_the_spec_source(self, edge_file, capsys):
        assert main(["run", edge_file, "--app", "sssp?source=7", "--workers", "2"]) == 0
        assert "from source 7" in capsys.readouterr().out

    def test_pr(self, edge_file, capsys):
        assert main(["run", edge_file, "--app", "PR", "--method", "dbh"]) == 0
        assert "PR" in capsys.readouterr().out

    def test_run_reports_true_partition_method(self, edge_file, capsys):
        assert main(["run", edge_file, "--app", "CC", "--method", "dbh"]) == 0
        out = capsys.readouterr().out
        assert "DBH" in out and "?" not in out

    def test_bfs(self, edge_file, capsys):
        assert main(["run", edge_file, "--app", "BFS", "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "BFS" in out and "reached" in out

    def test_kcore(self, edge_file, capsys):
        assert main(["run", edge_file, "--app", "kcore", "--workers", "4"]) == 0
        assert "KCORE" in capsys.readouterr().out

    def test_featprop(self, edge_file, capsys):
        assert main(
            ["run", edge_file, "--app", "featprop?hops=2,feature_dims=4"]
        ) == 0
        assert "FEATPROP" in capsys.readouterr().out

    def test_app_spec_kwargs(self, edge_file, capsys):
        assert main(["run", edge_file, "--app", "pr?pagerank_iters=3"]) == 0
        assert "PR" in capsys.readouterr().out

    def test_default_backend_is_serial(self, edge_file, capsys):
        assert main(["run", edge_file, "--app", "CC"]) == 0
        out = capsys.readouterr().out
        assert "Backend" in out and "serial" in out

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_backends(self, edge_file, capsys, backend):
        assert main(
            ["run", edge_file, "--app", "CC", "--workers", "2",
             "--backend", backend]
        ) == 0
        assert backend in capsys.readouterr().out

    def test_backend_accepts_spec_kwargs(self, edge_file, capsys):
        assert main(
            ["run", edge_file, "--app", "CC", "--workers", "2",
             "--backend", "thread?max_workers=1"]
        ) == 0
        assert "thread" in capsys.readouterr().out

    def test_unreachable_socket_worker_is_an_error_line(self, edge_file, capsys):
        """``BackendError`` is inside the CLI's error boundary: no traceback."""
        probes = [socket.socket() for _ in range(2)]
        for probe in probes:
            probe.bind(("127.0.0.1", 0))
        ports = [probe.getsockname()[1] for probe in probes]
        for probe in probes:
            probe.close()  # nothing listens there now
        workers = "+".join(f"127.0.0.1:{port}" for port in ports)
        assert main(
            ["run", edge_file, "--app", "CC", "--workers", "2",
             "--backend", f"socket?workers={workers}"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot connect to worker at 127.0.0.1:{ports[0]}")
        assert "Traceback" not in err

    def test_repeated_socket_worker_endpoint_is_an_error_line(self, edge_file, capsys):
        """Refused when the spec is parsed, not after ``connect_timeout``."""
        assert main(
            ["run", edge_file, "--app", "CC", "--workers", "2",
             "--backend", "socket?workers=127.0.0.1:7001+127.0.0.1:7001"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "127.0.0.1:7001 is listed twice" in err

    def test_unknown_backend_rejected_with_available_names(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "g.txt", "--backend", "gpu"])
        err = capsys.readouterr().err
        assert "unknown backend 'gpu'" in err
        assert "process" in err and "serial" in err and "thread" in err


class TestPipeline:
    def spec_path(self, tmp_path, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_executes_full_spec(self, tmp_path, capsys):
        path = self.spec_path(
            tmp_path,
            {
                "source": "powerlaw?vertices=200,min_degree=2,seed=3",
                "partition": "ebv",
                "parts": 4,
                "refine": True,
                "app": "cc",
            },
        )
        assert main(["pipeline", path]) == 0
        out = capsys.readouterr().out
        assert "EdgeImb" in out and "Supersteps" in out and "Stage" in out

    def test_json_output_round_trips(self, tmp_path, capsys):
        path = self.spec_path(
            tmp_path,
            {"source": "powerlaw?vertices=200,min_degree=2,seed=3", "parts": 4,
             "app": "pr"},
        )
        assert main(["pipeline", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run"]["program"] == "PR"
        assert payload["spec"]["app"] == "pr"

    def test_spec_backend_field_reaches_the_run(self, tmp_path, capsys):
        path = self.spec_path(
            tmp_path,
            {"source": "powerlaw?vertices=200,min_degree=2,seed=3", "parts": 2,
             "app": "cc", "backend": "process"},
        )
        assert main(["pipeline", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run"]["backend"] == "process"
        assert payload["spec"]["backend"] == "process"
        assert payload["timings"]["run.compute"] >= 0.0

    def test_unknown_backend_in_spec_reports_error(self, tmp_path, capsys):
        path = self.spec_path(
            tmp_path,
            {"source": "powerlaw?vertices=100", "app": "cc", "backend": "gpu"},
        )
        assert main(["pipeline", path]) == 2
        err = capsys.readouterr().err
        assert "unknown backend 'gpu'" in err and "serial" in err

    def test_unknown_backend_option_fails_before_any_stage(self, tmp_path, capsys):
        path = self.spec_path(
            tmp_path,
            {"source": "powerlaw?vertices=400,min_degree=2,seed=3", "partition": "ebv",
             "parts": 2, "app": "cc", "backend": "process?start_method=fork"},
        )
        assert main(["pipeline", path]) == 2
        err = capsys.readouterr().err
        assert "invalid 'backend' spec" in err and "start_method" in err
        assert "stage failed" not in err

    def test_file_source(self, edge_file, tmp_path, capsys):
        path = self.spec_path(
            tmp_path, {"source": f"file?path={edge_file}", "parts": 4}
        )
        assert main(["pipeline", path]) == 0
        assert "EdgeImb" in capsys.readouterr().out

    def test_bad_spec_reports_error(self, tmp_path, capsys):
        path = self.spec_path(tmp_path, {"source": "bogus?vertices=10"})
        assert main(["pipeline", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_reports_error(self, tmp_path, capsys):
        path = self.spec_path(tmp_path, {"source": "powerlaw", "partitions": 2})
        assert main(["pipeline", path]) == 2
        assert "unknown pipeline spec keys" in capsys.readouterr().err

    def test_missing_file_reports_error(self, capsys):
        assert main(["pipeline", "/nonexistent/spec.json"]) == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_missing_graph_file_reports_clean_error(self, tmp_path, capsys):
        path = self.spec_path(
            tmp_path, {"source": "file?path=/nonexistent/graph.txt", "parts": 2}
        )
        assert main(["pipeline", path]) == 2
        assert "source stage failed" in capsys.readouterr().err

    def test_refine_on_edge_cut_reports_clean_error(self, tmp_path, capsys):
        path = self.spec_path(
            tmp_path,
            {"source": "powerlaw?vertices=200,min_degree=2", "partition": "metis",
             "parts": 4, "refine": True},
        )
        assert main(["pipeline", path]) == 2
        assert "refine stage failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["partition", "{graph}", "--method", "ebv?bogus=1"],
            ["mutate", "{graph}", "--mutations", "{deltas}", "--method", "ebv?bogus=1"],
            ["stream-partition", "{graph}", "--method", "ebv-stream?bogus=1",
             "--spill-dir", "{spill}"],
        ],
        ids=["partition", "mutate", "stream-partition"],
    )
    def test_bad_constructor_kwarg_reports_clean_error(self, edge_file, tmp_path, argv, capsys):
        deltas = tmp_path / "deltas.txt"
        deltas.write_text("+ 1 2\n")
        paths = dict(graph=edge_file, deltas=str(deltas), spill=str(tmp_path / "spill"))
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: partition stage failed: ") and "bogus" in err
        assert not (tmp_path / "spill").exists()


#: the registry's edge-cut partitioners; every other name cuts vertices
EDGE_CUT_METHODS = ("metis", "random-vertex")


class TestMutate:
    """Every vertex-cut method's partition is maintained (by ebv-stream
    when the method cannot warm-start); edge cuts are refused, typed."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        g = powerlaw_graph(400, eta=2.0, min_degree=3, directed=True, seed=5, name="mut")
        root = tmp_path_factory.mktemp("cli-mutate")
        graph, deltas = str(root / "g.txt"), root / "deltas.txt"
        write_edge_list(g, graph)
        deltas.write_text(f"- {g.src[0]} {g.dst[0]}\n+ 1 2\n+ 3 405\n")
        return graph, str(deltas)

    @pytest.mark.parametrize("method", PARTITIONERS.names())
    def test_every_registry_method(self, inputs, method, capsys):
        graph, deltas = inputs
        code = main([
            "mutate", graph, "--mutations", deltas, "--method", method,
            "--parts", "4", "--json",
        ])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if method in EDGE_CUT_METHODS:
            assert code == 2
            assert err.startswith("error: ") and "maintains vertex-cut partitions" in err
        else:
            assert code == 0, err
            report = json.loads(out)["mutation"]
            assert report["mode"] == "incremental"
            assert report["num_inserted"] == 2 and report["num_deleted"] == 1

    def test_drift_is_measured_against_ebv_stream(self, inputs, capsys):
        from repro.mutate import MutationBatch, mutated_graph
        from repro.partition import StreamingEBVPartitioner, replication_factor

        graph, deltas = inputs
        assert main([
            "mutate", graph, "--mutations", deltas, "--method", "ebv",
            "--parts", "4", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)["mutation"]
        g = read_edge_list(graph)
        new_graph = mutated_graph(g, MutationBatch.from_file(deltas).resolve_against(g))
        full = StreamingEBVPartitioner().partition(new_graph, 4)
        assert report["rf_full"] == replication_factor(full)


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1", "--scale", "0.1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["experiment", "fig5", "--scale", "0.1"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])


#: Per verb, ``(option_strings, dest, default, required, choices, nargs)``
#: of every argument but ``-h`` -- the parser surface scripts depend on.
#: Help text is deliberately left out.
PARSER_SURFACE = {
    "generate": [
        ((), "output", None, True, None, None),
        (("--kind",), "kind", "powerlaw", False,
         ("ba", "er", "powerlaw", "rmat", "road"), None),
        (("--vertices",), "vertices", 10000, False, None, None),
        (("--eta",), "eta", 2.2, False, None, None),
        (("--min-degree",), "min_degree", 3, False, None, None),
        (("--directed",), "directed", False, False, None, 0),
        (("--seed",), "seed", 0, False, None, None),
    ],
    "stats": [((), "input", None, True, None, None)],
    "partition": [
        ((), "input", None, True, None, None),
        (("--method",), "method", "ebv", False, None, None),
        (("--parts",), "parts", 8, False, None, None),
        (("--refine",), "refine", False, False, None, 0),
        (("--output",), "output", None, False, None, None),
    ],
    "stream-partition": [
        ((), "input", None, True, None, None),
        (("--format",), "format", "auto", False, ("auto", "edgelist", "npy"), None),
        (("--method",), "method", "ebv-stream", False, None, None),
        (("--parts",), "parts", 8, False, None, None),
        (("--chunk-size",), "chunk_size", 65536, False, None, None),
        (("--spill-dir",), "spill_dir", None, False, None, None),
        (("--overwrite",), "overwrite", False, False, None, 0),
        (("--json",), "json", False, False, None, 0),
    ],
    "run": [
        ((), "input", None, True, None, None),
        (("--app",), "app", "CC", False, None, None),
        (("--method",), "method", "ebv", False, None, None),
        (("--workers",), "workers", 8, False, None, None),
        (("--source",), "source", None, False, None, None),
        (("--backend",), "backend", "serial", False, None, None),
        (("--trace",), "trace", None, False, None, None),
    ],
    "mutate": [
        ((), "input", None, True, None, None),
        (("--mutations",), "mutations", None, True, None, None),
        (("--method",), "method", "ebv-stream", False, None, None),
        (("--parts",), "parts", 8, False, None, None),
        (("--repartition-threshold",), "repartition_threshold", None, False,
         None, None),
        (("--json",), "json", False, False, None, 0),
    ],
    "trace": [
        ((), "input", None, True, None, None),
        (("--json",), "json", False, False, None, 0),
    ],
    "pipeline": [
        ((), "spec", None, True, None, None),
        (("--json",), "json", False, False, None, 0),
    ],
    "resume": [
        ((), "dir", None, True, None, None),
        (("--json",), "json", False, False, None, 0),
    ],
    "experiment": [
        ((), "name", None, True,
         ("all", "fig2", "fig3", "fig4", "fig5",
          "table1", "table2", "table3", "table4", "table5"), None),
        (("--scale",), "scale", None, False, None, None),
    ],
    "worker": [
        (("--listen",), "listen", None, True, None, None),
        (("--sessions",), "sessions", 1, False, None, None),
    ],
    "lint": [
        ((), "root", None, False, None, "?"),
        (("--json",), "json", False, False, None, 0),
    ],
}


class TestParserSurface:
    def test_verbs_arguments_defaults_and_choices_are_pinned(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        surface = {
            name: [
                (tuple(a.option_strings), a.dest, a.default, a.required,
                 None if a.choices is None else tuple(a.choices), a.nargs)
                for a in verb._actions
                if not isinstance(a, argparse._HelpAction)
            ]
            for name, verb in sub.choices.items()
        }
        assert list(surface) == list(PARSER_SURFACE)
        assert surface == PARSER_SURFACE
        assert sum(map(len, surface.values())) == 46


class TestBadInput:
    """Unreadable input is an ``error:`` line and exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["stats", "{missing}"], "No such file"),
            (["partition", "{missing}"], "No such file"),
            (["run", "{missing}"], "No such file"),
            (["partition", "{malformed}"], "{malformed}:2: malformed edge line"),
            (["run", "{malformed}"], "{malformed}:2: malformed edge line"),
            (["generate", "{output}", "--kind", "road", "--directed"],
             "produces undirected graphs"),
        ],
        ids=["stats-missing", "partition-missing", "run-missing",
             "partition-malformed", "run-malformed", "generate-road-directed"],
    )
    def test_exits_2_with_error_line(self, tmp_path, capsys, argv, message):
        paths = {
            "missing": str(tmp_path / "nope.txt"),
            "malformed": str(tmp_path / "bad.txt"),
            "output": str(tmp_path / "road.txt"),
        }
        (tmp_path / "bad.txt").write_text("0 1\n1 x\n2 3\n")
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message.format(**paths) in err
        assert "Traceback" not in err
