"""PipelineSpec.mutations, the fluent builder's mutate stage, and the CLI."""

import json

import numpy as np
import pytest

from repro.apps import cc_reference
from repro.graph import write_edge_list
from repro.mutate import MutationBatch, apply_mutations
from repro.partition import StreamingEBVPartitioner
from repro.pipeline import Pipeline, PipelineSpec, SpecError, run_spec
from repro.pipeline.registries import APPS
from repro.pipeline.registry import UnknownComponentError

SRC = "powerlaw?directed=true,seed=9,vertices=900"


class TestSpecValidation:
    def test_ops_normalized_and_round_trip(self):
        spec = PipelineSpec(
            source=SRC, partition="ebv-stream",
            mutations=[["+", 0, 1], ["-", 2, 3], ["insert", 4, 5, 2.0]],
        )
        assert spec.mutations == {
            "ops": [["insert", 0, 1], ["delete", 2, 3], ["insert", 4, 5, 2.0]]
        }
        again = PipelineSpec.from_dict(json.loads(spec.to_json()))
        assert again.to_dict() == spec.to_dict()

    def test_file_form_kept_verbatim(self):
        spec = PipelineSpec(source=SRC, mutations="deltas.txt")
        assert spec.mutations == {"file": "deltas.txt"}

    def test_threshold_validated(self):
        spec = PipelineSpec(
            source=SRC,
            mutations={"ops": [["insert", 0, 1]], "repartition_threshold": 0.5},
        )
        assert spec.mutations["repartition_threshold"] == 0.5
        with pytest.raises(SpecError, match=r"\[0, 1\]"):
            PipelineSpec(
                source=SRC,
                mutations={"ops": [["insert", 0, 1]], "repartition_threshold": 2},
            )

    def test_bad_shapes_rejected(self):
        with pytest.raises(SpecError, match="exactly one of"):
            PipelineSpec(source=SRC, mutations={})
        with pytest.raises(SpecError, match="exactly one of"):
            PipelineSpec(source=SRC, mutations={"file": "a", "ops": []})
        with pytest.raises(SpecError, match="unknown mutations keys"):
            PipelineSpec(source=SRC, mutations={"ops": [], "bogus": 1})
        with pytest.raises(SpecError, match="invalid 'mutations' ops"):
            PipelineSpec(source=SRC, mutations=[["upsert", 0, 1]])

    def test_unmutated_spec_serialization_unchanged(self):
        assert "mutations" not in PipelineSpec(source=SRC).to_dict()


class TestBuilderExecution:
    def test_mutate_stage_applies_and_reports(self):
        res = (
            Pipeline()
            .source(SRC)
            .partition("ebv-stream", parts=4)
            .mutate([["insert", 1, 899], ["insert", 5, 950]])
            .execute()
        )
        assert res.mutation["mode"] == "incremental"
        assert res.mutation["num_inserted"] == 2
        assert res.graph.num_vertices == 951
        assert "mutate" in res.timings
        assert res.to_dict()["mutation"]["num_inserted"] == 2

    def test_unmutated_result_has_no_mutation_key(self):
        res = Pipeline().source(SRC).partition("ebv-stream", parts=2).execute()
        assert res.mutation is None
        assert "mutation" not in res.to_dict()

    def test_run_spec_cc_on_mutated_graph(self):
        from repro.graph import generate_graph

        g = generate_graph("powerlaw", vertices=900, seed=9, directed=True)
        ops = [
            ["delete", int(g.src[0]), int(g.dst[0])],
            ["insert", 2, 895],
            ["insert", 10, 940],
        ]
        res = run_spec(
            {
                "source": SRC,
                "partition": "ebv-stream",
                "parts": 4,
                "app": "cc",
                "mutations": ops,
            }
        )
        assert res.graph.num_vertices == 941
        np.testing.assert_array_equal(res.run.values, cc_reference(res.graph))

    def test_mutations_file_source(self, tmp_path):
        mut_file = tmp_path / "deltas.txt"
        mut_file.write_text("+ 0 1\n+ 7 880\n")
        res = run_spec(
            {
                "source": SRC,
                "partition": "ebv-stream",
                "parts": 2,
                "mutations": str(mut_file),
            }
        )
        assert res.mutation["num_inserted"] == 2

    def test_mutate_accepts_batch_and_threshold(self):
        batch = MutationBatch().insert(0, 10).insert(0, 10)
        pipe = (
            Pipeline()
            .source(SRC)
            .partition("ebv-stream", parts=2)
            .mutate(batch, repartition_threshold=0.0)
        )
        spec = pipe.spec()
        assert spec.mutations["repartition_threshold"] == 0.0
        res = pipe.execute()
        assert res.mutation["mode"] == "repartition"

    @pytest.mark.parametrize(
        "method", ["ebv-sharded", "ebv-sharded?sort_edges=false", "ebv", "dbh"]
    )
    def test_any_vertex_cut_method_is_maintained_by_ebv_stream(self, method):
        ops = [["insert", 1, 899], ["insert", 5, 950], ["insert", 7, 3]]
        res = run_spec({"source": SRC, "partition": method, "parts": 4, "mutations": ops})
        base = Pipeline().source(SRC).partition(method, parts=4).execute().partition
        expect = apply_mutations(base, MutationBatch.from_ops(ops), StreamingEBVPartitioner())
        assert res.mutation["mode"] == "incremental"
        np.testing.assert_array_equal(res.partition.edge_parts, expect.partition.edge_parts)

    def test_undirected_source_fails_in_mutate_stage(self):
        with pytest.raises(SpecError, match="mutate stage failed"):
            (
                Pipeline()
                .source("powerlaw?seed=1,vertices=500")
                .partition("ebv-stream", parts=2)
                .mutate([["insert", 0, 1]])
                .execute()
            )


class TestCLI:
    @pytest.fixture(scope="class")
    def graph_file(self, tmp_path_factory, directed_graph):
        path = tmp_path_factory.mktemp("cli-mutate") / "graph.txt"
        write_edge_list(directed_graph, str(path))
        return str(path)

    @pytest.fixture(scope="class")
    def mutations_file(self, tmp_path_factory, directed_graph):
        path = tmp_path_factory.mktemp("cli-mutate") / "deltas.txt"
        lines = ["# differential scenario"]
        for eid in range(8):
            lines.append(f"- {directed_graph.src[eid]} {directed_graph.dst[eid]}")
        lines += [f"+ {k} {(11 * k + 5) % 620}" for k in range(12)]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_mutate_prints_drift_table(self, graph_file, mutations_file, capsys):
        from repro.cli import main

        assert main([
            "mutate", graph_file, "--mutations", mutations_file, "--parts", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "incremental" in out
        assert "Drift" in out

    def test_mutate_json_payload(self, graph_file, mutations_file, capsys):
        from repro.cli import main

        assert main([
            "mutate", graph_file, "--mutations", mutations_file,
            "--parts", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"input", "mutations", "method", "parts", "mutation"}
        assert payload["mutation"]["mode"] in ("incremental", "repartition")
        assert "drift" in payload["mutation"]

    @pytest.mark.parametrize("flag", [["--app", "cc"], ["--check"]])
    def test_mutate_has_no_app_options(self, graph_file, mutations_file, flag):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["mutate", graph_file, "--mutations", mutations_file, *flag])
        assert exc.value.code == 2

    def test_mutate_bad_batch_exits_2(self, graph_file, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.txt"
        bad.write_text("- 999999 999998\n")
        assert main(["mutate", graph_file, "--mutations", str(bad), "--parts", "2"]) == 2
        assert "cannot delete" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["cc-delta", "pr-delta", "incremental-cc", "incremental-pagerank"]
)
def test_delta_app_names_are_refused(directed_graph, name):
    available = ", ".join(APPS.names())
    with pytest.raises(UnknownComponentError, match=f"available: {available}$"):
        APPS.create(name, directed_graph)
    with pytest.raises(SpecError, match=f"unknown app {name!r}; available: {available}"):
        PipelineSpec(source=SRC, app=name, mutations=[["insert", 0, 1]])
