"""Fluent builder and PipelineResult tests, including the spec-equality
acceptance criterion: a run built fluently equals the same run executed
from its JSON spec, modulo wall-clock timings."""

import numpy as np
import pytest

from repro.bsp import CostModel
from repro.graph import powerlaw_graph
from repro.pipeline import Pipeline, PipelineSpec, SpecError, run_spec

SOURCE = "powerlaw?min_degree=2,seed=3,vertices=300"


def strip_timings(result_dict):
    d = dict(result_dict)
    d.pop("timings")
    return d


class TestExecute:
    def test_partition_only_pipeline(self):
        result = Pipeline().source(SOURCE).partition("ebv", parts=4).execute()
        assert result.run is None
        assert result.partition.num_parts == 4
        assert result.metrics.replication >= 1.0
        assert {"source", "partition", "total"} <= set(result.timings)
        assert result.to_dict()["run"] is None

    def test_full_pipeline_with_app(self):
        result = (
            Pipeline().source(SOURCE).partition("ebv", parts=4).run("cc").execute()
        )
        assert result.run is not None
        assert result.run.num_supersteps > 0
        d = result.to_dict()
        assert d["run"]["program"] == "CC"
        assert d["graph"]["num_vertices"] == 300
        assert "run" in result.timings and "distribute" in result.timings

    def test_run_is_born_labeled_with_partition_method(self):
        result = (
            Pipeline().source(SOURCE).partition("dbh", parts=4).run("cc").execute()
        )
        assert result.run.partition_method == result.partition.method
        assert result.run.partition_method != "?"

    def test_refine_stage(self):
        result = (
            Pipeline().source(SOURCE).partition("ebv", parts=4).refine().execute()
        )
        assert result.partition.method.endswith("+refine")
        assert "refine" in result.timings

    def test_in_memory_graph_source(self):
        g = powerlaw_graph(200, eta=2.2, min_degree=2, seed=1)
        result = Pipeline().source(g).partition("ebv", parts=4).execute()
        assert result.graph is g
        assert result.spec is None  # not serializable, still runnable
        with pytest.raises(SpecError, match="cannot be serialized"):
            Pipeline().source(g).spec()

    def test_graph_source_rejects_kwargs(self):
        g = powerlaw_graph(100, eta=2.2, min_degree=2, seed=1)
        with pytest.raises(SpecError):
            Pipeline().source(g, vertices=100)

    def test_missing_source_raises(self):
        with pytest.raises(SpecError, match="no source"):
            Pipeline().partition("ebv").execute()

    def test_cost_model_is_applied(self):
        base = (
            Pipeline().source(SOURCE).partition("ebv", parts=4).run("cc").execute()
        )
        scaled = (
            Pipeline()
            .source(SOURCE)
            .partition("ebv", parts=4)
            .run("cc")
            .with_cost_model(seconds_per_work_unit=2e-6)
            .execute()
        )
        # Identical partition/messages, strictly more modeled compute time.
        assert scaled.run.total_messages == base.run.total_messages
        assert scaled.run.comp > base.run.comp
        with pytest.raises(SpecError):
            Pipeline().with_cost_model(CostModel(), seconds_per_message=1.0)

    def test_stage_errors_become_spec_errors(self):
        # refine on an edge-cut partition is a configuration error.
        with pytest.raises(SpecError, match="refine stage failed"):
            Pipeline().source(SOURCE).partition("metis", parts=4).refine().execute()
        # so is a bad constructor kwarg smuggled through a spec string.
        with pytest.raises(SpecError, match="partition stage failed"):
            Pipeline().source(SOURCE).partition("ebv?bogus=1", parts=4).execute()
        with pytest.raises(SpecError, match="run stage failed"):
            Pipeline().source(SOURCE).partition("ebv", parts=4).run(
                "featprop?hops=0"
            ).execute()

    def test_new_apps_run_end_to_end(self):
        for app in ("bfs", "kcore", "featprop?hops=2,feature_dims=4"):
            result = (
                Pipeline().source(SOURCE).partition("ebv", parts=4).run(app).execute()
            )
            assert result.run.num_supersteps > 0

    def test_missing_source_file_is_a_spec_error(self):
        with pytest.raises(SpecError, match="source stage failed"):
            Pipeline().source("file?path=/nonexistent/graph.txt").partition(
                "ebv", parts=2
            ).execute()

    def test_unknown_app_fails_before_any_work(self):
        pipe = Pipeline().source(SOURCE).partition("ebv", parts=4).run("bogusapp")
        with pytest.raises(SpecError, match="invalid 'app'"):
            pipe.execute()

    def test_object_kwargs_reach_the_program(self):
        features = np.ones((300, 4))
        result = (
            Pipeline()
            .source(SOURCE)
            .partition("ebv", parts=4)
            .run("featprop", hops=2, features=features)
            .execute()
        )
        assert result.run.values.shape == (300, 4)
        assert result.spec is None  # features are not serializable
        with pytest.raises(SpecError, match="cannot be serialized"):
            Pipeline().source(SOURCE).run("featprop", features=features).spec()

    def test_distributed_graph_is_reusable(self):
        from repro.bsp import BSPEngine
        from repro.pipeline import APPS

        cc = Pipeline().source(SOURCE).partition("ebv", parts=4).run("cc").execute()
        assert cc.distributed is not None
        pr = BSPEngine().run(cc.distributed, APPS.create("pr", cc.graph))
        assert pr.partition_method == cc.partition.method


class TestSpecEquivalence:
    def test_fluent_equals_spec_round_trip(self):
        """PipelineSpec -> to_dict -> from_dict -> run == fluent run."""
        fluent = (
            Pipeline()
            .source("powerlaw", vertices=300, min_degree=2, seed=3)
            .partition("ebv", parts=4)
            .refine()
            .run("cc")
            .execute()
        )
        spec = PipelineSpec.from_dict(fluent.spec.to_dict())
        via_spec = run_spec(spec)
        assert strip_timings(via_spec.to_dict()) == strip_timings(fluent.to_dict())
        # And the runs themselves are value-identical.
        assert np.array_equal(via_spec.run.values, fluent.run.values)

    def test_fluent_kwargs_equal_spec_string(self):
        a = Pipeline().source("powerlaw", vertices=300, seed=3).spec()
        b = Pipeline().source("powerlaw?seed=3,vertices=300").spec()
        assert a == b

    def test_run_spec_accepts_plain_dict(self):
        result = run_spec({"source": SOURCE, "parts": 4, "app": "cc"})
        assert result.run is not None
        assert result.spec.parts == 4

    def test_run_spec_rejects_other_types(self):
        with pytest.raises(SpecError):
            run_spec("powerlaw?vertices=100")

    def test_deterministic_across_executions(self):
        spec = {"source": SOURCE, "parts": 4, "app": "pr"}
        first = strip_timings(run_spec(spec).to_dict())
        second = strip_timings(run_spec(spec).to_dict())
        assert first == second

    def test_to_json_is_machine_consumable(self):
        import json

        result = run_spec({"source": SOURCE, "parts": 4, "app": "cc"})
        payload = json.loads(result.to_json())
        assert set(payload) == {"spec", "graph", "partition", "run", "timings"}
        assert payload["spec"]["app"] == "cc"


class TestBackendStage:
    def test_backend_round_trips_through_spec(self):
        pipe = Pipeline().source(SOURCE).run("cc").backend("process")
        spec = pipe.spec()
        assert spec.backend == "process"
        assert Pipeline.from_spec(spec).spec() == spec

    def test_backend_kwargs_fold_into_spec(self):
        spec = Pipeline().source(SOURCE).backend("thread", max_workers=2).spec()
        assert spec.backend == "thread?max_workers=2"

    def test_backend_rejects_object_kwargs(self):
        with pytest.raises(SpecError, match="must be scalars"):
            Pipeline().source(SOURCE).backend("thread", pool=object())

    def test_unknown_backend_fails_before_any_work(self):
        with pytest.raises(SpecError, match="unknown backend"):
            Pipeline().source(SOURCE).run("cc").backend("gpu").execute()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_backends_match_serial_results(self, backend):
        base = {"source": SOURCE, "parts": 4, "app": "pr"}
        serial = run_spec(dict(base, backend="serial"))
        other = run_spec(dict(base, backend=backend))
        assert other.run.backend == backend
        assert np.array_equal(other.run.values, serial.run.values)
        assert strip_timings(other.to_dict())["run"].pop("backend") == backend
        serial_summary = strip_timings(serial.to_dict())["run"]
        serial_summary.pop("backend")
        assert strip_timings(other.to_dict())["run"] == dict(
            serial_summary, backend=backend
        )

    def test_run_substage_walls_reported_in_timings(self):
        result = run_spec({"source": SOURCE, "parts": 2, "app": "cc"})
        assert "run.compute" in result.timings
        assert "run.exchange" in result.timings
        # Sub-stage walls are components of "run", not extra stages.
        total_of_stages = sum(
            v for k, v in result.timings.items()
            if k != "total" and "." not in k
        )
        assert result.timings["total"] == pytest.approx(total_of_stages)


class TestStreamPipelines:
    """Pipelines whose source is an out-of-core edge stream."""

    @pytest.fixture
    def stream_file(self, tmp_path):
        from repro.graph import powerlaw_graph, write_edge_list

        g = powerlaw_graph(250, eta=2.2, min_degree=2, seed=9, name="pl-bldr")
        path = str(tmp_path / "g.txt")
        write_edge_list(g, path)
        return path, g

    def test_stream_spec_equals_inmemory_partition(self, stream_file):
        path, g = stream_file
        result = run_spec(
            {
                "source": f"edgelist?path={path},chunk_size=100",
                "partition": "ebv-stream?chunk_size=64",
                "parts": 4,
            }
        )
        from repro.partition import StreamingEBVPartitioner

        expected = StreamingEBVPartitioner(chunk_size=64).partition(g, 4)
        assert np.array_equal(result.partition.edge_parts, expected.edge_parts)
        assert result.stream is not None
        assert result.stream["num_edges"] == g.num_edges
        assert "partition.spill" in result.timings
        assert "partition.assemble" in result.timings
        assert "stream" in result.to_dict()

    def test_stream_run_matches_generator_run(self, stream_file):
        """Same edges, same app: stream-sourced == file-sourced values."""
        path, _ = stream_file
        streamed = run_spec(
            {
                "source": f"edgelist?path={path}",
                "partition": "ebv-stream",
                "parts": 2,
                "app": "cc",
            }
        )
        in_memory = (
            Pipeline()
            .source(f"file?path={path}")
            .partition("ebv-stream", parts=2)
            .run("cc")
            .execute()
        )
        assert np.array_equal(streamed.run.values, in_memory.run.values)
        assert streamed.run.num_supersteps == in_memory.run.num_supersteps

    def test_from_stream_with_live_object(self, stream_file):
        path, g = stream_file
        from repro.stream import TextEdgeListStream

        result = (
            Pipeline.from_stream(TextEdgeListStream(path, chunk_size=77))
            .partition("ebv-stream?chunk_size=64", parts=4)
            .execute()
        )
        from repro.partition import StreamingEBVPartitioner

        expected = StreamingEBVPartitioner(chunk_size=64).partition(g, 4)
        assert np.array_equal(result.partition.edge_parts, expected.edge_parts)
        assert result.spec is None  # live objects are not serializable

    def test_live_stream_source_cannot_be_serialized(self, stream_file):
        path, _ = stream_file
        from repro.stream import TextEdgeListStream

        pipe = Pipeline.from_stream(TextEdgeListStream(path))
        with pytest.raises(SpecError, match="cannot be serialized"):
            pipe.spec()

    def test_nonstream_result_has_no_stream_key(self):
        result = Pipeline().source("powerlaw?vertices=200").execute()
        assert result.stream is None
        assert "stream" not in result.to_dict()


class TestStageContract:
    """One ``pipeline.<name>`` span and one ``timings`` key per stage run,
    in execution order."""

    STAGES = ["source", "partition", "refine", "mutate", "distribute", "run"]

    @staticmethod
    def traced_stages(path):
        from repro.obs import load_trace

        spans = sorted(
            (e for e in load_trace(path)["events"] if e["name"].startswith("pipeline.")),
            key=lambda e: e["ts_us"],
        )
        return [e["name"][len("pipeline."):] for e in spans]

    @staticmethod
    def timed_stages(result):
        return [k for k in result.timings if k != "total" and "." not in k]

    def test_every_stage_once_in_order(self, tmp_path):
        trace = str(tmp_path / "stages.json")
        result = (
            Pipeline()
            .source("powerlaw?directed=true,min_degree=2,seed=3,vertices=300")
            .partition("ebv-stream", parts=4)
            .refine()
            .mutate([["insert", 0, 299], ["insert", 5, 17]])
            .run("cc")
            .trace(trace)
            .execute()
        )
        assert self.traced_stages(trace) == self.STAGES
        assert self.timed_stages(result) == self.STAGES
        assert "total" in result.timings

    def test_partition_only_runs_two_stages(self, tmp_path):
        trace = str(tmp_path / "stages.json")
        result = (
            Pipeline().source(SOURCE).partition("ebv", parts=4).trace(trace).execute()
        )
        assert self.traced_stages(trace) == ["source", "partition"]
        assert self.timed_stages(result) == ["source", "partition"]
