"""Spec parsing, validation and round-trip tests."""

import json

import pytest

from repro.pipeline import PipelineSpec, SpecError


class TestValidation:
    def test_minimal_spec(self):
        spec = PipelineSpec(source="powerlaw?vertices=200")
        assert spec.partition == "ebv"
        assert spec.parts == 8
        assert spec.app is None

    def test_component_specs_are_canonicalized(self):
        spec = PipelineSpec(
            source="POWERLAW?seed=1,vertices=200",
            partition="EBV?beta=1,alpha=2",
            app="pagerank",
        )
        assert spec.source == "powerlaw?seed=1,vertices=200"
        assert spec.partition == "ebv?alpha=2,beta=1"
        assert spec.app == "pr"  # alias resolved to canonical name

    def test_unknown_source_rejected(self):
        with pytest.raises(SpecError, match="invalid 'source'"):
            PipelineSpec(source="bogus?vertices=10")

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(SpecError, match="invalid 'partition'"):
            PipelineSpec(source="powerlaw", partition="bogus")

    def test_unknown_app_rejected(self):
        with pytest.raises(SpecError, match="invalid 'app'"):
            PipelineSpec(source="powerlaw", app="triangles")

    @pytest.mark.parametrize(
        "fields, label, option",
        [({"partition": "ebv?bogus=1"}, "partition", "bogus"),
         ({"partition": "ebv-unsort?bogus=1"}, "partition", "bogus"),
         ({"app": "cc?bogus=1"}, "app", "bogus"),
         ({"backend": "process?start_method=fork"}, "backend", "start_method"),
         ({"source": "edgelist?path=g.txt,bogus=1", "partition": "ebv-stream"},
          "source", "bogus")],
        ids=["partition", "partition-ebv-unsort", "app", "backend", "stream-source"],
    )
    def test_unknown_option_rejected_when_built(self, fields, label, option):
        with pytest.raises(SpecError, match=f"invalid '{label}' spec .*'{option}'"):
            PipelineSpec(**{"source": "powerlaw", **fields})

    def test_malformed_component_spec_rejected(self):
        with pytest.raises(SpecError, match="expected key=value"):
            PipelineSpec(source="powerlaw?vertices")

    @pytest.mark.parametrize("parts", [0, -1, 2.5, "8", True])
    def test_bad_parts_rejected(self, parts):
        with pytest.raises(SpecError, match="parts"):
            PipelineSpec(source="powerlaw", parts=parts)

    def test_refine_dict_normalizes(self):
        spec = PipelineSpec(source="powerlaw", refine={"max_passes": 1})
        assert spec.refine is True
        assert spec.refine_options == {"max_passes": 1}

    def test_bad_refine_rejected(self):
        with pytest.raises(SpecError, match="refine"):
            PipelineSpec(source="powerlaw", refine="yes")

    def test_unknown_cost_model_field_rejected(self):
        with pytest.raises(SpecError, match="cost_model"):
            PipelineSpec(source="powerlaw", cost_model={"bogus_field": 1.0})

    def test_cost_model_builds(self):
        spec = PipelineSpec(
            source="powerlaw", cost_model={"seconds_per_message": 2e-7}
        )
        model = spec.build_cost_model()
        assert model.seconds_per_message == 2e-7
        assert PipelineSpec(source="powerlaw").build_cost_model() is None


class TestRoundTrip:
    def full_spec(self):
        return PipelineSpec(
            source="powerlaw?min_degree=2,seed=3,vertices=300",
            partition="ebv?alpha=2",
            parts=4,
            refine=True,
            refine_options={"max_passes": 1},
            app="cc",
            cost_model={"seconds_per_message": 2e-7},
        )

    def test_to_dict_from_dict_is_stable(self):
        spec = self.full_spec()
        clone = PipelineSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.to_dict() == spec.to_dict()

    def test_json_round_trip(self):
        spec = self.full_spec()
        clone = PipelineSpec.from_json(spec.to_json())
        assert clone == spec
        # to_json is valid, sorted JSON.
        payload = json.loads(spec.to_json())
        assert payload["parts"] == 4

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SpecError, match="unknown pipeline spec keys"):
            PipelineSpec.from_dict({"source": "powerlaw", "partitions": 4})

    def test_from_dict_requires_source(self):
        with pytest.raises(SpecError, match="'source'"):
            PipelineSpec.from_dict({"partition": "ebv"})

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(SpecError, match="JSON object"):
            PipelineSpec.from_dict(["powerlaw"])

    def test_from_json_rejects_invalid_json(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            PipelineSpec.from_json("{not json")


class TestBackendField:
    def test_default_is_serial(self):
        assert PipelineSpec(source="powerlaw").backend == "serial"

    def test_backend_spec_is_canonicalized(self):
        spec = PipelineSpec(source="powerlaw", backend="MP?stage_timeout=120")
        assert spec.backend == "process?stage_timeout=120"
        assert PipelineSpec(source="powerlaw", backend="threads").backend == "thread"

    def test_unknown_backend_rejected_with_available_names(self):
        with pytest.raises(
            SpecError, match="invalid 'backend' spec: unknown backend 'gpu'"
        ) as excinfo:
            PipelineSpec(source="powerlaw", backend="gpu")
        # The message must teach the fix: list what exists.
        assert "process, serial, socket, thread" in str(excinfo.value)

    def test_non_string_backend_rejected(self):
        with pytest.raises(SpecError, match="'backend' must be a spec string"):
            PipelineSpec(source="powerlaw", backend=4)

    def test_backend_round_trips_through_dict_and_json(self):
        spec = PipelineSpec(source="powerlaw", app="pr", backend="process")
        assert spec.to_dict()["backend"] == "process"
        assert PipelineSpec.from_dict(spec.to_dict()) == spec
        assert PipelineSpec.from_json(spec.to_json()) == spec

    def test_documents_without_backend_key_still_load(self):
        """Pre-runtime JSON specs (no 'backend' entry) stay valid."""
        spec = PipelineSpec.from_json(
            json.dumps({"source": "powerlaw?vertices=200", "app": "cc"})
        )
        assert spec.backend == "serial"


class TestStreamSources:
    """Out-of-core stream sources in the 'source' slot."""

    def test_stream_source_accepted_and_canonicalized(self):
        spec = PipelineSpec(
            source="TEXT?path=g.txt,chunk_size=100",
            partition="ebv-stream",
        )
        assert spec.source == "edgelist?chunk_size=100,path=g.txt"
        assert spec.source_is_stream

    def test_generator_source_is_not_a_stream(self):
        assert not PipelineSpec(source="powerlaw?vertices=200").source_is_stream
        assert not PipelineSpec(source="file?path=g.txt").source_is_stream

    def test_npy_stream_source(self):
        spec = PipelineSpec(source="npy?path=g.npy", partition="ebv-stream")
        assert spec.source_is_stream

    def test_unknown_source_lists_both_families(self):
        with pytest.raises(SpecError, match="available streams") as excinfo:
            PipelineSpec(source="bogus?path=x")
        assert "edgelist" in str(excinfo.value)
        assert "powerlaw" in str(excinfo.value)

    def test_stream_source_requires_streaming_partitioner(self):
        with pytest.raises(SpecError, match="cannot consume a stream"):
            PipelineSpec(source="edgelist?path=g.txt", partition="ebv")

    def test_sharded_streams_only_without_sorting(self):
        with pytest.raises(SpecError, match="cannot consume a stream"):
            PipelineSpec(source="edgelist?path=g.txt", partition="ebv-sharded")
        spec = PipelineSpec(
            source="edgelist?path=g.txt",
            partition="ebv-sharded?sort_edges=false",
        )
        assert spec.source_is_stream

    def test_stream_partitioner_is_built_to_ask_whether_it_streams(self):
        """``streams`` is an instance fact, so a bad constructor kwarg is a
        spec error here rather than a failure halfway through the run."""
        with pytest.raises(SpecError, match="invalid 'partition' spec .*bogus"):
            PipelineSpec(source="edgelist?path=g.txt", partition="ebv-stream?bogus=1")
        with pytest.raises(SpecError, match="invalid 'partition' spec .*chunk_size"):
            PipelineSpec(source="edgelist?path=g.txt", partition="ebv-stream?chunk_size=0")

    def test_stream_spec_round_trips(self):
        spec = PipelineSpec(
            source="edgelist?chunk_size=64,path=g.txt",
            partition="ebv-stream?chunk_size=32",
            parts=4,
            app="cc",
        )
        clone = PipelineSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.source_is_stream
