"""Pipeline-layer checkpoint integration: spec, builder, resume, spill reuse."""

import json
import os

import numpy as np
import pytest

from repro.checkpoint import list_snapshots
from repro.graph import powerlaw_graph, write_edge_list
from repro.pipeline import (
    Pipeline,
    PipelineSpec,
    SpecError,
    resume_pipeline,
    run_spec,
)
from repro.pipeline import builder as builder_module


# ----------------------------------------------------------------------
# Spec validation + round trip
# ----------------------------------------------------------------------


def test_checkpoint_string_normalizes_to_dict():
    spec = PipelineSpec(source="powerlaw?vertices=100", app="cc", checkpoint="ck")
    assert spec.checkpoint == {"dir": "ck", "every": 1, "keep": 2}


def test_checkpoint_round_trips_through_json():
    spec = PipelineSpec(
        source="powerlaw?vertices=100",
        app="cc",
        checkpoint={"dir": "ck", "every": 3, "keep": None},
    )
    reloaded = PipelineSpec.from_json(spec.to_json())
    assert reloaded.checkpoint == {"dir": "ck", "every": 3, "keep": None}
    assert reloaded.to_dict() == spec.to_dict()


def test_checkpoint_none_round_trips():
    spec = PipelineSpec(source="powerlaw?vertices=100")
    assert spec.checkpoint is None
    assert PipelineSpec.from_json(spec.to_json()).checkpoint is None


@pytest.mark.parametrize(
    "bad",
    [
        42,
        {"every": 1},  # no dir
        {"dir": ""},
        {"dir": "ck", "every": 0},
        {"dir": "ck", "every": True},
        {"dir": "ck", "keep": 0},
        {"dir": "ck", "nope": 1},
    ],
)
def test_invalid_checkpoint_specs_are_rejected(bad):
    with pytest.raises(SpecError):
        PipelineSpec(source="powerlaw?vertices=100", app="cc", checkpoint=bad)


def test_fluent_checkpoint_serializes_into_the_spec():
    pipe = (
        Pipeline()
        .source("powerlaw?vertices=100")
        .partition("ebv", parts=2)
        .run("cc")
        .checkpoint("ck", every=2, keep=None)
    )
    assert pipe.spec().checkpoint == {"dir": "ck", "every": 2, "keep": None}
    # and .checkpoint(None) disables it again
    assert pipe.checkpoint(None).spec().checkpoint is None


# ----------------------------------------------------------------------
# Execution + resume
# ----------------------------------------------------------------------


def _spec(ckpt_dir, **overrides):
    base = dict(
        source="powerlaw?vertices=300,seed=17",
        partition="ebv",
        parts=2,
        app="pr?pagerank_iters=6",
        checkpoint={"dir": str(ckpt_dir), "every": 2, "keep": None},
    )
    base.update(overrides)
    return PipelineSpec(**base)


def test_checkpointed_pipeline_writes_spec_and_snapshots(tmp_path):
    root = tmp_path / "ck"
    result = run_spec(_spec(root))
    assert result.checkpoint_dir == str(root)
    assert result.run.resumed_from is None
    # The serialized spec lands next to the snapshots...
    saved = json.load(open(root / "pipeline.json"))
    assert PipelineSpec.from_dict(saved).to_dict() == result.spec.to_dict()
    # ...and snapshots exist at the cadence plus the final boundary.
    assert [os.path.basename(s) for s in list_snapshots(str(root))] == [
        "step-000002", "step-000004", "step-000006",
    ]


def test_resume_pipeline_reproduces_the_run(tmp_path):
    root = tmp_path / "ck"
    golden = run_spec(_spec(root))
    resumed = resume_pipeline(str(root))
    assert resumed.run.resumed_from == golden.run.num_supersteps
    assert resumed.run.num_supersteps == golden.run.num_supersteps
    assert resumed.run.total_messages == golden.run.total_messages
    assert np.array_equal(resumed.run.values, golden.run.values, equal_nan=True)
    assert resumed.run.comp == golden.run.comp
    assert resumed.run.comm == golden.run.comm
    # The machine-readable summaries agree on every deterministic field.
    a, b = resumed.to_dict()["run"], golden.to_dict()["run"]
    for key in set(a) - {"resumed_from"}:
        assert a[key] == b[key], key


def test_resume_pipeline_from_mid_run_snapshot(tmp_path):
    """Resume from an intermediate boundary (as after a real crash)."""
    root = tmp_path / "ck"
    golden = run_spec(_spec(root))
    # Drop the later snapshots: the run now looks crashed after step 2.
    import shutil

    for snap in list_snapshots(str(root))[1:]:
        shutil.rmtree(snap)
    resumed = resume_pipeline(str(root))
    assert resumed.run.resumed_from == 2
    assert resumed.run.num_supersteps == golden.run.num_supersteps
    assert np.array_equal(resumed.run.values, golden.run.values)
    assert resumed.run.comp == golden.run.comp


def test_resume_requires_pipeline_json(tmp_path):
    with pytest.raises(SpecError, match="pipeline.json"):
        resume_pipeline(str(tmp_path))


def test_resume_requires_an_app(tmp_path):
    root = tmp_path / "ck"
    root.mkdir()
    spec = PipelineSpec(source="powerlaw?vertices=100", checkpoint=str(root))
    (root / "pipeline.json").write_text(spec.to_json())
    with pytest.raises(SpecError, match="no app stage"):
        resume_pipeline(str(root))


def test_execute_resume_from_requires_checkpoint_config():
    pipe = Pipeline().source("powerlaw?vertices=100").run("cc")
    with pytest.raises(SpecError, match="resume_from requires a checkpointed"):
        pipe.execute(resume_from="somewhere")


# ----------------------------------------------------------------------
# Stream sources: persistent spill, reused on resume
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    g = powerlaw_graph(600, eta=2.2, min_degree=2, seed=23, name="stream-ck")
    path = tmp_path_factory.mktemp("stream") / "g.txt"
    write_edge_list(g, str(path))
    return str(path)


def _stream_spec(edge_file, ckpt_dir):
    return PipelineSpec(
        source=f"edgelist?path={edge_file},chunk_size=256",
        partition="ebv-stream",
        parts=2,
        app="cc",
        checkpoint={"dir": str(ckpt_dir), "every": 1, "keep": None},
    )


def test_stream_spill_is_persistent_under_the_checkpoint_root(tmp_path, edge_file):
    root = tmp_path / "ck"
    result = run_spec(_stream_spec(edge_file, root))
    assert result.stream["spill_reused"] is False
    assert os.path.isfile(root / "spill" / "manifest.json")
    assert "partition.spill" in result.timings


def test_resume_reuses_spill_and_skips_repartitioning(
    tmp_path, edge_file, monkeypatch
):
    root = tmp_path / "ck"
    golden = run_spec(_stream_spec(edge_file, root))

    def boom(*args, **kwargs):  # resume must never re-partition
        raise AssertionError("stream_partition called during resume")

    monkeypatch.setattr(builder_module, "stream_partition", boom)
    resumed = resume_pipeline(str(root))
    assert resumed.stream["spill_reused"] is True
    assert "partition.spill" not in resumed.timings
    assert np.array_equal(resumed.run.values, golden.run.values)
    assert resumed.run.num_supersteps == golden.run.num_supersteps
    assert resumed.run.total_messages == golden.run.total_messages


def test_checkpointing_unserializable_pipeline_warns(tmp_path):
    """In-memory sources cannot produce pipeline.json; say so up front."""
    g = powerlaw_graph(150, eta=2.2, min_degree=2, seed=3, name="mem")
    pipe = (
        Pipeline().source(g).partition("ebv", parts=2).run("cc")
        .checkpoint(str(tmp_path / "ck"))
    )
    with pytest.warns(UserWarning, match="repro.?resume|pipeline.json"):
        result = pipe.execute()
    # Engine snapshots are still written and in-process resume works.
    assert list_snapshots(str(tmp_path / "ck"))
    resumed = pipe.execute(resume_from=str(tmp_path / "ck"))
    assert resumed.run.resumed_from == result.run.num_supersteps


def _tear_manifest(spill):
    (spill / "manifest.json").write_text('{"format": "repro-stream-partition", ')


def _duplicate_an_edge_id(spill):
    """Same size, so only assembly's edge-id check sees it (a torn patch)."""
    shard = spill / "shard_00000.bin"
    rows = np.fromfile(shard, dtype=np.int64).reshape(-1, 3)
    rows[1, 0] = rows[0, 0]
    rows.tofile(shard)


def _edit_manifest(edit):  # valid JSON, wrong content
    def damage(spill):
        manifest = json.loads((spill / "manifest.json").read_text())
        (spill / "manifest.json").write_text(json.dumps(edit(manifest)))
    return damage


@pytest.mark.parametrize(
    "damage",
    [_tear_manifest, _duplicate_an_edge_id,
     _edit_manifest(lambda m: {k: v for k, v in m.items() if k != "edge_counts"}),
     _edit_manifest(lambda m: ["not", "an", "object"]),
     _edit_manifest(lambda m: {**m, "edge_counts": "ab"}),
     lambda spill: (spill / "manifest.json").write_bytes(b'{"format": "\xff"}')],
    ids=["manifest", "shard", "manifest-missing-key", "manifest-list", "manifest-bad-counts",
         "manifest-not-utf8"],
)
def test_resume_with_damaged_spill_manifest_respills(tmp_path, edge_file, damage):
    """A spill torn by the crash falls back to a deterministic re-spill."""
    root = tmp_path / "ck"
    golden = run_spec(_stream_spec(edge_file, root))
    damage(root / "spill")
    resumed = resume_pipeline(str(root))
    assert resumed.stream["spill_reused"] is False
    assert "partition.spill" in resumed.timings
    assert np.array_equal(resumed.run.values, golden.run.values)
    assert resumed.run.total_messages == golden.run.total_messages
