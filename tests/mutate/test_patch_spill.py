"""patch_spilled_partition: out-of-core shard patching vs the in-memory path."""

import os
import shutil
import tracemalloc

import numpy as np
import pytest

from repro.graph import generate_graph, write_edge_list
from repro.mutate import MutationBatch, MutationError, apply_mutations
from repro.partition import ShardedEBVPartitioner, StreamingEBVPartitioner
from repro.stream import (
    ArrayEdgeStream,
    SpilledPartition,
    StreamError,
    TextEdgeListStream,
    patch_spilled_partition,
    stream_partition,
)


@pytest.fixture
def spilled(directed_graph, tmp_path):
    """The directed fixture graph spilled to per-part shards."""
    edge_file = tmp_path / "graph.txt"
    write_edge_list(directed_graph, str(edge_file))
    stream = TextEdgeListStream(str(edge_file), chunk_size=512)
    return stream_partition(
        stream, StreamingEBVPartitioner(), 4, str(tmp_path / "spill")
    )


def in_memory_reference(spilled, batch, **kwargs):
    part = spilled.assemble()
    return apply_mutations(part, batch, **kwargs)


class TestPatchEquivalence:
    def test_mixed_batch_matches_in_memory_path(
        self, spilled, directed_graph, batch_rng, mixed_batch
    ):
        batch = mixed_batch(directed_graph, batch_rng)
        expect = in_memory_reference(spilled, batch)
        patched, report = patch_spilled_partition(spilled, batch)
        assert report["mode"] == "incremental"
        got = patched.assemble()
        np.testing.assert_array_equal(got.edge_parts, expect.partition.edge_parts)
        np.testing.assert_array_equal(got.graph.src, expect.graph.src)
        np.testing.assert_array_equal(got.graph.dst, expect.graph.dst)
        assert got.graph.num_vertices == expect.graph.num_vertices
        assert report == expect.report()

    def test_insert_only_append_fast_path(self, spilled, directed_graph):
        batch = MutationBatch().insert(0, 17).insert(5, 640).insert(0, 17)
        expect = in_memory_reference(spilled, batch)
        patched, report = patch_spilled_partition(spilled, batch)
        assert report["num_deleted"] == 0
        got = patched.assemble()
        np.testing.assert_array_equal(got.edge_parts, expect.partition.edge_parts)
        assert got.graph.num_edges == directed_graph.num_edges + 3

    def test_delete_only(self, spilled, directed_graph):
        batch = MutationBatch()
        for eid in (0, 7, 100):
            batch.delete(int(directed_graph.src[eid]), int(directed_graph.dst[eid]))
        expect = in_memory_reference(spilled, batch)
        patched, _ = patch_spilled_partition(spilled, batch)
        got = patched.assemble()
        np.testing.assert_array_equal(got.edge_parts, expect.partition.edge_parts)
        np.testing.assert_array_equal(got.graph.src, expect.graph.src)

    def test_empty_batch_keeps_manifest_consistent(self, spilled):
        before = dict(spilled.manifest)
        patched, report = patch_spilled_partition(spilled, MutationBatch())
        assert patched.manifest["num_edges"] == before["num_edges"]
        assert report["num_inserted"] == 0 and report["num_deleted"] == 0

    def test_escape_hatch_respills_full(self, spilled, directed_graph, batch_rng, mixed_batch):
        batch = mixed_batch(directed_graph, batch_rng, n_delete=10, n_insert=30)
        expect = in_memory_reference(spilled, batch, repartition_threshold=0.0)
        assert expect.mode == "repartition"
        patched, report = patch_spilled_partition(
            spilled, batch, repartition_threshold=0.0
        )
        assert report["mode"] == "repartition"
        got = patched.assemble()
        np.testing.assert_array_equal(got.edge_parts, expect.partition.edge_parts)

    @pytest.mark.parametrize("sort_edges", [True, False])
    @pytest.mark.parametrize("threshold", [0.25, 0.0], ids=["incremental", "escape-hatch"])
    def test_sharded_partitioner_is_maintained_by_ebv_stream(
        self, spilled, directed_graph, batch_rng, mixed_batch, sort_edges, threshold
    ):
        """EBV-sharded cannot warm-start, so a default ebv-stream patches
        (and re-spills) for it, as for any other method."""
        batch = mixed_batch(directed_graph, batch_rng)
        expect = in_memory_reference(spilled, batch, repartition_threshold=threshold)
        patched, report = patch_spilled_partition(
            spilled, batch, ShardedEBVPartitioner(sort_edges=sort_edges),
            repartition_threshold=threshold,
        )
        assert report["mode"] == expect.mode
        np.testing.assert_array_equal(patched.assemble().edge_parts, expect.partition.edge_parts)

    def test_delete_nonexistent_leaves_spill_untouched(self, spilled):
        before = dict(spilled.manifest)
        with pytest.raises(MutationError, match="cannot delete"):
            patch_spilled_partition(spilled, MutationBatch().delete(999999, 999998))
        reopened = SpilledPartition(spilled.directory)
        assert reopened.manifest["num_edges"] == before["num_edges"]

    def test_patched_spill_reopens_from_disk(self, spilled, directed_graph):
        batch = MutationBatch().insert(1, 2).delete(
            int(directed_graph.src[3]), int(directed_graph.dst[3])
        )
        patched, _ = patch_spilled_partition(spilled, batch)
        reopened = SpilledPartition(patched.directory)
        assert reopened.manifest == patched.manifest
        for p in range(reopened.manifest["num_parts"]):
            a, b = patched.part_edges(p), reopened.part_edges(p)
            for x, y in zip(a, b):
                if x is None or y is None:
                    assert x is None and y is None
                else:
                    np.testing.assert_array_equal(x, y)

    def test_undirected_spill_rejected(self, small_powerlaw, tmp_path):
        edge_file = tmp_path / "und.txt"
        write_edge_list(small_powerlaw, str(edge_file))
        stream = TextEdgeListStream(str(edge_file), chunk_size=512)
        sp = stream_partition(
            stream, StreamingEBVPartitioner(), 2, str(tmp_path / "und.spill")
        )
        with pytest.raises(MutationError, match="directed"):
            patch_spilled_partition(sp, MutationBatch().insert(0, 1))


class TestTornPatch:
    def test_crash_after_the_first_rename_is_detected(self, spilled, directed_graph, monkeypatch):
        """Delete (u, v) + insert (u, v'), killed after the first rename:
        the old manifest sits beside one re-densified shard whose row
        count still matches it, so only the edge-id check can tell."""
        # Shard 0 neither loses the deleted edge nor gains the insert, so
        # its rewrite (the first rename) keeps the old size, ids shifted.
        eid = int(spilled.part_edges(1)[0][0])
        u, v = int(directed_graph.src[eid]), int(directed_graph.dst[eid])
        batch = MutationBatch().delete(u, v).insert(u, (v + 1) % directed_graph.num_vertices)
        real_replace, calls = os.replace, []

        def crash_after_first(src, dst):
            if calls:
                raise KeyboardInterrupt("crash injected mid-publish")
            calls.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_after_first)
        with pytest.raises(KeyboardInterrupt):
            patch_spilled_partition(spilled, batch)
        monkeypatch.undo()
        assert [os.path.basename(path) for path in calls] == ["shard_00000.bin"]
        torn = SpilledPartition(spilled.directory)
        assert torn.manifest == spilled.manifest
        for part in range(torn.num_parts):  # every file still has its size
            torn.part_edges(part)
        with pytest.raises(StreamError):
            torn.assemble()

    def test_a_failed_patch_leaves_no_temporaries(self, spilled, directed_graph, monkeypatch):
        """Stray temporaries would count in a later patch's bytes_spilled."""
        before = sorted(os.listdir(spilled.directory))
        batch = MutationBatch().insert(0, 17).delete(
            int(directed_graph.src[3]), int(directed_graph.dst[3])
        )

        def no_space(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", no_space)
        with pytest.raises(OSError, match="no space"):
            patch_spilled_partition(spilled, batch)
        monkeypatch.undo()
        assert sorted(os.listdir(spilled.directory)) == before
        assert SpilledPartition(spilled.directory).assemble().graph.num_edges == spilled.num_edges


class TestPatchMemory:
    def test_a_delete_still_holds_one_shard_at_a_time(self, tmp_path):
        """A delete shifts the ids of nearly every shard, so nearly every
        shard is rewritten; the peak must stay that of an insert-only
        patch, not grow with every shard's survivors."""
        graph = generate_graph(
            kind="powerlaw", vertices=20_000, min_degree=3, seed=42, directed=True
        )
        assert graph.num_edges > 95_000
        base = stream_partition(
            ArrayEdgeStream.from_graph(graph), StreamingEBVPartitioner(), 8,
            str(tmp_path / "base"),
        )
        eid = graph.num_edges // 2
        batches = {
            "insert": MutationBatch().insert(1, 2),
            "delete": MutationBatch().insert(1, 2).delete(int(graph.src[eid]), int(graph.dst[eid])),
        }
        peaks = {}
        for name, batch in batches.items():
            spilled = SpilledPartition(shutil.copytree(base.directory, tmp_path / name))
            tracemalloc.start()
            try:
                _, report = patch_spilled_partition(spilled, batch)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report["mode"] == "incremental"
        assert peaks["delete"] <= 1.25 * peaks["insert"], peaks
