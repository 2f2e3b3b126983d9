"""Unit tests for the out-of-core driver, spill format and re-buffering."""

import json
import os

import numpy as np
import pytest

from repro.graph import Graph, powerlaw_graph
from repro.partition import (
    EBVPartitioner,
    ShardedEBVPartitioner,
    StreamingEBVPartitioner,
)
from repro.pipeline import PARTITIONERS
from repro.stream import (
    ArrayEdgeStream,
    EdgeChunkStream,
    SpilledPartition,
    StreamError,
    stream_partition,
    windows,
)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(120, eta=2.2, min_degree=2, seed=11, name="pl-driver")


class TestWindows:
    def test_rebuffers_to_exact_windows(self):
        chunks = [
            (np.arange(i, i + 3, dtype=np.int64),
             np.arange(i, i + 3, dtype=np.int64) + 1, None)
            for i in range(0, 30, 3)
        ]
        sizes = [s.shape[0] for s, _, _ in windows(iter(chunks), 7)]
        assert sizes == [7, 7, 7, 7, 2]

    def test_concatenation_preserves_order(self):
        src = np.arange(23, dtype=np.int64)
        chunks = [(src[i : i + 4], src[i : i + 4] + 100, None) for i in range(0, 23, 4)]
        out = np.concatenate([s for s, _, _ in windows(iter(chunks), 5)])
        assert np.array_equal(out, src)

    def test_window_larger_than_stream(self):
        out = list(windows(iter([(np.array([1, 2]), np.array([3, 4]), None)]), 100))
        assert len(out) == 1 and out[0][0].shape[0] == 2

    def test_empty_chunks_skipped(self):
        empty = np.empty(0, dtype=np.int64)
        chunks = [(empty, empty, None), (np.array([1]), np.array([2]), None)]
        out = list(windows(iter(chunks), 4))
        assert len(out) == 1

    def test_weights_travel_with_edges(self):
        chunks = [
            (np.array([1, 2]), np.array([3, 4]), np.array([0.1, 0.2])),
            (np.array([5]), np.array([6]), np.array([0.3])),
        ]
        out = list(windows(iter(chunks), 2))
        assert np.allclose(out[0][2], [0.1, 0.2])
        assert np.allclose(out[1][2], [0.3])

    def test_mixed_weighting_rejected(self):
        chunks = [
            (np.array([1]), np.array([2]), None),
            (np.array([3]), np.array([4]), np.array([1.0])),
        ]
        with pytest.raises(StreamError, match="mixes weighted"):
            list(windows(iter(chunks), 10))

    def test_bad_window_rejected(self):
        with pytest.raises(StreamError):
            list(windows(iter([]), 0))


class TestStreamPartition:
    def test_spill_layout(self, graph, tmp_path):
        spill = str(tmp_path / "spill")
        spilled = stream_partition(
            ArrayEdgeStream.from_graph(graph, chunk_size=31),
            StreamingEBVPartitioner(chunk_size=16), 3, spill,
        )
        names = sorted(os.listdir(spill))
        assert "manifest.json" in names
        assert "edge_parts.bin" in names
        assert any(n.startswith("shard_") for n in names)
        total = sum(spilled.part_edges(i)[0].shape[0] for i in range(3))
        assert total == graph.num_edges

    def test_shards_cover_each_edge_once(self, graph, tmp_path):
        spilled = stream_partition(
            ArrayEdgeStream.from_graph(graph, chunk_size=31),
            StreamingEBVPartitioner(chunk_size=16), 4, str(tmp_path / "s"),
        )
        all_eids = np.concatenate(
            [spilled.part_edges(i)[0] for i in range(4)]
        )
        assert np.array_equal(np.sort(all_eids), np.arange(graph.num_edges))

    def test_refuses_overwrite_by_default(self, graph, tmp_path):
        spill = str(tmp_path / "s")
        stream = ArrayEdgeStream.from_graph(graph, chunk_size=31)
        part = StreamingEBVPartitioner(chunk_size=16)
        stream_partition(stream, part, 2, spill)
        with pytest.raises(StreamError, match="overwrite"):
            stream_partition(stream, part, 2, spill)
        stream_partition(stream, part, 2, spill, overwrite=True)

    def test_overwrite_clears_stale_shards(self, graph, tmp_path):
        """A re-spill must not inherit shard files from the previous run.

        The big first run populates every part's shard; the tiny second
        run leaves most parts empty — any stale shard would then crash
        assembly with out-of-range edge ids.
        """
        spill = str(tmp_path / "s")
        stream_partition(
            ArrayEdgeStream.from_graph(graph, chunk_size=31),
            StreamingEBVPartitioner(chunk_size=16), 8, spill,
        )
        tiny = stream_partition(
            ArrayEdgeStream([0, 1], [1, 2]),
            StreamingEBVPartitioner(), 8, spill, overwrite=True,
        )
        assert tiny.num_edges == 2
        result = tiny.assemble()
        assert result.graph.num_edges == 2
        assert sum(tiny.part_edges(i)[0].shape[0] for i in range(8)) == 2

    def test_partial_spill_without_manifest_needs_opt_in(self, graph, tmp_path):
        """Leftovers without a manifest (crashed run) are refused by
        default — the files could equally be someone else's data — and
        cleared only under an explicit overwrite=True."""
        spill = tmp_path / "s"
        spill.mkdir()
        (spill / "shard_00007.bin").write_bytes(b"\x00" * 24)
        (spill / "edge_parts.bin").write_bytes(b"\x00" * 8)
        with pytest.raises(StreamError, match="foreign files"):
            stream_partition(
                ArrayEdgeStream([0, 1], [1, 2]),
                StreamingEBVPartitioner(), 8, str(spill),
            )
        spilled = stream_partition(
            ArrayEdgeStream([0, 1], [1, 2]),
            StreamingEBVPartitioner(), 8, str(spill), overwrite=True,
        )
        assert spilled.edge_parts().shape == (2,)
        assert spilled.part_edges(7)[0].shape == (0,)

    def test_nonempty_foreign_dir_refused_and_untouched(self, graph, tmp_path):
        """A directory holding only files we never wrote is never spilled
        into silently — and the refusal must not delete anything."""
        spill = tmp_path / "precious"
        spill.mkdir()
        (spill / "thesis.tex").write_text("important")
        with pytest.raises(StreamError, match="manifest.json"):
            stream_partition(
                ArrayEdgeStream([0, 1], [1, 2]),
                StreamingEBVPartitioner(), 2, str(spill),
            )
        assert (spill / "thesis.tex").read_text() == "important"
        assert os.listdir(spill) == ["thesis.tex"]

    def test_non_streaming_partitioner_rejected(self, graph, tmp_path):
        with pytest.raises(StreamError, match="does not support streaming"):
            stream_partition(
                ArrayEdgeStream.from_graph(graph),
                EBVPartitioner(), 2, str(tmp_path / "s"),
            )
        assert not (tmp_path / "s").exists()

    def test_sorted_sharded_rejected(self, graph, tmp_path):
        with pytest.raises(ValueError, match="sort_edges"):
            stream_partition(
                ArrayEdgeStream.from_graph(graph),
                ShardedEBVPartitioner(sort_edges=True), 2, str(tmp_path / "s"),
            )

    @pytest.mark.parametrize("reader_chunk", [1, 3, 7, "all"])
    @pytest.mark.parametrize("method", ["ebv-stream", "ebv-sharded?sort_edges=false"])
    def test_manifest_totals_equal_the_graphs(self, graph, tmp_path, method, reader_chunk):
        """|E| and |V| in the manifest are the in-memory graph's for any
        reader chunking, a hinted trailing isolated vertex included, and
        a negative vertex id is refused before it can reach a total."""
        padded = Graph(graph.num_vertices + 1, graph.src, graph.dst, name="padded")
        chunk = padded.num_edges if reader_chunk == "all" else reader_chunk
        spilled = stream_partition(
            ArrayEdgeStream.from_graph(padded, chunk_size=chunk),
            PARTITIONERS.create(method), 3, str(tmp_path / "s"),
        )
        assert (spilled.num_edges, spilled.num_vertices) == (
            padded.num_edges, padded.num_vertices,
        )
        negative = ArrayEdgeStream([0, 1, 2, -1], [1, 2, 0, 0], chunk_size=chunk)
        with pytest.raises(ValueError, match="negative vertex id -1"):
            stream_partition(negative, PARTITIONERS.create(method), 2, str(tmp_path / "neg"))

    def test_empty_stream(self, tmp_path):
        spilled = stream_partition(
            ArrayEdgeStream([], []), StreamingEBVPartitioner(), 3,
            str(tmp_path / "s"),
        )
        assert spilled.num_edges == 0
        assert spilled.edge_parts().shape == (0,)
        result = spilled.assemble()
        assert result.graph.num_edges == 0
        assert result.graph.num_vertices == 1

    def test_single_part(self, graph, tmp_path):
        spilled = stream_partition(
            ArrayEdgeStream.from_graph(graph, chunk_size=17),
            StreamingEBVPartitioner(), 1, str(tmp_path / "s"),
        )
        assert (spilled.edge_parts() == 0).all()

    def test_vertex_count_uses_header_hint(self, tmp_path):
        # A stream whose hint promises more vertices than the edges touch
        # (isolated trailing vertices must survive assembly).
        stream = ArrayEdgeStream([0, 1], [1, 2], name="hinted")
        stream.num_vertices_hint = 10
        spilled = stream_partition(
            stream, StreamingEBVPartitioner(), 2, str(tmp_path / "s")
        )
        assert spilled.num_vertices == 10
        assert spilled.assemble().graph.num_vertices == 10


class TestSpilledPartitionLoad:
    def test_reload_from_directory(self, graph, tmp_path):
        spill = str(tmp_path / "s")
        first = stream_partition(
            ArrayEdgeStream.from_graph(graph, chunk_size=31),
            StreamingEBVPartitioner(chunk_size=16), 3, spill,
        )
        reloaded = SpilledPartition(spill)
        assert reloaded.num_edges == first.num_edges
        assert np.array_equal(reloaded.edge_parts(), first.edge_parts())
        assert np.array_equal(
            reloaded.assemble().edge_parts, first.assemble().edge_parts
        )

    def test_not_a_spill_dir(self, tmp_path):
        with pytest.raises(StreamError):
            SpilledPartition(str(tmp_path))

    def test_part_out_of_range(self, graph, tmp_path):
        spilled = stream_partition(
            ArrayEdgeStream.from_graph(graph), StreamingEBVPartitioner(), 2,
            str(tmp_path / "s"),
        )
        with pytest.raises(StreamError, match="out of range"):
            spilled.part_edges(5)


def _spill(graph, directory, parts=3):
    return stream_partition(
        ArrayEdgeStream.from_graph(graph, chunk_size=31),
        StreamingEBVPartitioner(chunk_size=16), parts, str(directory),
    )


def _shard_rows(spill, part):
    return np.fromfile(os.path.join(spill, f"shard_{part:05d}.bin"), dtype=np.int64).reshape(-1, 3)


class TestDamagedSpill:
    """Every file is read at the manifest's exact size, and assembly
    checks every edge id, so damage raises ``StreamError`` naming it."""

    def test_trailing_partial_record_in_a_shard(self, graph, tmp_path):
        spilled = _spill(graph, tmp_path / "s")
        shard = os.path.join(spilled.directory, "shard_00000.bin")
        with open(shard, "ab") as fh:
            fh.write(b"\x00" * 4)
        with pytest.raises(StreamError, match="shard_00000.bin: holds"):
            spilled.part_edges(0)
        with pytest.raises(StreamError, match="shard_00000.bin"):
            spilled.assemble()

    def test_trailing_byte_in_edge_parts(self, graph, tmp_path):
        spilled = _spill(graph, tmp_path / "s")
        with open(os.path.join(spilled.directory, "edge_parts.bin"), "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(StreamError, match="edge_parts.bin: holds"):
            spilled.edge_parts()

    def test_weighted_spill_without_its_weight_file(self, graph, tmp_path):
        weighted = graph.with_weights(np.arange(graph.num_edges, dtype=float))
        spilled = _spill(weighted, tmp_path / "s")
        assert np.array_equal(spilled.assemble().graph.weights, weighted.weights)
        os.remove(os.path.join(spilled.directory, "shard_00001.w.bin"))
        with pytest.raises(StreamError, match="shard_00001.w.bin"):
            spilled.part_edges(1)

    def test_missing_shard_of_a_nonempty_part(self, graph, tmp_path):
        spilled = _spill(graph, tmp_path / "s")
        os.remove(os.path.join(spilled.directory, "shard_00002.bin"))
        with pytest.raises(StreamError, match="shard_00002.bin"):
            spilled.part_edges(2)

    def _rewrite(self, spilled, part, edit):
        rows = _shard_rows(spilled.directory, part)
        edit(rows)
        rows.tofile(os.path.join(spilled.directory, f"shard_{part:05d}.bin"))

    def test_duplicated_edge_id(self, graph, tmp_path):
        """Same sizes, so only the id check sees it: one slot would be
        written twice and another left as uninitialised memory."""
        spilled = _spill(graph, tmp_path / "s")
        self._rewrite(spilled, 0, lambda rows: rows.__setitem__((1, 0), rows[0, 0]))
        with pytest.raises(StreamError, match="cover"):
            spilled.assemble()

    @pytest.mark.parametrize(
        "column, value, error",
        [(0, -1, "shard 1 holds edge ids"), (0, 10**9, "shard 1 holds edge ids"),
         (1, 10**9, "endpoint out of range"), (2, -1, "endpoint out of range")],
        ids=["eid-negative", "eid-too-big", "src-too-big", "dst-negative"],
    )
    def test_row_out_of_range(self, graph, tmp_path, column, value, error):
        spilled = _spill(graph, tmp_path / "s")
        self._rewrite(spilled, 1, lambda rows: rows.__setitem__((0, column), value))
        with pytest.raises(StreamError, match=error):
            spilled.assemble()

    def test_edge_in_the_wrong_shard(self, graph, tmp_path):
        """Two shards swap one edge id: each id still occurs once."""
        spilled = _spill(graph, tmp_path / "s")
        a, b = _shard_rows(spilled.directory, 0), _shard_rows(spilled.directory, 1)
        a[0, 0], b[0, 0] = b[0, 0], a[0, 0]
        a.tofile(os.path.join(spilled.directory, "shard_00000.bin"))
        b.tofile(os.path.join(spilled.directory, "shard_00001.bin"))
        with pytest.raises(StreamError, match="does not give it"):
            spilled.assemble()

    def test_edge_counts_that_do_not_add_up(self, graph, tmp_path):
        spilled = _spill(graph, tmp_path / "s")
        path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["edge_counts"][0] += 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(StreamError, match="edge_counts"):
            SpilledPartition(spilled.directory)

    @pytest.mark.parametrize(
        "edit, error",
        [(lambda m: {k: v for k, v in m.items() if k != "edge_counts"}, "'edge_counts' is missing"),
         (lambda m: ["not", "an", "object"], "not a spilled-partition manifest"),
         (lambda m: {**m, "edge_counts": "ab"}, "'edge_counts' is missing or mistyped"),
         (lambda m: {**m, "num_parts": True}, "'num_parts' is missing or mistyped"),
         (lambda m: {**m, "version": 2}, "unsupported version 2")],
        ids=["missing-key", "list", "bad-edge-counts", "bool-for-int", "version"],
    )
    def test_valid_json_wrong_manifest(self, graph, tmp_path, edit, error):
        spilled = _spill(graph, tmp_path / "s")
        path = tmp_path / "s" / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(StreamError, match=f"manifest.json.*{error}"):
            SpilledPartition(spilled.directory)


class _FailingStream(EdgeChunkStream):
    """Yield two real chunks, then blow up mid-spill."""

    name = "failing"
    chunk_size = 16

    def __init__(self, graph):
        self.graph = graph

    def chunks(self):
        for start in (0, self.chunk_size):
            stop = start + self.chunk_size
            yield self.graph.src[start:stop], self.graph.dst[start:stop], None
        raise OSError("injected source failure mid-spill")


class TestPartialSpillCleanup:
    """A failed spill must not leave orphan shards behind."""

    def test_failing_source_leaves_no_orphan_shards(self, graph, tmp_path):
        spill = tmp_path / "spill"
        with pytest.raises(OSError, match="injected source failure"):
            stream_partition(
                _FailingStream(graph),
                StreamingEBVPartitioner(chunk_size=8),
                3,
                str(spill),
            )
        # The driver created the directory, so it removes it outright.
        assert not spill.exists()

    def test_preexisting_directory_is_emptied_but_kept(self, graph, tmp_path):
        spill = tmp_path / "spill"
        spill.mkdir()
        keeper = spill / "unrelated.txt"
        keeper.write_text("not a shard")
        # overwrite=True is required now: a non-empty directory without a
        # manifest is refused by default (foreign-file guard).
        with pytest.raises(OSError, match="injected source failure"):
            stream_partition(
                _FailingStream(graph),
                StreamingEBVPartitioner(chunk_size=8),
                3,
                str(spill),
                overwrite=True,
            )
        # Unrelated files survive; every spill artifact is gone.
        assert sorted(os.listdir(spill)) == ["unrelated.txt"]

    def test_failed_spill_dir_is_not_loadable(self, graph, tmp_path):
        spill = tmp_path / "spill"
        spill.mkdir()  # preexisting, so the dir itself remains
        with pytest.raises(OSError, match="injected source failure"):
            stream_partition(
                _FailingStream(graph),
                StreamingEBVPartitioner(chunk_size=8),
                2,
                str(spill),
            )
        with pytest.raises(StreamError):
            SpilledPartition(str(spill))

    def test_successful_spill_after_failure_in_same_dir(self, graph, tmp_path):
        """A clean retry into the same directory works without --overwrite."""
        spill = tmp_path / "spill"
        spill.mkdir()
        with pytest.raises(OSError, match="injected source failure"):
            stream_partition(
                _FailingStream(graph),
                StreamingEBVPartitioner(chunk_size=8),
                2,
                str(spill),
            )
        spilled = stream_partition(
            ArrayEdgeStream.from_graph(graph, chunk_size=16),
            StreamingEBVPartitioner(chunk_size=8),
            2,
            str(spill),
        )
        assert spilled.num_edges == graph.num_edges
        assert int(spilled.edge_counts.sum()) == graph.num_edges
