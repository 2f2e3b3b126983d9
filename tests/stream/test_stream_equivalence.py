"""Differential harness: out-of-core output == in-memory output, always.

The contract this file locks down: for every partitioner that accepts
streams, feeding the edges chunk-by-chunk through
:func:`repro.stream.stream_partition` — any source, any reader chunk
size — produces an assignment *byte-identical* to running the same
partitioner's in-memory :meth:`partition` on the fully-loaded graph in
the same edge order.  If these tests pass, "out of core" is purely a
memory-footprint property, never a results property.
"""

import numpy as np
import pytest

from repro.bsp import build_distributed_graph
from repro.graph import Graph, powerlaw_graph, write_edge_list
from repro.partition import ShardedEBVPartitioner, StreamingEBVPartitioner
from repro.stream import (
    ArrayEdgeStream,
    NpyEdgeStream,
    TextEdgeListStream,
    save_edge_npy,
    stream_partition,
)


@pytest.fixture(scope="module")
def graph():
    """Small power-law graph: big enough to exercise many windows."""
    return powerlaw_graph(250, eta=2.2, min_degree=2, seed=7, name="pl-diff")


def _spill(stream, partitioner, p, tmp_path, tag):
    return stream_partition(stream, partitioner, p, str(tmp_path / tag))


class TestStreamingEBVDifferential:
    """EBV-stream: every (window, p, reader chunking) combination."""

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("window", [1, 7, "all"])
    def test_chunked_equals_inmemory(self, graph, window, p, tmp_path):
        window = graph.num_edges if window == "all" else window
        partitioner = StreamingEBVPartitioner(chunk_size=window)
        expected = partitioner.partition(graph, p).edge_parts
        for reader_chunk in (1, 7, graph.num_edges):
            spilled = _spill(
                ArrayEdgeStream.from_graph(graph, chunk_size=reader_chunk),
                partitioner, p, tmp_path, f"w{window}-p{p}-r{reader_chunk}",
            )
            assert spilled.edge_parts().tobytes() == expected.tobytes(), (
                f"window={window} p={p} reader_chunk={reader_chunk}"
            )

    def test_reader_chunking_is_invisible(self, graph, tmp_path):
        """Different on-disk chunkings of the same stream: same bytes."""
        partitioner = StreamingEBVPartitioner(chunk_size=13)
        results = []
        for reader_chunk in (1, 7, 64, graph.num_edges):
            spilled = _spill(
                ArrayEdgeStream.from_graph(graph, chunk_size=reader_chunk),
                partitioner, 4, tmp_path, f"r{reader_chunk}",
            )
            results.append(spilled.edge_parts().tobytes())
        assert len(set(results)) == 1


class TestShardedEBVDifferential:
    """EBV-sharded (sort_edges=false): span-fed epochs == offline epochs."""

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("num_shards,sync_interval", [(2, 5), (3, 17)])
    def test_chunked_equals_inmemory(
        self, graph, p, num_shards, sync_interval, tmp_path
    ):
        partitioner = ShardedEBVPartitioner(
            num_shards=num_shards, sync_interval=sync_interval, sort_edges=False
        )
        expected = partitioner.partition(graph, p).edge_parts
        for reader_chunk in (1, 7, graph.num_edges):
            spilled = _spill(
                ArrayEdgeStream.from_graph(graph, chunk_size=reader_chunk),
                partitioner, p, tmp_path,
                f"s{num_shards}-i{sync_interval}-p{p}-r{reader_chunk}",
            )
            assert spilled.edge_parts().tobytes() == expected.tobytes()


class TestSourceEquivalence:
    """Text and npy sources both reproduce the same bytes."""

    def test_all_sources_identical(self, graph, tmp_path):
        partitioner = StreamingEBVPartitioner(chunk_size=32)
        expected = partitioner.partition(graph, 4).edge_parts.tobytes()

        text_path = str(tmp_path / "g.txt")
        write_edge_list(graph, text_path)
        npy_path = str(tmp_path / "g.npy")
        save_edge_npy(npy_path, graph)

        sources = {
            "text": TextEdgeListStream(text_path, chunk_size=23),
            "npy": NpyEdgeStream(npy_path, chunk_size=41),
        }
        for tag, stream in sources.items():
            spilled = _spill(stream, partitioner, 4, tmp_path, tag)
            assert spilled.edge_parts().tobytes() == expected, tag

    def test_sharded_over_npy_with_vertex_hint(self, tmp_path):
        """|V| > max id + 1: the npy hint restores exact-|V| identity.

        EBV-sharded normalizes by exact |V|; a bare edge array only
        reveals the touched ids, so the stream must carry the real
        vertex count for the differential guarantee to hold on graphs
        with isolated trailing vertices.
        """
        rng = np.random.default_rng(5)
        src = rng.integers(0, 50, size=200)
        dst = rng.integers(0, 50, size=200)
        g = Graph(80, src, dst, name="isolated-tail")
        partitioner = ShardedEBVPartitioner(
            num_shards=2, sync_interval=9, sort_edges=False
        )
        expected = partitioner.partition(g, 4).edge_parts
        npy_path = str(tmp_path / "iso.npy")
        save_edge_npy(npy_path, g)
        spilled = _spill(
            NpyEdgeStream(npy_path, chunk_size=33, num_vertices=g.num_vertices),
            partitioner, 4, tmp_path, "iso",
        )
        assert spilled.edge_parts().tobytes() == expected.tobytes()
        assert spilled.assemble().graph.num_vertices == 80

    def test_weighted_stream_round_trips(self, graph, tmp_path):
        weighted = graph.with_weights(
            np.linspace(0.5, 2.5, graph.num_edges)
        )
        partitioner = StreamingEBVPartitioner(chunk_size=19)
        spilled = _spill(
            ArrayEdgeStream.from_graph(weighted, chunk_size=11),
            partitioner, 3, tmp_path, "weighted",
        )
        result = spilled.assemble()
        assert np.array_equal(result.graph.weights, weighted.weights)
        assert (
            result.edge_parts.tobytes()
            == partitioner.partition(weighted, 3).edge_parts.tobytes()
        )


class TestAssembledArtifacts:
    """The objects assembled from shards match the in-memory build."""

    def test_partition_result_matches(self, graph, tmp_path):
        partitioner = StreamingEBVPartitioner(chunk_size=64)
        expected = partitioner.partition(graph, 4)
        spilled = _spill(
            ArrayEdgeStream.from_graph(graph, chunk_size=29),
            partitioner, 4, tmp_path, "pr",
        )
        result = spilled.assemble()
        assert result.method == expected.method
        assert result.num_parts == expected.num_parts
        assert np.array_equal(result.graph.src, graph.src)
        assert np.array_equal(result.graph.dst, graph.dst)
        assert result.graph.num_vertices == graph.num_vertices
        assert result.graph.directed == graph.directed
        assert np.array_equal(result.edge_parts, expected.edge_parts)
        assert np.array_equal(result.edge_counts(), expected.edge_counts())
        for mine, theirs in zip(
            result.vertex_membership(), expected.vertex_membership()
        ):
            assert np.array_equal(mine, theirs)

    def test_distributed_graph_matches(self, graph, tmp_path):
        partitioner = StreamingEBVPartitioner(chunk_size=64)
        reference = build_distributed_graph(partitioner.partition(graph, 4))
        spilled = _spill(
            ArrayEdgeStream.from_graph(graph, chunk_size=37),
            partitioner, 4, tmp_path, "dg",
        )
        dgraph = spilled.to_distributed()
        assert dgraph.num_workers == reference.num_workers
        assert dgraph.partition_method == reference.partition_method
        assert dgraph.replication_factor() == reference.replication_factor()
        for mine, theirs in zip(dgraph.locals, reference.locals):
            assert np.array_equal(mine.global_ids, theirs.global_ids)
            assert np.array_equal(mine.src, theirs.src)
            assert np.array_equal(mine.dst, theirs.dst)
            assert np.array_equal(mine.is_master, theirs.is_master)
            assert np.array_equal(mine.master_worker, theirs.master_worker)
        assert sorted(dgraph.up_routes) == sorted(reference.up_routes)
        for key, route in dgraph.up_routes.items():
            assert np.array_equal(route.src_index, reference.up_routes[key].src_index)
            assert np.array_equal(route.dst_index, reference.up_routes[key].dst_index)

    def test_manifest_reports_stream_facts(self, graph, tmp_path):
        partitioner = StreamingEBVPartitioner(chunk_size=16)
        spilled = _spill(
            ArrayEdgeStream.from_graph(graph, chunk_size=50),
            partitioner, 4, tmp_path, "manifest",
        )
        expected = partitioner.partition(graph, 4)
        assert spilled.num_edges == graph.num_edges
        assert spilled.num_vertices == graph.num_vertices
        assert np.array_equal(spilled.edge_counts, expected.edge_counts())
        from repro.partition import replication_factor

        assert spilled.replication_factor == pytest.approx(
            replication_factor(expected)
        )
