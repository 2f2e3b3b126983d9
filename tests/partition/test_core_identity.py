"""Byte identity: the three EBV fronts over ``EBVCore`` vs the old loops.

``oracles.py`` keeps the three per-edge loops the core replaced,
verbatim.  Every front must reproduce its oracle's assignment exactly —
not approximately: one flipped last-ulp tie cascades through everything
after it — on graphs with self loops and duplicate edges, and for
``p = 67`` parts so no 64-bit packed-word shortcut can hide in the
replica bitmap.
"""

import numpy as np
import pytest

from oracles import (
    OracleEBV,
    OracleStreamingAssigner,
    oracle_sharded_partition,
    oracle_stream_partition,
)
from repro.graph import Graph, generate_graph
from repro.partition import (
    EBVPartitioner,
    ShardedEBVPartitioner,
    StreamingEBVPartitioner,
)
from repro.partition.ebv import SORT_ORDERS

PARTS = (1, 2, 8, 67)
WEIGHTS = ((1.0, 1.0), (100.0, 1e-9), (1e-9, 1e-9))


def _with_loops_and_duplicates(graph: Graph, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    loops = rng.integers(0, graph.num_vertices, size=12)
    dups = rng.integers(0, graph.num_edges, size=24)
    src = np.concatenate([graph.src, loops, graph.src[dups]])
    dst = np.concatenate([graph.dst, loops, graph.dst[dups]])
    shuffle = rng.permutation(src.shape[0])
    return Graph(graph.num_vertices, src[shuffle], dst[shuffle], name=graph.name)


# rmat is ~20 edges/vertex; keep it small, the sharded oracle recounts
# every vertex mask in python once per epoch
@pytest.fixture(scope="module", params=[("powerlaw", 256), ("rmat", 64), ("road", 256)],
                ids=lambda kind_size: kind_size[0])
def graph(request):
    kind, vertices = request.param
    base = generate_graph(kind, vertices=vertices, seed=11, name=kind)
    return _with_loops_and_duplicates(base, seed=17)


@pytest.mark.parametrize("num_parts", PARTS)
@pytest.mark.parametrize("alpha,beta", WEIGHTS)
@pytest.mark.parametrize("track_growth", [False, True])
@pytest.mark.parametrize("sort_order", SORT_ORDERS)
def test_ebv_equals_parent_loop(graph, sort_order, track_growth, alpha, beta, num_parts):
    config = dict(
        alpha=alpha, beta=beta, sort_order=sort_order, track_growth=track_growth, seed=5
    )
    want_parts, want_trace = OracleEBV(**config).run(graph, num_parts)
    ebv = EBVPartitioner(**config)
    got = ebv.partition(graph, num_parts)
    assert got.edge_parts.tobytes() == want_parts.tobytes()
    if track_growth:
        assert ebv.last_trace.tobytes() == want_trace.tobytes()
    else:
        assert ebv.last_trace is None


@pytest.mark.parametrize("num_parts", PARTS)
@pytest.mark.parametrize("chunk_size", [1, 256, 4096])
def test_stream_equals_parent_loop(graph, chunk_size, num_parts):
    got = StreamingEBVPartitioner(chunk_size=chunk_size).partition(graph, num_parts)
    want = oracle_stream_partition(graph, num_parts, chunk_size)
    assert got.edge_parts.tobytes() == want.tobytes()


@pytest.mark.parametrize("num_parts", PARTS)
def test_seeded_stream_equals_parent_loop(graph, num_parts):
    """Warm start: seed shard by shard, then assign — as ``patch.py`` does."""
    half = graph.num_edges // 2
    src, dst = graph.src, graph.dst
    old_parts = np.arange(half, dtype=np.int64) % num_parts
    oracle = OracleStreamingAssigner(num_parts, 64, 1.0, 1.0)
    oracle.seed(src[:half], dst[:half], old_parts, num_vertices=graph.num_vertices)
    assigner = StreamingEBVPartitioner(chunk_size=64).streamer(num_parts)
    for part in range(num_parts):
        rows = old_parts == part
        assigner.seed(src[:half][rows], dst[:half][rows], old_parts[rows])
    for start in range(half, graph.num_edges, 64):
        window = slice(start, start + 64)
        got = assigner.assign(src[window], dst[window])
        assert got.tobytes() == oracle.assign(src[window], dst[window]).tobytes()
    assert assigner.replication_factor() == oracle.replication_factor()
    n = graph.num_vertices
    assert assigner.replication_factor(n) == oracle.replication_factor(n)


@pytest.mark.parametrize("num_parts", PARTS)
@pytest.mark.parametrize("sync_interval", [1, 64, 4096])
@pytest.mark.parametrize("num_shards", [1, 3, 4])
@pytest.mark.parametrize("sort_edges", [True, False])
def test_sharded_equals_parent_loop(graph, sort_edges, num_shards, sync_interval, num_parts):
    got = ShardedEBVPartitioner(
        num_shards=num_shards, sync_interval=sync_interval, sort_edges=sort_edges
    ).partition(graph, num_parts)
    want = oracle_sharded_partition(
        graph, num_parts, num_shards, sync_interval, sort_edges
    )
    assert got.edge_parts.tobytes() == want.tobytes()
