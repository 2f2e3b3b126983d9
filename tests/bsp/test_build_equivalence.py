"""Equivalence: vectorized distributed-graph build vs. the legacy loop build.

The vectorized :func:`build_distributed_graph` must produce *byte
identical* local subgraphs and replica routes to the original
per-vertex Python implementation, across both partition families
(vertex-cut and edge-cut), every partitioner the paper compares and
every generator kind, including graphs
with isolated vertices and edge weights.
"""

import numpy as np
import pytest

from legacy_build import build_distributed_graph_legacy
from repro.bsp.distributed import build_distributed_graph
from repro.graph import Graph, generate_graph
from repro.partition import (
    CVCPartitioner,
    DBHPartitioner,
    EBVPartitioner,
    GingerPartitioner,
    MetisLikePartitioner,
    NEPartitioner,
    PartitionResult,
)


def assert_builds_identical(result: PartitionResult) -> None:
    new = build_distributed_graph(result)
    old = build_distributed_graph_legacy(result)

    assert new.num_workers == old.num_workers
    assert new.partition_method == old.partition_method
    for ln, lo in zip(new.locals, old.locals):
        assert ln.worker_id == lo.worker_id
        assert np.array_equal(ln.global_ids, lo.global_ids)
        assert ln.global_ids.dtype == lo.global_ids.dtype
        assert np.array_equal(ln.src, lo.src)
        assert np.array_equal(ln.dst, lo.dst)
        assert ln.src.dtype == lo.src.dtype
        if lo.weights is None:
            assert ln.weights is None
        else:
            assert np.array_equal(ln.weights, lo.weights)
        assert np.array_equal(ln.is_master, lo.is_master)
        assert np.array_equal(ln.master_worker, lo.master_worker)
        assert np.array_equal(ln.global_out_degree, lo.global_out_degree)

    assert set(new.up_routes) == set(old.up_routes)
    assert set(new.down_routes) == set(old.down_routes)
    for key, route in old.up_routes.items():
        assert np.array_equal(new.up_routes[key].src_index, route.src_index)
        assert np.array_equal(new.up_routes[key].dst_index, route.dst_index)
    for key, route in old.down_routes.items():
        assert np.array_equal(new.down_routes[key].src_index, route.src_index)
        assert np.array_equal(new.down_routes[key].dst_index, route.dst_index)


GRAPHS = {
    "powerlaw": lambda: generate_graph("powerlaw", vertices=600, seed=11),
    "road": lambda: generate_graph("road", vertices=400, seed=12),
    "rmat": lambda: generate_graph("rmat", vertices=512, edge_factor=4, seed=13),
    "er": lambda: generate_graph("er", vertices=400, seed=14),
    "ba": lambda: generate_graph("ba", vertices=300, seed=15),
}

# The six algorithms the paper compares (``PAPER_PARTITIONERS``).
PARTITIONERS = {
    "ebv": EBVPartitioner,
    "ginger": GingerPartitioner,
    "dbh": DBHPartitioner,
    "cvc": CVCPartitioner,
    "ne": NEPartitioner,
    "metis-like": MetisLikePartitioner,
}


@pytest.mark.parametrize("graph_kind", sorted(GRAPHS))
@pytest.mark.parametrize("method", sorted(PARTITIONERS))
@pytest.mark.parametrize("p", [2, 7])
def test_generator_suite_equivalence(graph_kind, method, p):
    graph = GRAPHS[graph_kind]()
    result = PARTITIONERS[method]().partition(graph, p)
    assert_builds_identical(result)


def test_equivalence_with_isolated_vertices():
    g = Graph.from_edges([(0, 1), (2, 3)], num_vertices=9)
    result = EBVPartitioner().partition(g, 3)
    assert_builds_identical(result)


def test_equivalence_with_many_isolated_vertices():
    """Every worker receives unhosted vertices next to hosted ones."""
    base = generate_graph("powerlaw", vertices=300, seed=21)
    g = Graph(base.num_vertices + 40, base.src, base.dst)
    result = DBHPartitioner().partition(g, 4)
    locals_ = build_distributed_graph(result).locals
    assert all(np.isin(np.arange(300, 340), local.global_ids).any() for local in locals_)
    assert_builds_identical(result)


def test_equivalence_single_part():
    g = generate_graph("er", vertices=100, seed=5)
    result = DBHPartitioner().partition(g, 1)
    assert_builds_identical(result)


@pytest.mark.parametrize("method", ["ebv", "metis-like"])
def test_equivalence_on_sparse_fallback_paths(method, monkeypatch):
    """Force the large-scale (sorted-key / searchsorted) code paths."""
    import repro.bsp.distributed as dist
    import repro.partition.base as base

    monkeypatch.setattr(dist, "_DENSE_CELLS", 0)
    monkeypatch.setattr(base, "_DENSE_CELLS", 0)
    graph = GRAPHS["powerlaw"]()
    result = PARTITIONERS[method]().partition(graph, 5)
    assert_builds_identical(result)


def test_equivalence_master_tie_break():
    # Vertex 0 has exactly one edge in each part: the master must land on
    # the smallest worker id under both implementations.
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3)], num_vertices=4)
    result = PartitionResult(
        g, 3, edge_parts=np.array([2, 1, 0]), method="manual"
    )
    assert_builds_identical(result)
    dg = build_distributed_graph(result)
    for local in dg.locals:
        j = int(np.searchsorted(local.global_ids, 0))
        assert local.master_worker[j] == 0
