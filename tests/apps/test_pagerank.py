"""PageRank validated against the sequential reference and networkx."""

import numpy as np
import pytest

from repro.apps import PageRank, pagerank_reference
from repro.bsp import BSPEngine, build_distributed_graph
from repro.bsp.distributed import LocalSubgraph
from repro.graph import Graph
from repro.partition import (
    CVCPartitioner,
    DBHPartitioner,
    EBVPartitioner,
    GingerPartitioner,
    MetisLikePartitioner,
    NEPartitioner,
)

ALL = [
    EBVPartitioner,
    GingerPartitioner,
    DBHPartitioner,
    CVCPartitioner,
    NEPartitioner,
    MetisLikePartitioner,
]


@pytest.mark.parametrize("cls", ALL)
def test_pagerank_matches_reference(cls, small_directed_powerlaw):
    g = small_directed_powerlaw
    ref = pagerank_reference(g, max_iters=15)
    dg = build_distributed_graph(cls().partition(g, 4))
    run = BSPEngine().run(dg, PageRank(g.num_vertices, max_iters=15))
    assert np.allclose(run.values, ref, atol=1e-12)


def test_pagerank_matches_networkx_on_undirected(small_powerlaw):
    # An undirected-doubled graph with no isolated vertices has no
    # dangling nodes, so networkx's dangling redistribution is a no-op
    # and the two formulations coincide.  Compact away isolated
    # vertices first.
    networkx = pytest.importorskip("networkx")
    g0 = small_powerlaw
    covered = np.unique(np.concatenate([g0.src, g0.dst]))
    remap = np.full(g0.num_vertices, -1, dtype=np.int64)
    remap[covered] = np.arange(covered.size)
    g = Graph(
        covered.size, remap[g0.src], remap[g0.dst], directed=False, name="compact"
    )
    G = networkx.DiGraph(list(zip(g.src.tolist(), g.dst.tolist())))
    nx_pr = networkx.pagerank(G, alpha=0.85, max_iter=500, tol=1e-13)
    dg = build_distributed_graph(EBVPartitioner().partition(g, 4))
    run = BSPEngine().run(
        dg, PageRank(g.num_vertices, max_iters=500, tol=1e-13)
    )
    for v in range(g.num_vertices):
        assert run.values[v] == pytest.approx(nx_pr[v], rel=1e-5)


def test_pagerank_sums_to_at_most_one(small_directed_powerlaw):
    g = small_directed_powerlaw
    dg = build_distributed_graph(EBVPartitioner().partition(g, 4))
    run = BSPEngine().run(dg, PageRank(g.num_vertices, max_iters=20))
    total = run.values.sum()
    assert 0.2 < total <= 1.0 + 1e-9  # dangling mass leaks, never grows


def test_pagerank_iteration_cap():
    g = Graph.from_undirected_edges([(0, 1), (1, 2)], num_vertices=3)
    dg = build_distributed_graph(EBVPartitioner().partition(g, 2))
    run = BSPEngine().run(dg, PageRank(3, max_iters=5, tol=0.0))
    assert run.num_supersteps == 5


def test_pagerank_tol_stops_early():
    g = Graph.from_undirected_edges([(0, 1), (1, 2)], num_vertices=3)
    dg = build_distributed_graph(EBVPartitioner().partition(g, 2))
    run = BSPEngine().run(dg, PageRank(3, max_iters=500, tol=1e-6))
    assert run.num_supersteps < 500


def test_pagerank_uniform_on_cycle():
    # Symmetric cycle: stationary distribution is uniform.
    n = 8
    g = Graph.from_edges([(i, (i + 1) % n) for i in range(n)], num_vertices=n)
    dg = build_distributed_graph(EBVPartitioner().partition(g, 2))
    run = BSPEngine().run(dg, PageRank(n, max_iters=200, tol=1e-14))
    assert np.allclose(run.values, 1.0 / n, atol=1e-10)


def test_pagerank_validates_damping():
    with pytest.raises(ValueError):
        PageRank(10, damping=1.5)
    with pytest.raises(ValueError):
        PageRank(10, damping=0.0)


def test_pagerank_messages_every_superstep(small_directed_powerlaw):
    g = small_directed_powerlaw
    dg = build_distributed_graph(DBHPartitioner().partition(g, 4))
    run = BSPEngine().run(dg, PageRank(g.num_vertices, max_iters=5, tol=0.0))
    # Unlike CC, PR communicates continuously: every superstep sends.
    assert all(s.sent.sum() > 0 for s in run.supersteps)


def test_reference_deterministic(small_directed_powerlaw):
    a = pagerank_reference(small_directed_powerlaw, max_iters=10)
    b = pagerank_reference(small_directed_powerlaw, max_iters=10)
    assert np.array_equal(a, b)



def _shard(src, dst, n=3):
    """A one-worker subgraph of ``n`` vertices over the given edge arrays."""
    return LocalSubgraph(
        worker_id=0,
        global_ids=np.arange(n, dtype=np.int64),
        src=src,
        dst=dst,
        weights=None,
        is_master=np.ones(n, dtype=bool),
        master_worker=np.zeros(n, dtype=np.int64),
        global_out_degree=np.ones(n, dtype=np.int64),
    )


@pytest.mark.parametrize(
    "src, dst, message",
    [
        (np.array([0, 1]), np.array([1, 3]), "dst indexes outside"),
        (np.array([-1, 1]), np.array([1, 2]), "src indexes outside"),
        (np.array([0, 1], dtype=np.int32), np.array([1, 2]), "src must be a C-contiguous int64"),
        (np.array([0, 9, 1])[::2], np.array([1, 2]), "src must be a C-contiguous int64"),
        (np.array([0, 1]), np.array([1]), "dst must have 2 entries"),
    ],
    ids=["dst-past-n", "negative-src", "int32", "strided", "ragged"],
)
def test_the_edge_pass_refuses_edges_it_could_not_index(src, dst, message):
    """The C kernel indexes unchecked, so its wrapper checks the edges first."""
    with pytest.raises(ValueError, match=message):
        PageRank(3).compute(_shard(src, dst), np.full(3, 1 / 3), None)


def test_the_edge_pass_checks_a_subgraph_once():
    local = _shard(np.array([0, 1, 2]), np.array([1, 2, 0]))
    PageRank(3).compute(local, np.full(3, 1 / 3), None)
    first = local.checked_edges()
    assert local.checked_edges() is first
    assert first[0] is local.src and first[1] is local.dst
