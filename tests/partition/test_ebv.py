"""Unit tests for the EBV partitioner (Algorithm 1)."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.partition import (
    EBVPartitioner,
    edge_imbalance_factor,
    edge_processing_order,
    replication_factor,
    vertex_imbalance_factor,
)
from repro.partition.ebv import degree_sum_order


class TestEdgeProcessingOrder:
    def test_input_order_is_identity(self, tiny_graph):
        order = edge_processing_order(tiny_graph, "input")
        assert order.tolist() == list(range(tiny_graph.num_edges))

    def test_ascending_sorts_by_degree_sum(self, tiny_graph):
        order = edge_processing_order(tiny_graph, "ascending")
        deg = tiny_graph.degrees()
        keys = deg[tiny_graph.src[order]] + deg[tiny_graph.dst[order]]
        assert np.all(np.diff(keys) >= 0)

    def test_descending_reverses(self, tiny_graph):
        asc = edge_processing_order(tiny_graph, "ascending")
        desc = edge_processing_order(tiny_graph, "descending")
        assert desc.tolist() == asc.tolist()[::-1]

    def test_random_is_permutation(self, tiny_graph):
        order = edge_processing_order(tiny_graph, "random", seed=3)
        assert sorted(order.tolist()) == list(range(tiny_graph.num_edges))

    def test_unknown_order_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            edge_processing_order(tiny_graph, "zigzag")


def _int64_stable_order(degrees, src, dst):
    return np.argsort(degrees[src] + degrees[dst], kind="stable")


class TestDegreeSumOrder:
    """A key below 2**16 is sorted as uint16 (numpy's radix sort); the
    permutation must be the int64 stable sort's on either side of it."""

    @pytest.mark.parametrize("top", [65_535, 65_536])
    def test_equals_the_int64_stable_sort_at_the_boundary(self, top):
        m = 20_000
        rng = np.random.default_rng(top)
        # one vertex per edge plus a zero-degree sink: key[j] == degrees[j]
        degrees = np.append(rng.integers(0, 50, size=m), 0).astype(np.int64)
        degrees[rng.choice(m, size=200, replace=False)] = rng.integers(0, top, size=200)
        degrees[m // 3] = degrees[2 * m // 3] = top
        src, dst = np.arange(m, dtype=np.int64), np.full(m, m, dtype=np.int64)
        order = degree_sum_order(degrees, src, dst)
        assert order.dtype == np.int64 and order.flags.c_contiguous
        np.testing.assert_array_equal(order, _int64_stable_order(degrees, src, dst))

    def test_empty_key(self):
        empty = np.empty(0, dtype=np.int64)
        order = degree_sum_order(np.zeros(3, dtype=np.int64), empty, empty)
        assert order.dtype == np.int64 and order.shape == (0,)

    @pytest.mark.parametrize("hub_degree", [100, 70_000])
    def test_descending_is_the_reversed_int64_stable_sort(self, hub_degree):
        # a star (degree sums above 2**16 for the larger hub) plus a path
        leaves = np.arange(1, hub_degree + 1, dtype=np.int64)
        path = np.arange(hub_degree + 1, hub_degree + 500, dtype=np.int64)
        graph = Graph(
            hub_degree + 501,
            np.concatenate([np.zeros(hub_degree, dtype=np.int64), path]),
            np.concatenate([leaves, path + 1]),
        )
        expect = _int64_stable_order(graph.degrees(), graph.src, graph.dst)
        desc = edge_processing_order(graph, "descending")
        assert desc.flags.c_contiguous
        np.testing.assert_array_equal(desc, expect[::-1])
        np.testing.assert_array_equal(edge_processing_order(graph, "ascending"), expect)


class TestEBVBasics:
    def test_every_edge_assigned(self, small_powerlaw):
        r = EBVPartitioner().partition(small_powerlaw, 8)
        assert np.all(r.edge_parts >= 0)
        assert np.all(r.edge_parts < 8)

    def test_single_part(self, small_powerlaw):
        r = EBVPartitioner().partition(small_powerlaw, 1)
        assert np.all(r.edge_parts == 0)
        # RF = covered vertices / |V| (isolated vertices are in no V_i).
        covered = np.unique(
            np.concatenate([small_powerlaw.src, small_powerlaw.dst])
        ).size
        assert replication_factor(r) == pytest.approx(
            covered / small_powerlaw.num_vertices
        )

    def test_invalid_parts(self, tiny_graph):
        with pytest.raises(ValueError):
            EBVPartitioner().partition(tiny_graph, 0)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            EBVPartitioner(alpha=0.0)
        with pytest.raises(ValueError):
            EBVPartitioner(beta=-1.0)
        with pytest.raises(ValueError):
            EBVPartitioner(sort_order="bogus")

    def test_deterministic(self, small_powerlaw):
        a = EBVPartitioner().partition(small_powerlaw, 4)
        b = EBVPartitioner().partition(small_powerlaw, 4)
        assert np.array_equal(a.edge_parts, b.edge_parts)

    def test_method_names(self, tiny_graph):
        assert EBVPartitioner().partition(tiny_graph, 2).method == "EBV"
        assert (
            EBVPartitioner(sort_order="input").partition(tiny_graph, 2).method
            == "EBV-unsort"
        )

    def test_self_loop_counts_vertex_once(self):
        g = Graph.from_edges([(0, 0), (1, 2)], num_vertices=3)
        r = EBVPartitioner(sort_order="input").partition(g, 2)
        # Vertex 0 appears once in the loop edge's subgraph.
        counts = r.vertex_counts()
        assert counts.sum() == 3


class TestEvaluationFunctionSemantics:
    def test_colocation_preferred_when_balanced(self):
        # Two edges sharing vertex 1: with modest balance weights the
        # second edge joins the first's subgraph (saves one replica).
        # On a graph this tiny, the default alpha=beta=1 balance terms
        # are comparable to a whole replica, so use smaller weights.
        g = Graph.from_edges([(0, 1), (1, 2), (3, 4), (5, 6)], num_vertices=7)
        r = EBVPartitioner(alpha=0.25, beta=0.25, sort_order="input").partition(g, 2)
        assert r.edge_parts[0] == r.edge_parts[1]

    def test_balance_wins_with_large_weights(self):
        # With huge alpha, edges alternate regardless of shared vertices.
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)], num_vertices=5)
        r = EBVPartitioner(alpha=1000.0, beta=1000.0, sort_order="input").partition(g, 2)
        assert r.edge_counts().tolist() == [2, 2]

    def test_tiny_weights_approach_min_replication(self):
        # alpha, beta -> 0: EBV degenerates into pure replica avoidance,
        # packing everything onto one subgraph.
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)], num_vertices=4)
        r = EBVPartitioner(alpha=1e-9, beta=1e-9, sort_order="input").partition(g, 2)
        assert replication_factor(r) == pytest.approx(1.0)
        assert r.edge_counts().max() == 3

    def test_figure1_sorting_balances(self, tiny_graph):
        """The paper's Figure 1: sorted order yields balanced subgraphs."""
        r = EBVPartitioner(sort_order="ascending").partition(tiny_graph, 2)
        assert edge_imbalance_factor(r) == pytest.approx(1.0)


class TestGrowthTrace:
    def test_trace_recorded(self, small_powerlaw):
        ebv = EBVPartitioner(track_growth=True)
        ebv.partition(small_powerlaw, 4)
        trace = ebv.last_trace
        assert trace is not None
        assert trace.shape[0] == small_powerlaw.num_edges
        assert np.all(np.diff(trace) >= 0)  # coverage only grows

    def test_trace_final_matches_vertex_counts(self, small_powerlaw):
        ebv = EBVPartitioner(track_growth=True)
        r = ebv.partition(small_powerlaw, 4)
        assert ebv.last_trace[-1] == r.vertex_counts().sum()

    def test_growth_curve_downsamples(self, small_powerlaw):
        ebv = EBVPartitioner(track_growth=True)
        ebv.partition(small_powerlaw, 4)
        x, y = ebv.growth_curve(small_powerlaw, max_points=16)
        assert x.shape == y.shape
        assert x.shape[0] <= 16
        assert y[-1] == pytest.approx(
            ebv.last_trace[-1] / small_powerlaw.num_vertices
        )

    def test_growth_curve_without_trace_raises(self, small_powerlaw):
        with pytest.raises(RuntimeError):
            EBVPartitioner().growth_curve(small_powerlaw)

    def test_no_trace_by_default(self, small_powerlaw):
        ebv = EBVPartitioner()
        ebv.partition(small_powerlaw, 4)
        assert ebv.last_trace is None

    def test_trace_single_part(self, tiny_graph):
        ebv = EBVPartitioner(track_growth=True)
        ebv.partition(tiny_graph, 1)
        covered = np.unique(
            np.concatenate([tiny_graph.src, tiny_graph.dst])
        ).size
        assert ebv.last_trace[-1] == covered


class TestPaperClaims:
    def test_balance_near_one(self, small_powerlaw):
        r = EBVPartitioner().partition(small_powerlaw, 8)
        assert edge_imbalance_factor(r) < 1.15
        assert vertex_imbalance_factor(r) < 1.15

    def test_sort_beats_unsort_on_powerlaw(self, small_powerlaw):
        sort = EBVPartitioner(sort_order="ascending").partition(small_powerlaw, 16)
        unsort = EBVPartitioner(sort_order="input").partition(small_powerlaw, 16)
        assert replication_factor(sort) <= replication_factor(unsort)

    def test_directed_graph_supported(self, small_directed_powerlaw):
        r = EBVPartitioner().partition(small_directed_powerlaw, 8)
        assert edge_imbalance_factor(r) < 1.2


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("front", ["ebv", "ebv-stream", "ebv-sharded"])
def test_every_front_rejects_bad_weights(front, value):
    from repro.pipeline.registries import PARTITIONERS

    for weight in ("alpha", "beta"):
        with pytest.raises(ValueError, match="alpha and beta must be positive and finite"):
            PARTITIONERS.create(f"{front}?{weight}={value}")
