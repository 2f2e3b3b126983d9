"""Unit tests for distributed graph construction and replica routing."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.partition import (
    EBVPartitioner,
    EDGE_CUT,
    MetisLikePartitioner,
    PartitionResult,
)
from repro.bsp import build_distributed_graph
from repro.pipeline import PARTITIONERS


@pytest.fixture
def square_partition():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)], num_vertices=4)
    return PartitionResult(g, 2, edge_parts=np.array([0, 0, 1, 1]), method="manual")


class TestBuildVertexCut:
    def test_local_edge_counts(self, square_partition):
        dg = build_distributed_graph(square_partition)
        assert dg.locals[0].num_edges == 2
        assert dg.locals[1].num_edges == 2

    def test_local_vertices(self, square_partition):
        dg = build_distributed_graph(square_partition)
        assert dg.locals[0].global_ids.tolist() == [0, 1, 2]
        assert dg.locals[1].global_ids.tolist() == [0, 2, 3]

    def test_local_edges_reference_local_ids(self, square_partition):
        dg = build_distributed_graph(square_partition)
        for local in dg.locals:
            assert np.all(local.src < local.num_vertices)
            assert np.all(local.dst < local.num_vertices)
            # Re-map back to global and compare against the partition.
            globals_src = local.global_ids[local.src]
            globals_dst = local.global_ids[local.dst]
            mask = square_partition.edge_parts == local.worker_id
            g = square_partition.graph
            assert sorted(
                zip(globals_src.tolist(), globals_dst.tolist())
            ) == sorted(zip(g.src[mask].tolist(), g.dst[mask].tolist()))

    def test_exactly_one_master_per_vertex(self, square_partition):
        dg = build_distributed_graph(square_partition)
        masters = {}
        for local in dg.locals:
            for j in np.nonzero(local.is_master)[0].tolist():
                gv = int(local.global_ids[j])
                assert gv not in masters, "vertex has two masters"
                masters[gv] = local.worker_id
        assert set(masters) == {0, 1, 2, 3}

    def test_master_worker_consistency(self, square_partition):
        dg = build_distributed_graph(square_partition)
        for local in dg.locals:
            own = local.master_worker[local.is_master]
            assert np.all(own == local.worker_id)

    def test_routes_pair_up(self, square_partition):
        dg = build_distributed_graph(square_partition)
        for (w, mw), up in dg.up_routes.items():
            down = dg.down_routes[(mw, w)]
            assert np.array_equal(up.src_index, down.dst_index)
            assert np.array_equal(up.dst_index, down.src_index)

    def test_routes_connect_same_global_vertex(self, square_partition):
        dg = build_distributed_graph(square_partition)
        for (w, mw), route in dg.up_routes.items():
            mirror_ids = dg.locals[w].global_ids[route.src_index]
            master_ids = dg.locals[mw].global_ids[route.dst_index]
            assert np.array_equal(mirror_ids, master_ids)

    def test_replication_factor_matches_partition(self, square_partition):
        dg = build_distributed_graph(square_partition)
        assert dg.replication_factor() == pytest.approx(6 / 4)

    def test_out_degree_is_global(self, square_partition):
        dg = build_distributed_graph(square_partition)
        g = square_partition.graph
        out = g.out_degrees()
        for local in dg.locals:
            assert np.array_equal(local.global_out_degree, out[local.global_ids])


class TestIsolatedVertices:
    def test_isolated_vertices_get_homes(self):
        g = Graph.from_edges([(0, 1)], num_vertices=6)
        r = EBVPartitioner().partition(g, 3)
        dg = build_distributed_graph(r)
        hosted = np.zeros(6, dtype=bool)
        master_count = np.zeros(6, dtype=int)
        for local in dg.locals:
            hosted[local.global_ids] = True
            master_count[local.global_ids[local.is_master]] += 1
        assert hosted.all()
        assert np.all(master_count == 1)


class TestBuildEdgeCut:
    def test_ghosts_present(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)], num_vertices=4)
        r = PartitionResult(
            g, 2, vertex_parts=np.array([0, 0, 1, 1]), kind=EDGE_CUT
        )
        dg = build_distributed_graph(r)
        # Worker 0 executes (0,1) and (1,2): hosts {0,1} plus ghost 2.
        assert dg.locals[0].global_ids.tolist() == [0, 1, 2]
        assert dg.locals[1].global_ids.tolist() == [0, 2, 3]

    def test_owner_is_master(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)], num_vertices=4)
        r = PartitionResult(
            g, 2, vertex_parts=np.array([0, 0, 1, 1]), kind=EDGE_CUT
        )
        dg = build_distributed_graph(r)
        for local in dg.locals:
            for j, gv in enumerate(local.global_ids.tolist()):
                assert local.master_worker[j] == r.vertex_parts[gv]

    def test_metis_end_to_end_build(self, small_powerlaw):
        r = MetisLikePartitioner().partition(small_powerlaw, 4)
        dg = build_distributed_graph(r)
        total_edges = sum(l.num_edges for l in dg.locals)
        assert total_edges == small_powerlaw.num_edges


class TestGather:
    def test_gather_master_values(self, square_partition):
        dg = build_distributed_graph(square_partition)
        values = []
        for local in dg.locals:
            values.append(local.global_ids.astype(np.float64) * 10)
        out = dg.gather_master_values(values, default=-1.0)
        assert out.tolist() == [0.0, 10.0, 20.0, 30.0]


class TestLocalCaches:
    def test_out_csr(self, square_partition):
        dg = build_distributed_graph(square_partition)
        local = dg.locals[0]
        indptr, order = local.out_csr()
        assert indptr[-1] == local.num_edges
        # Cached object identity.
        assert local.out_csr()[1] is order

    def test_cc_roots_static(self, square_partition):
        dg = build_distributed_graph(square_partition)
        local = dg.locals[0]  # path 0-1-2 locally: one component
        roots = local.cc_roots()
        assert np.unique(roots).size == 1
        assert local.cc_roots() is roots

    def test_cc_root_count(self, small_road):
        dg = build_distributed_graph(EBVPartitioner().partition(small_road, 4))
        for local in dg.locals:
            assert local.cc_root_count() == np.unique(local.cc_roots()).size

    def test_out_fanout(self, small_directed_powerlaw):
        dg = build_distributed_graph(EBVPartitioner().partition(small_directed_powerlaw, 4))
        for local in dg.locals:
            fanout, dangling = local.out_fanout()
            assert fanout.dtype == np.float64
            assert np.array_equal(fanout, np.maximum(local.global_out_degree, 1))
            assert np.array_equal(dangling, np.flatnonzero(local.global_out_degree == 0))
            assert local.out_fanout()[0] is fanout

    def test_out_fanout_without_dangling(self, square_partition):
        dg = build_distributed_graph(square_partition)
        assert all(local.out_fanout()[1] is None for local in dg.locals)

    def test_master_index(self, square_partition):
        dg = build_distributed_graph(square_partition)
        for local in dg.locals:
            masters = local.master_index()
            assert np.array_equal(masters, np.flatnonzero(local.is_master))
            assert local.master_index() is masters


class TestRouteIndicesAreUnique:
    """A route names each mirror, and each master, at most once.

    ``superstep_exchange_up`` rests on it: with no repeated
    ``dst_index`` entry, ``sums[dst] += x`` and ``own[dst] = x`` equal
    the ``np.add.at`` / ``np.minimum.at`` scatters they replaced.
    """

    @pytest.fixture(scope="class", params=["pl-small", "road-small", "pl-dir"])
    def graph(self, request, graph_zoo):
        return graph_zoo[request.param]

    @pytest.mark.parametrize("parts", [2, 4, 8])
    @pytest.mark.parametrize("method", sorted(PARTITIONERS.names()))
    def test_no_route_repeats_an_index(self, graph, method, parts):
        dg = build_distributed_graph(PARTITIONERS.create(method).partition(graph, parts))
        for routes in (dg.up_routes, dg.down_routes):
            for pair, route in routes.items():
                for index in (route.src_index, route.dst_index):
                    assert np.unique(index).size == index.size, (pair, method)
