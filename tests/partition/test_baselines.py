"""Unit tests for the five baseline partitioners + random hashes."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.partition import (
    CVCPartitioner,
    DBHPartitioner,
    EDGE_CUT,
    GingerPartitioner,
    MetisLikePartitioner,
    NEPartitioner,
    RandomEdgeHashPartitioner,
    RandomVertexHashPartitioner,
    VERTEX_CUT,
    edge_imbalance_factor,
    grid_shape,
    replication_factor,
    vertex_imbalance_factor,
)

ALL_VERTEX_CUT = [
    DBHPartitioner,
    CVCPartitioner,
    GingerPartitioner,
    NEPartitioner,
    RandomEdgeHashPartitioner,
]


@pytest.mark.parametrize("cls", ALL_VERTEX_CUT)
def test_vertex_cut_assigns_every_edge(cls, small_powerlaw):
    r = cls().partition(small_powerlaw, 8)
    assert r.kind == VERTEX_CUT
    assert np.all(r.edge_parts >= 0) and np.all(r.edge_parts < 8)


@pytest.mark.parametrize("cls", ALL_VERTEX_CUT)
def test_vertex_cut_deterministic(cls, small_powerlaw):
    a = cls().partition(small_powerlaw, 4)
    b = cls().partition(small_powerlaw, 4)
    assert np.array_equal(a.edge_parts, b.edge_parts)


class TestDBH:
    def test_hashes_lower_degree_endpoint(self):
        # Star around hub 0: all edges share leaf-determined hashes, so
        # each leaf's edge placement is independent of the hub.
        g = Graph.from_edges([(0, i) for i in range(1, 9)], num_vertices=9)
        r = DBHPartitioner().partition(g, 4)
        # The hub must be the replicated vertex: every part that has
        # edges contains vertex 0.
        members = r.vertex_membership()
        for i in range(4):
            if r.edge_counts()[i] > 0:
                assert 0 in members[i]

    def test_roughly_balanced_on_powerlaw(self, small_powerlaw):
        r = DBHPartitioner().partition(small_powerlaw, 8)
        assert edge_imbalance_factor(r) < 1.35

    def test_seed_changes_placement(self, small_powerlaw):
        a = DBHPartitioner(seed=0).partition(small_powerlaw, 8)
        b = DBHPartitioner(seed=1).partition(small_powerlaw, 8)
        assert not np.array_equal(a.edge_parts, b.edge_parts)


class TestCVC:
    def test_grid_shape_square(self):
        assert grid_shape(16) == (4, 4)
        assert grid_shape(12) == (3, 4)
        assert grid_shape(7) == (1, 7)
        assert grid_shape(1) == (1, 1)

    def test_replicas_bounded_by_grid(self, small_powerlaw):
        # With a r x c grid each vertex lands in <= r + c parts
        # (its row band as a source plus its column band as a target).
        r = CVCPartitioner().partition(small_powerlaw, 16)
        rows, cols = grid_shape(16)
        rmap = r.replica_map()
        assert max(len(m) for m in rmap) <= rows + cols

    def test_balanced(self, small_powerlaw):
        r = CVCPartitioner().partition(small_powerlaw, 8)
        assert edge_imbalance_factor(r) < 1.4


class TestGinger:
    def test_balanced_edges(self, small_powerlaw):
        r = GingerPartitioner().partition(small_powerlaw, 8)
        assert edge_imbalance_factor(r) < 1.25

    def test_beats_dbh_on_denser_powerlaw(self, small_directed_powerlaw):
        # On the denser directed graph (hub-heavy), Ginger's greedy
        # placement wins over degree hashing; on very sparse graphs the
        # two can tie, so the paper-scale comparison lives in the
        # integration tests.
        ginger = GingerPartitioner().partition(small_directed_powerlaw, 8)
        dbh = DBHPartitioner().partition(small_directed_powerlaw, 8)
        assert replication_factor(ginger) < replication_factor(dbh)

    def test_beats_random_hash(self, small_powerlaw):
        ginger = GingerPartitioner().partition(small_powerlaw, 8)
        rnd = RandomEdgeHashPartitioner().partition(small_powerlaw, 8)
        assert replication_factor(ginger) < replication_factor(rnd)

    def test_custom_threshold(self, small_powerlaw):
        r = GingerPartitioner(threshold=2).partition(small_powerlaw, 8)
        assert np.all(r.edge_parts >= 0)

    def test_directed(self, small_directed_powerlaw):
        r = GingerPartitioner().partition(small_directed_powerlaw, 8)
        assert np.all(r.edge_parts >= 0)


class TestNE:
    def test_edge_balance_is_tight(self, small_powerlaw):
        r = NEPartitioner().partition(small_powerlaw, 8)
        assert edge_imbalance_factor(r) <= 1.01

    def test_low_replication(self, small_powerlaw):
        ne = NEPartitioner().partition(small_powerlaw, 8)
        dbh = DBHPartitioner().partition(small_powerlaw, 8)
        assert replication_factor(ne) < replication_factor(dbh)

    def test_single_part(self, small_powerlaw):
        r = NEPartitioner().partition(small_powerlaw, 1)
        assert np.all(r.edge_parts == 0)

    def test_handles_disconnected(self, two_triangles):
        r = NEPartitioner().partition(two_triangles, 2)
        assert np.all(r.edge_parts >= 0)
        assert edge_imbalance_factor(r) == pytest.approx(1.0)

    def test_more_parts_than_structure(self, tiny_graph):
        r = NEPartitioner().partition(tiny_graph, 4)
        assert np.all(r.edge_parts >= 0)

    def test_self_loops_terminate(self):
        """Regression: self loops once double-counted ext_deg and hung."""
        g = Graph.from_edges(
            [(0, 0), (1, 1), (0, 1), (2, 2), (3, 4)], num_vertices=5
        )
        for p in (1, 2, 3, 4):
            r = NEPartitioner().partition(g, p)
            assert int(r.edge_counts().sum()) == g.num_edges

    def test_all_self_loops(self):
        g = Graph.from_edges([(i, i) for i in range(10)], num_vertices=10)
        r = NEPartitioner().partition(g, 3)
        assert int(r.edge_counts().sum()) == 10


class TestMetisLike:
    def test_kind_is_edge_cut(self, small_powerlaw):
        r = MetisLikePartitioner().partition(small_powerlaw, 4)
        assert r.kind == EDGE_CUT

    def test_every_vertex_assigned(self, small_powerlaw):
        r = MetisLikePartitioner().partition(small_powerlaw, 4)
        assert np.all(r.vertex_parts >= 0) and np.all(r.vertex_parts < 4)

    def test_vertex_balance_within_tolerance(self, small_powerlaw):
        r = MetisLikePartitioner(tolerance=1.05).partition(small_powerlaw, 4)
        assert vertex_imbalance_factor(r) <= 1.25  # tolerance + rounding slack

    def test_edge_imbalance_blows_up_on_powerlaw(self, small_powerlaw):
        """The Table III failure mode: vertex balance != edge balance."""
        r = MetisLikePartitioner().partition(small_powerlaw, 8)
        assert edge_imbalance_factor(r) > 1.2

    def test_low_cut_on_road(self, small_road):
        r = MetisLikePartitioner().partition(small_road, 4)
        assert replication_factor(r) < 1.35

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            MetisLikePartitioner(tolerance=0.9)

    def test_deterministic(self, small_powerlaw):
        a = MetisLikePartitioner().partition(small_powerlaw, 4)
        b = MetisLikePartitioner().partition(small_powerlaw, 4)
        assert np.array_equal(a.vertex_parts, b.vertex_parts)


class TestRandomHash:
    def test_edge_hash_balanced(self, small_powerlaw):
        r = RandomEdgeHashPartitioner().partition(small_powerlaw, 8)
        assert edge_imbalance_factor(r) < 1.25

    def test_edge_hash_replicates_heavily(self, small_powerlaw):
        rnd = RandomEdgeHashPartitioner().partition(small_powerlaw, 8)
        ne = NEPartitioner().partition(small_powerlaw, 8)
        assert replication_factor(rnd) > replication_factor(ne)

    def test_vertex_hash_is_edge_cut(self, small_powerlaw):
        r = RandomVertexHashPartitioner().partition(small_powerlaw, 8)
        assert r.kind == EDGE_CUT
        assert vertex_imbalance_factor(r) < 1.3


@pytest.mark.parametrize("spec", [
    "hdrf?lam=nan", "hdrf?lam=inf", "hdrf?lam=-1",
    "hdrf?epsilon=nan", "hdrf?epsilon=inf", "hdrf?epsilon=0", "hdrf?epsilon=-1",
    "ginger?gamma=nan", "ginger?gamma=inf", "ginger?gamma=-1",
])
def test_streaming_baselines_reject_bad_weights(spec):
    """A NaN or infinite weight poisons every score (HDRF then puts every
    edge on part 0); a negative one rewards imbalance."""
    from repro.pipeline.registries import PARTITIONERS

    with pytest.raises(ValueError, match="must be (non-negative|positive) and finite"):
        PARTITIONERS.create(spec)
