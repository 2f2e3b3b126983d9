"""apply_mutations: incremental maintenance, drift metrics, escape hatch."""

import numpy as np
import pytest

from repro.mutate import (
    DEFAULT_REPARTITION_THRESHOLD,
    MutationBatch,
    MutationError,
    apply_mutations,
    mutated_graph,
)
from repro.graph import generate_graph
from repro.partition import StreamingEBVPartitioner, replication_factor
from repro.partition.base import EDGE_CUT, PartitionResult


def base_partition(graph, parts=4):
    return StreamingEBVPartitioner().partition(graph, parts)


@pytest.fixture(scope="module")
def quick_partition():
    """The drift sweep's graph: 13k-vertex directed power law, 8 parts."""
    graph = generate_graph(kind="powerlaw", vertices=13_000, min_degree=3, seed=42, directed=True)
    return base_partition(graph, parts=8)


class TestMutatedGraph:
    def test_survivors_compact_inserts_tail(self, tiny_directed):
        resolved = (
            MutationBatch().delete(1, 2).insert(4, 1).resolve_against(tiny_directed)
        )
        g2 = mutated_graph(tiny_directed, resolved)
        assert g2.num_edges == tiny_directed.num_edges  # -1 +1
        # id 1 ((1,2)) dropped; survivors keep relative order, insert last.
        assert list(zip(g2.src.tolist(), g2.dst.tolist())) == [
            (0, 1), (0, 1), (2, 0), (3, 4), (4, 1),
        ]

    def test_vertex_set_grows_never_shrinks(self, tiny_directed):
        resolved = MutationBatch().insert(2, 9).resolve_against(tiny_directed)
        assert mutated_graph(tiny_directed, resolved).num_vertices == 10
        # Deleting a vertex's last edge leaves it isolated, not removed.
        resolved = MutationBatch().delete(3, 4).resolve_against(tiny_directed)
        assert mutated_graph(tiny_directed, resolved).num_vertices == 5

    def test_weighted_insert_on_unweighted_graph_rejected(self, tiny_directed):
        resolved = MutationBatch().insert(0, 3, weight=2.0).resolve_against(
            tiny_directed
        )
        with pytest.raises(MutationError, match="unweighted"):
            mutated_graph(tiny_directed, resolved)


class TestApplyMutations:
    def test_empty_batch_is_identity(self, directed_graph):
        part = base_partition(directed_graph)
        out = apply_mutations(part, MutationBatch())
        assert out.mode == "incremental"
        assert out.reassigned_edges == 0
        assert out.graph.num_edges == directed_graph.num_edges
        np.testing.assert_array_equal(out.partition.edge_parts, part.edge_parts)
        assert out.rf_after == pytest.approx(out.rf_before)

    def test_survivors_keep_their_parts(self, directed_graph, batch_rng, mixed_batch):
        part = base_partition(directed_graph)
        batch = mixed_batch(directed_graph, batch_rng)
        out = apply_mutations(part, batch)
        assert out.mode == "incremental"
        keep = np.ones(directed_graph.num_edges, dtype=bool)
        keep[out.resolved.removed_ids] = False
        n_surviving = int(keep.sum())
        np.testing.assert_array_equal(
            out.partition.edge_parts[:n_surviving], part.edge_parts[keep]
        )
        assert out.reassigned_edges == out.resolved.num_inserted

    @pytest.mark.parametrize("churn", [None, 0.01, 0.05, 0.10], ids=str)
    def test_rf_metrics_and_measured_drift(
            self, churn, directed_graph, batch_rng, mixed_batch, request):
        if churn is None:
            part, batch = base_partition(directed_graph), mixed_batch(directed_graph, batch_rng)
        else:  # half deletes, half inserts; v in [0, n + n // 9), so a tenth grow |V|
            part = request.getfixturevalue("quick_partition")
            g, n_ops = part.graph, int(part.graph.num_edges * churn)
            batch = mixed_batch(g, batch_rng, n_ops // 2, n_ops - n_ops // 2, g.num_vertices // 9)
        out = apply_mutations(part, batch, compare_full=True)
        assert out.rf_before == pytest.approx(replication_factor(part))
        assert out.rf_after == pytest.approx(replication_factor(out.partition))
        assert out.rf_full is not None and out.drift is not None
        assert out.drift == pytest.approx(out.rf_after / out.rf_full)
        # the operational bound for small churn on this graph family
        assert out.drift <= 1.15
        report = out.report()
        assert report["mode"] == "incremental"
        assert report["drift"] == pytest.approx(out.drift)

    def test_escape_hatch_full_repartition(self, directed_graph, batch_rng, mixed_batch):
        part = base_partition(directed_graph)
        batch = mixed_batch(directed_graph, batch_rng, n_delete=5, n_insert=40)
        out = apply_mutations(part, batch, repartition_threshold=0.0001)
        assert out.mode == "repartition"
        assert out.reassigned_edges == out.graph.num_edges
        assert out.drift == 1.0
        assert out.rf_full == pytest.approx(out.rf_after)
        # the escape hatch matches a from-scratch partition exactly
        full = StreamingEBVPartitioner().partition(out.graph, part.num_parts)
        np.testing.assert_array_equal(out.partition.edge_parts, full.edge_parts)

    def test_incremental_matches_cold_assigner_on_inserts(self, directed_graph):
        """Seeding is exact: replaying the same graph's edges cold through
        the assigner and warm-seeding then appending must agree."""
        part = base_partition(directed_graph)
        batch = MutationBatch()
        for k in range(25):
            batch.insert(k % directed_graph.num_vertices, (7 * k + 3) % directed_graph.num_vertices)
        out = apply_mutations(part, batch)
        # Cold replay: assign all old edges in order, then the inserts.
        assigner = StreamingEBVPartitioner().streamer(part.num_parts)
        assigner.seed(
            directed_graph.src, directed_graph.dst, part.edge_parts,
            num_vertices=out.graph.num_vertices,
        )
        expect = assigner.assign(out.resolved.insert_src, out.resolved.insert_dst)
        np.testing.assert_array_equal(
            out.partition.edge_parts[directed_graph.num_edges:], expect
        )

    def test_single_part_shortcut(self, tiny_directed):
        part = StreamingEBVPartitioner().partition(tiny_directed, 1)
        out = apply_mutations(part, MutationBatch().insert(0, 4).delete(3, 4))
        assert out.partition.num_parts == 1
        assert np.all(out.partition.edge_parts == 0)

    def test_bad_threshold_rejected(self, directed_graph):
        part = base_partition(directed_graph)
        with pytest.raises(MutationError, match=r"\[0, 1\]"):
            apply_mutations(part, MutationBatch(), repartition_threshold=1.5)

    def test_non_vertex_cut_rejected(self, tiny_directed):
        part = PartitionResult(
            tiny_directed, 2,
            vertex_parts=np.zeros(tiny_directed.num_vertices, dtype=np.int64),
            kind=EDGE_CUT, method="manual",
        )
        with pytest.raises(MutationError, match="vertex-cut"):
            apply_mutations(part, MutationBatch())

    def test_default_threshold_exported(self):
        assert 0.0 < DEFAULT_REPARTITION_THRESHOLD < 1.0

    def test_mutating_a_fully_replicated_vertex(self, directed_graph):
        """Deleting and inserting around a vertex whose replicas span
        every worker keeps the seeded replica sets exact."""
        part = base_partition(directed_graph)
        # highest-degree vertex of a powerlaw graph: replicated everywhere
        deg = np.bincount(directed_graph.src, minlength=directed_graph.num_vertices)
        deg += np.bincount(directed_graph.dst, minlength=directed_graph.num_vertices)
        hub = int(np.argmax(deg))
        hub_parts = np.unique(
            np.concatenate([
                part.edge_parts[directed_graph.src == hub],
                part.edge_parts[directed_graph.dst == hub],
            ])
        )
        assert hub_parts.size == part.num_parts, "fixture hub must span all workers"
        batch = MutationBatch()
        out_edges = np.nonzero(directed_graph.src == hub)[0][:3]
        for eid in out_edges:
            batch.delete(hub, int(directed_graph.dst[eid]))
        batch.insert(hub, directed_graph.num_vertices + 1).insert(0, hub)
        out = apply_mutations(part, batch, compare_full=True)
        assert out.num_deleted == len(out_edges)
        assert out.num_inserted == 2
        # re-seeded state must agree with a cold replay of the survivors
        keep = np.ones(directed_graph.num_edges, dtype=bool)
        keep[out.resolved.removed_ids] = False
        assigner = StreamingEBVPartitioner().streamer(part.num_parts)
        assigner.seed(
            directed_graph.src[keep], directed_graph.dst[keep],
            part.edge_parts[keep], num_vertices=out.graph.num_vertices,
        )
        expect = assigner.assign(out.resolved.insert_src, out.resolved.insert_dst)
        np.testing.assert_array_equal(
            out.partition.edge_parts[int(keep.sum()):], expect
        )

