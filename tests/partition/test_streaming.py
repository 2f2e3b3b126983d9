"""Unit tests for the streaming and sharded EBV extensions."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.partition import (
    EBVPartitioner,
    ShardedEBVPartitioner,
    StreamingEBVPartitioner,
    edge_imbalance_factor,
    replication_factor,
    vertex_imbalance_factor,
)
from repro.partition.streaming import ShardedEBVAssigner, StreamingEBVAssigner


class TestStreamingEBV:
    def test_every_edge_assigned(self, small_powerlaw):
        r = StreamingEBVPartitioner().partition(small_powerlaw, 8)
        assert np.all((r.edge_parts >= 0) & (r.edge_parts < 8))
        assert int(r.edge_counts().sum()) == small_powerlaw.num_edges

    def test_single_part(self, small_powerlaw):
        r = StreamingEBVPartitioner().partition(small_powerlaw, 1)
        assert np.all(r.edge_parts == 0)

    def test_balanced(self, small_powerlaw):
        r = StreamingEBVPartitioner().partition(small_powerlaw, 8)
        assert edge_imbalance_factor(r) < 1.25
        assert vertex_imbalance_factor(r) < 1.25

    def test_close_to_offline_ebv(self, small_powerlaw):
        """One-pass streaming pays a bounded replication premium."""
        offline = EBVPartitioner().partition(small_powerlaw, 8)
        streaming = StreamingEBVPartitioner(chunk_size=2048).partition(
            small_powerlaw, 8
        )
        assert replication_factor(streaming) < 1.5 * replication_factor(offline)

    def test_bigger_window_helps_or_ties(self, small_powerlaw):
        tiny = StreamingEBVPartitioner(chunk_size=1).partition(small_powerlaw, 8)
        wide = StreamingEBVPartitioner(chunk_size=4096).partition(small_powerlaw, 8)
        assert replication_factor(wide) <= replication_factor(tiny) + 0.15

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StreamingEBVPartitioner(chunk_size=0)
        with pytest.raises(ValueError):
            StreamingEBVPartitioner(alpha=0)

    def test_deterministic(self, small_powerlaw):
        a = StreamingEBVPartitioner().partition(small_powerlaw, 4)
        b = StreamingEBVPartitioner().partition(small_powerlaw, 4)
        assert np.array_equal(a.edge_parts, b.edge_parts)

    def test_self_loops(self):
        g = Graph.from_edges([(0, 0), (0, 1), (1, 1)], num_vertices=2)
        r = StreamingEBVPartitioner().partition(g, 2)
        assert int(r.edge_counts().sum()) == 3


class TestRunningCountNormalization:
    """Regression: the first chunk when p > |E_seen|.

    The streaming evaluation function recomputes the balance terms from
    the current per-part counts under the *running* normalization
    ``ecount[i] / (|E_seen|/p)`` + ``vcount[i] / (|V_covered|/p)`` —
    the offline Eq. 2 with running totals standing in for |E| and |V|.
    On the very first chunk both running averages are below one edge
    per part, and before any edge is assigned they are exactly zero, so
    the unguarded quotient divides by zero; the divisors floor at 1/p
    (one edge/vertex) to keep the degenerate regime finite without
    distorting any later unit.
    """

    def test_first_window_hand_trace(self):
        """Hand trace of the running-count eva: p=2, α=β=1, chunk_size=1.

        (0,1): counts all zero -> Eva = [2, 2], tie -> part 0.
               ecount=[1,0], vcount=[2,0], |E_seen|=1, |V_cov|=2.
        (2,3): units 1/max(1/2,1/2)=2 and 1/max(1,1/2)=1:
               Eva[0] = 1*2 + 2*1 + 2 = 6, Eva[1] = 2 -> part 1.
        (0,2): units 1/max(1,1/2)=1 and 1/max(2,1/2)=1/2:
               Eva = 1 + 1 + 2 - 1 = 3 on both sides (each holds one
               endpoint), tie -> part 0.
        (1,3): units 1/max(3/2,1/2)=2/3 and 1/max(5/2,1/2)=2/5:
               Eva[0] = 2*(2/3) + 3*(2/5) + 2 - 1 = 3.533...
               Eva[1] = 1*(2/3) + 2*(2/5) + 2 - 1 = 2.466... -> part 1.
        """
        g = Graph.from_edges([(0, 1), (2, 3), (0, 2), (1, 3)], num_vertices=4)
        r = StreamingEBVPartitioner(chunk_size=1).partition(g, 2)
        assert r.edge_parts.tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("chunk_size", [1, 2, 64])
    def test_more_parts_than_edges_survives_first_chunk(self, chunk_size):
        """p > |E|: the whole run happens inside the degenerate regime
        where every unguarded divisor would be < 1 (or exactly 0)."""
        g = Graph.from_edges([(0, 1), (2, 3), (0, 2)], num_vertices=4)
        r = StreamingEBVPartitioner(chunk_size=chunk_size).partition(g, 8)
        parts = r.edge_parts.tolist()
        assert all(0 <= p < 8 for p in parts)
        # Disjoint edges spread out: [0, 1, 2] by the trace above.
        assert parts[0] != parts[1]

    def test_single_edge_many_parts(self):
        """|E| = 1, p = 4: both running averages are exactly zero when
        the first (and only) unit is computed — the unguarded quotient
        is literally 0.0/0.25 ... alpha/0.0."""
        g = Graph.from_edges([(0, 1)], num_vertices=2)
        r = StreamingEBVPartitioner(chunk_size=1).partition(g, 4)
        assert r.edge_parts.tolist() == [0]

    def test_early_units_do_not_persist(self, small_powerlaw):
        """The first-chunk units are p times larger than steady state;
        because the balance terms are recomputed from current counts,
        that must not skew the final balance (a permanent early offset
        shows up here as >>1.05 imbalance)."""
        for chunk_size in (1, 256):
            r = StreamingEBVPartitioner(chunk_size=chunk_size).partition(
                small_powerlaw, 8
            )
            assert edge_imbalance_factor(r) < 1.1
            assert vertex_imbalance_factor(r) < 1.1


class TestAssignerContract:
    """The chunk-core API the out-of-core driver builds on."""

    def test_streamer_window_matches_chunk_size(self):
        assigner = StreamingEBVPartitioner(chunk_size=37).streamer(4)
        assert assigner.window == 37

    def test_streaming_assigner_matches_partition(self, small_powerlaw):
        part = StreamingEBVPartitioner(chunk_size=33)
        expected = part.partition(small_powerlaw, 4).edge_parts
        assigner = part.streamer(4)
        got = np.concatenate([
            assigner.assign(
                small_powerlaw.src[i : i + 33], small_powerlaw.dst[i : i + 33]
            )
            for i in range(0, small_powerlaw.num_edges, 33)
        ])
        assert np.array_equal(got, expected)

    def test_sharded_streamer_requires_totals(self):
        part = ShardedEBVPartitioner(sort_edges=False)
        with pytest.raises(ValueError, match="degree-sketch"):
            part.streamer(4)
        assigner = part.streamer(4, num_edges=100, num_vertices=50)
        assert assigner.window == part.num_shards * part.sync_interval

    def test_sharded_assigner_validates_its_own_arguments(self):
        """The assigner is public: built directly it must not accept what
        the partitioner's constructor rejects (``num_shards=0`` used to
        hand back an uninitialised ``np.empty`` array)."""
        with pytest.raises(ValueError, match="num_shards"):
            ShardedEBVAssigner(4, 0, 8, 1.0, 1.0, num_edges=10, num_vertices=10)
        with pytest.raises(ValueError, match="sync_interval"):
            ShardedEBVAssigner(4, 2, 0, 1.0, 1.0, num_edges=10, num_vertices=10)

    def test_sharded_assigner_names_an_out_of_range_vertex(self):
        """An id past the declared |V| used to die mid-epoch with a bare
        ``IndexError: list index out of range``."""
        assigner = ShardedEBVAssigner(4, 2, 8, 1.0, 1.0, num_edges=3, num_vertices=10)
        with pytest.raises(ValueError, match=r"vertex id 10 .*num_vertices=10"):
            assigner.assign(np.array([0, 3, 9]), np.array([1, 10, 2]))
        # nothing was committed by the rejected window
        assert assigner.replication_factor() == 0.0
        assert assigner.assign(np.array([0, 3]), np.array([1, 9])).shape == (2,)

    def test_assigners_reject_a_negative_vertex_id(self):
        """Row ``-1`` of the replica bitmap is the *last* vertex's: a
        negative id used to be scored against it and return parts."""
        src, dst = np.array([0, 1, -1]), np.array([1, 2, 2])
        streaming = StreamingEBVAssigner(4, 16, 1.0, 1.0)
        sharded = ShardedEBVAssigner(4, 2, 8, 1.0, 1.0, num_edges=3, num_vertices=10)
        for assigner in (streaming, sharded):
            fresh = assigner.replication_factor()
            with pytest.raises(ValueError, match="negative vertex id -1"):
                assigner.assign(src, dst)
            # nothing was committed by the rejected window
            assert assigner.replication_factor() == fresh
            assert assigner.assign(src[:2], dst[:2]).shape == (2,)
        before = streaming.replication_factor(10)
        with pytest.raises(ValueError, match="negative vertex id -3"):
            streaming.seed(np.array([0, 4]), np.array([-3, 2]), np.array([0, 1]))
        assert streaming.replication_factor(10) == before

    def test_sorted_sharded_cannot_stream(self):
        with pytest.raises(ValueError, match="sort_edges"):
            ShardedEBVPartitioner(sort_edges=True).streamer(4, 10, 10)

    def test_replication_factor_tracks_state(self, small_powerlaw):
        part = StreamingEBVPartitioner(chunk_size=small_powerlaw.num_edges)
        assigner = part.streamer(4)
        assigner.assign(small_powerlaw.src, small_powerlaw.dst)
        result = part.partition(small_powerlaw, 4)
        assert assigner.replication_factor(
            small_powerlaw.num_vertices
        ) == pytest.approx(replication_factor(result))
        # the seen-vertices default can only be >= the |V| convention
        assert assigner.replication_factor() >= assigner.replication_factor(
            small_powerlaw.num_vertices
        )


class TestShardedEBV:
    def test_every_edge_assigned(self, small_powerlaw):
        r = ShardedEBVPartitioner(num_shards=4).partition(small_powerlaw, 8)
        assert np.all((r.edge_parts >= 0) & (r.edge_parts < 8))
        assert int(r.edge_counts().sum()) == small_powerlaw.num_edges

    def test_single_shard_matches_spirit_of_sequential(self, small_powerlaw):
        """1 shard with huge sync interval == sequential EBV exactly."""
        seq = EBVPartitioner().partition(small_powerlaw, 4)
        sharded = ShardedEBVPartitioner(
            num_shards=1, sync_interval=10**9
        ).partition(small_powerlaw, 4)
        assert replication_factor(sharded) == pytest.approx(
            replication_factor(seq), rel=0.02
        )

    def test_staleness_costs_replication(self, small_powerlaw):
        fresh = ShardedEBVPartitioner(num_shards=4, sync_interval=32).partition(
            small_powerlaw, 8
        )
        stale = ShardedEBVPartitioner(
            num_shards=4, sync_interval=100_000
        ).partition(small_powerlaw, 8)
        assert replication_factor(fresh) <= replication_factor(stale) + 0.05

    def test_balanced(self, small_powerlaw):
        r = ShardedEBVPartitioner(num_shards=4).partition(small_powerlaw, 8)
        assert edge_imbalance_factor(r) < 1.3

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ShardedEBVPartitioner(num_shards=0)
        with pytest.raises(ValueError):
            ShardedEBVPartitioner(sync_interval=0)

    def test_deterministic(self, small_powerlaw):
        a = ShardedEBVPartitioner().partition(small_powerlaw, 4)
        b = ShardedEBVPartitioner().partition(small_powerlaw, 4)
        assert np.array_equal(a.edge_parts, b.edge_parts)

    def test_unsorted_variant(self, small_powerlaw):
        r = ShardedEBVPartitioner(sort_edges=False).partition(small_powerlaw, 4)
        assert int(r.edge_counts().sum()) == small_powerlaw.num_edges
