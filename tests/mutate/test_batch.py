"""MutationBatch parsing and ordered-resolution semantics."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.mutate import DELETE, INSERT, MutationBatch, MutationError


class TestConstruction:
    def test_fluent_chaining_and_counts(self):
        batch = MutationBatch().insert(0, 1).delete(2, 3).insert(4, 5, weight=2.5)
        assert len(batch) == 3
        assert batch.num_insert_ops == 2
        assert batch.num_delete_ops == 1

    def test_from_ops_aliases(self):
        batch = MutationBatch.from_ops(
            [("+", 0, 1), ("add", 1, 2), ("-", 0, 1), ("del", 1, 2), ("remove", 2, 3)]
        )
        assert batch.num_insert_ops == 2
        assert batch.num_delete_ops == 3

    def test_to_ops_canonicalizes_aliases(self):
        batch = MutationBatch.from_ops([("+", 0, 1, 3.0), ("-", 0, 1)])
        assert batch.to_ops() == [["insert", 0, 1, 3.0], ["delete", 0, 1]]

    def test_unknown_op_rejected(self):
        with pytest.raises(MutationError, match="unknown mutation op"):
            MutationBatch.from_ops([("upsert", 0, 1)])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(MutationError, match=">= 0"):
            MutationBatch().insert(-1, 2)

    def test_endpoint_past_int64_rejected(self):
        with pytest.raises(MutationError, match="< 2\\*\\*63"):
            MutationBatch().delete(2**63, 0)

    def test_delete_with_weight_rejected(self):
        with pytest.raises(MutationError, match="must not carry a weight"):
            MutationBatch.from_ops([("delete", 0, 1, 2.0)])

    def test_from_file_grammar(self, tmp_path):
        path = tmp_path / "muts.txt"
        path.write_text(
            "# header comment\n"
            "+ 0 1\n"
            "\n"
            "- 2 3  # trailing comment\n"
            "+ 4 5 1.5\n"
        )
        batch = MutationBatch.from_file(str(path))
        assert batch.to_ops() == [
            ["insert", 0, 1],
            ["delete", 2, 3],
            ["insert", 4, 5, 1.5],
        ]

    def test_from_file_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "muts.txt"
        path.write_text("+ 0 1\nnonsense\n")
        with pytest.raises(MutationError, match=r"muts\.txt:2"):
            MutationBatch.from_file(str(path))


class TestResolution:
    def test_empty_batch_resolves_to_nothing(self, tiny_directed):
        resolved = MutationBatch().resolve_against(tiny_directed)
        assert resolved.num_removed == 0
        assert resolved.num_inserted == 0
        assert resolved.num_cancelled == 0

    def test_delete_matches_smallest_surviving_id(self, tiny_directed):
        # (0, 1) exists twice, at ids 0 and 2: first delete takes id 0.
        resolved = MutationBatch().delete(0, 1).resolve_against(tiny_directed)
        assert resolved.removed_ids.tolist() == [0]
        resolved2 = (
            MutationBatch().delete(0, 1).delete(0, 1).resolve_against(tiny_directed)
        )
        assert resolved2.removed_ids.tolist() == [0, 2]

    def test_delete_nonexistent_edge_rejected(self, tiny_directed):
        with pytest.raises(MutationError, match=r"cannot delete edge \(4, 3\)"):
            MutationBatch().delete(4, 3).resolve_against(tiny_directed)

    def test_delete_exhausting_parallel_copies_rejected(self, tiny_directed):
        batch = MutationBatch().delete(0, 1).delete(0, 1).delete(0, 1)
        with pytest.raises(MutationError, match="cannot delete"):
            batch.resolve_against(tiny_directed)

    def test_duplicate_insert_is_legal_multigraph(self, tiny_directed):
        resolved = (
            MutationBatch().insert(3, 0).insert(3, 0).resolve_against(tiny_directed)
        )
        assert resolved.num_inserted == 2
        assert resolved.insert_src.tolist() == [3, 3]

    def test_insert_then_delete_cancels_pending(self, tiny_directed):
        # (9, 9) never existed; the delete consumes the pending insert.
        resolved = (
            MutationBatch().insert(9, 8).delete(9, 8).resolve_against(tiny_directed)
        )
        assert resolved.num_inserted == 0
        assert resolved.num_removed == 0
        assert resolved.num_cancelled == 1

    def test_delete_then_reinsert_in_one_batch(self, tiny_directed):
        resolved = (
            MutationBatch().delete(1, 2).insert(1, 2).resolve_against(tiny_directed)
        )
        # The delete hits the real edge (id 1); the insert survives.
        assert resolved.removed_ids.tolist() == [1]
        assert resolved.insert_src.tolist() == [1]
        assert resolved.insert_dst.tolist() == [2]
        assert resolved.num_cancelled == 0

    def test_delete_prefers_existing_edge_over_pending_insert(self, tiny_directed):
        # insert (2, 0) then delete (2, 0): the REAL edge id 3 goes,
        # the pending insert survives (ordered multiset semantics).
        resolved = (
            MutationBatch().insert(2, 0).delete(2, 0).resolve_against(tiny_directed)
        )
        assert resolved.removed_ids.tolist() == [3]
        assert resolved.num_inserted == 1
        assert resolved.num_cancelled == 0

    def test_ids_past_2_to_the_32_match_exact_pairs(self):
        """Pair keys ``u * base + v`` wrap modulo 2**64 here (base is
        2**62 + 1): ``(1, 4)`` has the same key as ``(2**62, 5)``, and
        only the exact pair may match."""
        src = np.array([2**62, 2**32, 3], dtype=np.int64)
        dst = np.array([5, 1, 2**33], dtype=np.int64)
        pieces = [(np.arange(3, dtype=np.int64), src, dst)]
        batch = MutationBatch().delete(3, 2**33).delete(2**62, 5).delete(2**32, 1)
        assert batch.resolve(pieces, directed=True).removed_ids.tolist() == [0, 1, 2]
        with pytest.raises(MutationError, match=r"cannot delete edge \(1, 4\)"):
            MutationBatch().delete(1, 4).resolve(pieces, directed=True)

    def test_undirected_graph_rejected(self):
        g = Graph.from_undirected_edges([(0, 1), (1, 2)], num_vertices=3)
        with pytest.raises(MutationError, match="directed"):
            MutationBatch().insert(0, 2).resolve_against(g)

    def test_weights_dense_and_flagged(self, tiny_directed):
        resolved = (
            MutationBatch().insert(0, 4, weight=2.0).insert(4, 0).resolve_against(
                tiny_directed
            )
        )
        assert resolved.has_explicit_weights
        np.testing.assert_allclose(resolved.insert_weights, [2.0, 1.0])
        plain = MutationBatch().insert(0, 4).resolve_against(tiny_directed)
        assert not plain.has_explicit_weights


_PAIR = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def _edges_and_ops(draw):
    """Edges over few pairs (parallel copies are common) and a batch whose
    deletes mostly name an existing pair, so most batches resolve."""
    edges = draw(st.lists(_PAIR, max_size=30))
    deleted = _PAIR
    if edges:  # two in three deletes name an existing pair
        deleted = st.one_of(st.sampled_from(edges), st.sampled_from(edges), _PAIR)
    ops = draw(st.lists(st.one_of(
        _PAIR.map(lambda pair: (INSERT, *pair)),
        deleted.map(lambda pair: (DELETE, *pair)),
    ), max_size=16))
    return edges, ops


@settings(max_examples=80, deadline=None)
@given(
    edges_and_ops=_edges_and_ops(),
    num_pieces=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
# Pieces [2, 0] and [1]: the delete must take id 0, not the first id it meets.
@example(edges_and_ops=([(0, 1)] * 3, [(DELETE, 0, 1)]), num_pieces=2, seed=4)
def test_any_split_into_pieces_resolves_as_the_whole_graph(edges_and_ops, num_pieces, seed):
    """A spill's shards are pieces holding a shuffled subset of the ids;
    resolving against them must match resolving against the graph."""
    edges, ops = edges_and_ops
    graph = Graph.from_edges(edges, num_vertices=3, directed=True)
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.integers(0, graph.num_edges + 1, size=num_pieces - 1))
    pieces = [
        (ids, graph.src[ids], graph.dst[ids])
        for ids in np.split(rng.permutation(graph.num_edges), cuts)
    ]
    batch = MutationBatch(ops)
    try:
        expect = batch.resolve_against(graph)
    except MutationError as exc:
        with pytest.raises(MutationError, match=re.escape(str(exc))):
            batch.resolve(pieces, directed=True)
        return
    got = batch.resolve(pieces, directed=True)
    for field in dataclasses.fields(expect):
        want = getattr(expect, field.name)
        np.testing.assert_array_equal(getattr(got, field.name), want, err_msg=field.name)
        assert np.asarray(getattr(got, field.name)).dtype == np.asarray(want).dtype
