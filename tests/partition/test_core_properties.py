"""Property test: ``EBVCore``'s counters always agree with its bitmap.

Random interleavings of ``seed`` and ``assign`` over random edge
windows, in both normalization modes of the derived policy.  After
every call the redundant state (per-part counts, the derived counters)
must equal what the replica bitmap and the assignment history say.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import Graph
from repro.partition import VERTEX_CUT, PartitionResult, replication_factor
from repro.partition.ebv import EBVCore

NUM_VERTICES = 12

windows = st.lists(
    st.tuples(st.integers(0, NUM_VERTICES - 1), st.integers(0, NUM_VERTICES - 1)),
    min_size=0,
    max_size=20,
)
# (is_seed, edges, entropy for the seed parts / the processing order)
steps = st.lists(
    st.tuples(st.booleans(), windows, st.integers(0, 2**31)), min_size=1, max_size=6
)


@given(steps=steps, p=st.integers(1, 6), exact_totals=st.booleans())
@settings(max_examples=150, deadline=None)
def test_counters_match_bitmap_after_every_call(steps, p, exact_totals):
    total_edges = sum(len(edges) for _, edges, _ in steps)
    totals = (total_edges, NUM_VERTICES) if exact_totals else ()
    core = EBVCore(p, 1.0, 1.0, *totals)
    core.grow(NUM_VERTICES)
    src_so_far = np.empty(0, dtype=np.int64)
    dst_so_far = np.empty(0, dtype=np.int64)
    parts_so_far = np.empty(0, dtype=np.int64)
    for is_seed, edges, entropy in steps:
        src, dst = (np.array(edges, dtype=np.int64).reshape(-1, 2).T)
        rng = np.random.default_rng(entropy)
        if is_seed:
            parts = rng.integers(0, p, size=src.shape[0])
            core.seed(src, dst, parts)
        else:
            parts = np.full(src.shape[0], -1, dtype=np.int64)
            core.assign(src, dst, rng.permutation(src.shape[0]), parts)
            assert np.all((parts >= 0) & (parts < p))
        src_so_far = np.concatenate([src_so_far, src])
        dst_so_far = np.concatenate([dst_so_far, dst])
        parts_so_far = np.concatenate([parts_so_far, parts])

        member = core.member
        history = np.zeros_like(member)
        history[src_so_far, parts_so_far] = True
        history[dst_so_far, parts_so_far] = True
        assert np.array_equal(member, history)
        assert np.array_equal(core.vcount, member.sum(axis=0))
        assert np.array_equal(core.ecount, np.bincount(parts_so_far, minlength=p))
        assert core.edges_assigned == parts_so_far.shape[0]
        assert core.vertices_covered == member.sum()
        assert core.vertices_seen == member.any(axis=1).sum()
        if parts_so_far.shape[0]:
            assembled = PartitionResult(
                Graph(NUM_VERTICES, src_so_far, dst_so_far),
                p,
                edge_parts=parts_so_far,
                kind=VERTEX_CUT,
            )
            assert core.replication_factor(NUM_VERTICES) == replication_factor(assembled)
