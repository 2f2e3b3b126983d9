"""Property tests: ``EBVCore`` under random ``seed``/``assign`` interleavings.

After every call the redundant state (per-part counts, the derived
counters) must equal what the replica bitmap and the assignment history
say, and — for random balance weights — the assignment and the whole
state must equal ``oracles.OracleCore``'s, which evaluates Eq. 2 on
every part for every edge.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import CORE_MODES, assert_same_assignment, assert_same_state, core_pair
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
        src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T.copy()
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


weights = st.floats(min_value=1e-9, max_value=1e3)


@given(
    steps=steps,
    p=st.sampled_from([1, 2, 3, 5, 8, 9, 65]),
    alpha=weights,
    beta=weights,
    mode=st.sampled_from(sorted(CORE_MODES)),
)
@settings(max_examples=200, deadline=None)
def test_assignment_and_state_match_the_all_parts_oracle(steps, p, alpha, beta, mode):
    """Candidate-class scoring is exact, not approximate: for any α, β in
    [1e-9, 1e3] every call leaves the same bytes behind as the oracle."""
    total_edges = sum(len(edges) for _, edges, _ in steps)
    core, oracle = core_pair(mode, p, alpha, beta, total_edges, NUM_VERTICES)
    for is_seed, edges, entropy in steps:
        src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T.copy()
        rng = np.random.default_rng(entropy)
        if not is_seed:
            assert_same_assignment(core, oracle, src, dst, rng.permutation(src.shape[0]))
        elif mode != "maintained":  # a maintained core cannot be seeded
            parts = rng.integers(0, p, size=src.shape[0])
            core.seed(src, dst, parts)
            oracle.seed(src, dst, parts)
            assert_same_state(core, oracle)


def test_a_maintained_core_refuses_seeding():
    """``seed`` rewrites the counts; the maintained balance vector would
    silently keep scoring with the old ones."""
    core = EBVCore(4, 1.0, 1.0, 10, 6, maintained=True)
    with pytest.raises(ValueError, match="derived core"):
        core.seed(np.array([0]), np.array([1]), np.array([2]))
    assert core.edges_assigned == 0 and not core.member.any()
