"""``EBVCore.assign`` does only per-edge work, and still equals the oracles.

Two shortcuts keep loop-invariant work out of the per-edge loop: the
running units are re-derived only when their counts move, which rests
on ``(x or 1) / p`` being the same double as ``max(x / p, 1.0 / p)``;
and a class mask's part ids come from a table capped at
``_MASK_TABLE`` entries.  Both are pinned here, and the fronts are held
to the loops they replaced at the ledger's own input sizes, not only on
the small graphs of ``test_core_identity.py``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    OracleEBV,
    assert_same_assignment,
    core_pair,
    oracle_stream_partition,
)
from repro.graph import generate_graph
from repro.partition import EBVPartitioner, StreamingEBVPartitioner
from repro.partition import ebv as ebv_module
from repro.partition.ebv import EBVCore, edge_processing_order


@given(
    x=st.integers(0, 2**53 - 1),
    p=st.integers(1, 4096),
    alpha=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
@example(x=0, p=1, alpha=1.0)
@example(x=1, p=4096, alpha=1.0)
@example(x=2**53 - 1, p=4095, alpha=5e-324)
@settings(max_examples=500, deadline=None)
def test_running_unit_identity(x, p, alpha):
    """``assign``'s running unit is, bit for bit, the ``max`` form it replaced."""
    assert (alpha / ((x or 1) / p)).hex() == (alpha / max(x / p, 1.0 / p)).hex()


def test_mask_table_cap(monkeypatch):
    """Past the cap a mask is peeled and not stored; the answer is the oracle's.

    One running-mode call at p = 67 (two 64-bit words per mask) spans
    three blocks, so most of its classes are met after the table is full.
    """
    monkeypatch.setattr(ebv_module, "_MASK_TABLE", 8)
    block = ebv_module._BLOCK
    n, m = 600, 2 * block + 100
    rng = np.random.default_rng(37)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    core, oracle = core_pair("running", 67, 1.0, 1.0, m, n)
    assert_same_assignment(core, oracle, src, dst, np.arange(m))
    # the table only ever grows, so its final size is its largest
    assert len(core._parts_of) == 8
    for mask, parts in core._parts_of.items():
        assert parts == tuple(i for i in range(67) if mask >> i & 1)


def test_mask_table_holds_every_class_at_p8():
    """At p = 8 there are 255 non-empty masks; the ledger input meets them all."""
    graph = generate_graph("powerlaw", vertices=10_000, seed=20210707)
    core = EBVCore(8, 1.0, 1.0, graph.num_edges, graph.num_vertices, maintained=True)
    out = np.full(graph.num_edges, -1, dtype=np.int64)
    core.assign(graph.src, graph.dst, edge_processing_order(graph), out)
    assert len(core._parts_of) == 255
    assert 0 not in core._parts_of


@pytest.mark.parametrize("seed", [20210707, 77001])
def test_stream_equals_parent_loop_at_ledger_size(seed):
    """``stream-ebv-spill``'s partition: n = 6000, chunk 4096, p = 8."""
    graph = generate_graph("powerlaw", vertices=6_000, seed=seed)
    got = StreamingEBVPartitioner(chunk_size=4096).partition(graph, 8)
    want = oracle_stream_partition(graph, 8, 4096)
    assert got.edge_parts.tobytes() == want.tobytes()


def test_ebv_equals_parent_loop_at_ledger_size():
    """``ebv-powerlaw``'s partition: n = 10 000, p = 8."""
    graph = generate_graph("powerlaw", vertices=10_000, seed=20210707)
    got = EBVPartitioner().partition(graph, 8)
    want, _ = OracleEBV().run(graph, 8)
    assert got.edge_parts.tobytes() == want.tobytes()
