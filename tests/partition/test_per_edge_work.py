"""``EBVCore.assign``'s arithmetic, and the fronts at the ledger's sizes.

The kernel's running units are ``α / ((x or 1) / p)``, which rests on
``(x or 1) / p`` being the same double as the oracles' ``max(x / p,
1.0 / p)``; that identity is pinned here, and the fronts are held to
the loops they replaced at the ledger's own input sizes, not only on
the small graphs of ``test_core_identity.py``.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import OracleEBV, oracle_stream_partition
from repro.graph import generate_graph
from repro.partition import EBVPartitioner, StreamingEBVPartitioner


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
    """The kernel's running unit is, bit for bit, the oracles' ``max`` form."""
    assert (alpha / ((x or 1) / p)).hex() == (alpha / max(x / p, 1.0 / p)).hex()


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
