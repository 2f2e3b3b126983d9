"""Reference superstep kernels the hoisted kernels are tested against.

Not production code.  These are ``PageRank.compute``,
``FeaturePropagation.compute`` and ``superstep_exchange_up`` as they
stood at commit 43ffabd, before the loop-invariant work moved onto
``LocalSubgraph`` and ``np.add.at`` / ``np.minimum.at`` left the
accumulate and minimize kernels: the out-degree gathered and divided per
*edge*, every scatter through a ufunc ``.at``, masters selected by
boolean mask.  Bodies copied verbatim (methods became functions taking
the program first), so ``test_kernel_identity.py`` can require the new
kernels to produce the same bits on any shard.

Loaded by path (``test_kernel_identity.py``) because ``tests/partition``
and ``tests/graph`` have an ``oracles`` module too and test directories
are not packages.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.bsp.distributed import LocalSubgraph
from repro.bsp.program import ACCUMULATE, ComputeResult, SubgraphProgram


def oracle_pagerank_compute(
    program: SubgraphProgram, local: LocalSubgraph, values: np.ndarray
) -> ComputeResult:
    """Accumulate rank/outdeg along local edges into partial sums."""
    partials = np.zeros(local.num_vertices)
    src, dst = local.src, local.dst
    work = float(src.size + local.num_vertices)
    if src.size:
        outdeg = local.global_out_degree[src].astype(np.float64)
        contrib = np.where(outdeg > 0, values[src] / np.maximum(outdeg, 1), 0.0)
        np.add.at(partials, dst, contrib)
    # Mirrors only ship nonzero partials (a zero adds nothing at the
    # master); masters always apply.
    return ComputeResult(changed=partials != 0.0, work_units=work, partials=partials)


def oracle_feature_propagation_compute(
    program: SubgraphProgram, local: LocalSubgraph, values: np.ndarray
) -> ComputeResult:
    """Partial = Σ over local in-edges of X[src]/outdeg(src)."""
    partials = np.zeros_like(values)
    src, dst = local.src, local.dst
    work = float(src.size + local.num_vertices)
    if src.size:
        outdeg = local.global_out_degree[src].astype(np.float64)
        contrib = values[src] / np.maximum(outdeg, 1.0)[:, None]
        np.add.at(partials, dst, contrib)
    send = np.abs(partials).sum(axis=1) > 0.0
    return ComputeResult(changed=send, work_units=work, partials=partials)


def oracle_superstep_exchange_up(
    program: SubgraphProgram,
    local: LocalSubgraph,
    worker_id: int,
    inbound,
    values: List[np.ndarray],
    changed: List[np.ndarray],
    active: Optional[np.ndarray],
    dirty: Optional[np.ndarray],
    partials: Optional[List[np.ndarray]],
    sums: Optional[np.ndarray],
) -> Tuple[np.ndarray, float]:
    """Pull changed mirror values into this worker's masters, in place."""
    p = len(values)
    counts = np.zeros(p, dtype=np.int64)
    own = values[worker_id]

    if program.mode == ACCUMULATE:
        assert partials is not None and sums is not None
        sums[:] = partials[worker_id]
        for src, route in inbound:
            sel = changed[src][route.src_index]
            if not sel.any():
                continue
            counts[src] += int(sel.sum())
            np.add.at(
                sums, route.dst_index[sel], partials[src][route.src_index[sel]]
            )
        new_vals = program.apply(local, own, sums)
        mask = local.is_master
        delta = float(np.abs(new_vals[mask] - own[mask]).sum())
        own[mask] = new_vals[mask]
        return counts, delta

    assert active is not None and dirty is not None
    # Masters whose value improved this superstep — seeded from the
    # local compute's change mask, extended by inbound improvements.
    dirty[:] = changed[worker_id] & local.is_master
    for src, route in inbound:
        sel = changed[src][route.src_index]
        if not sel.any():
            continue
        src_idx = route.src_index[sel]
        dst_idx = route.dst_index[sel]
        vals = values[src][src_idx]
        counts[src] += int(sel.sum())
        better = vals < own[dst_idx]
        if better.any():
            np.minimum.at(own, dst_idx[better], vals[better])
            dirty[dst_idx[better]] = True
            active[dst_idx[better]] = True
    return counts, 0.0
