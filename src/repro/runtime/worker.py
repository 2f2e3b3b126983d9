"""The per-worker superstep kernels every backend executes.

This is the single definition of what "one worker's computation stage"
and "one worker's slice of the replica exchange" mean.  Their one call
site is :class:`repro.runtime.shard.WorkerShard`, which every backend
runs — inline, on pool threads, in persistent child processes, or in
TCP workers.  Centralizing the gating rule (skip workers with no active
vertices), the activation rule (reactivate changed vertices or clear,
per ``program.reactivate_changed``) and the exchange pull order is what
guarantees all backends produce bit-identical results: they run *these*
functions per worker and nothing else.

The exchange stage is sharded by destination worker and split into two
pull phases with a barrier between them (see
:class:`repro.runtime.base.RoutePlan`):

``superstep_exchange_up``
    Worker ``w`` pulls every changed mirror value aimed at its masters
    from the sending workers' arrays.  Minimize mode folds them in with
    ``min`` and marks improved masters dirty; accumulate mode sums the
    inbound partials and applies ``program.apply`` to its own masters.
    Writes touch only worker ``w``'s arrays — mirror reads on other
    workers are stable because compute has already barriered.

``superstep_exchange_down``
    Worker ``w`` pulls the (dirty, in minimize mode) master values for
    its mirrors from the owning workers' arrays.  Requires every
    worker's up phase to have finished first: it reads master values
    and dirty masks the up phase writes.

Write-disjointness is what makes the sharding race-free: within either
phase, worker ``w`` writes only master positions (up) or only mirror
positions (down) of its *own* arrays, while other workers read the
complementary positions — no element is ever read and written by
different workers in the same phase.

Both phases return exact per-source message tallies (a message pulled
by ``w`` from ``src`` was "sent" by ``src`` and "received" by ``w``);
:func:`repro.runtime.base.assemble_exchange` folds them into the global
per-worker sent/received arrays the cost model consumes.

Per run versus per superstep: a kernel call pays only for what this
superstep changed.  What depends on the layout alone — the inbound
routes, ``local.master_index()``, and for the programs
``local.out_fanout()`` / ``cc_roots()`` / ``out_csr()`` — is computed
once per run in the process that runs the shard and cached on its
:class:`~repro.bsp.distributed.LocalSubgraph`.  The per-superstep
scatters use plain indexed ``+=`` / ``=`` instead of ``np.add.at`` /
``np.minimum.at``; that is the same arithmetic in the same order, not
an approximation of it, because a route names each master at most once
(no index repeats within one scatter) and routes are still folded in
one after the other, in plan order.  ``PageRank.compute`` accumulates
with a C kernel (``apps/pagerank_kernel.c``) which, like ``np.add.at``
on a zeroed buffer, adds the shares in edge order starting from 0.0.

Kernels here are deliberately observability-free: they never import
:mod:`repro.obs` or read a clock.  The *caller*
(:class:`~repro.runtime.shard.WorkerShard`) brackets the kernel call
with monotonic-clock reads and the session hands the window to its
attached recorder — see :func:`repro.runtime.base.finish_compute_stage`.  The
``worker-purity`` lint rule enforces the no-obs-import half of this
contract.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..bsp.distributed import LocalSubgraph, _Route
from ..bsp.program import ACCUMULATE, SubgraphProgram

__all__ = [
    "superstep_compute",
    "superstep_exchange_up",
    "superstep_exchange_down",
]

#: one worker's inbound routes: ``(source_worker, route)`` pairs.
InboundRoutes = Sequence[Tuple[int, _Route]]


def superstep_compute(
    program: SubgraphProgram,
    local: LocalSubgraph,
    values: np.ndarray,
    active: Optional[np.ndarray],
    changed: np.ndarray,
    partials: Optional[np.ndarray],
    superstep: int = 0,
) -> float:
    """Run one worker's computation stage in place; return work units.

    Minimize mode mutates ``values`` (via ``program.compute``) and
    ``active`` (the engine's activation rule); accumulate mode fills
    ``partials`` and leaves ``values`` untouched.  ``changed`` always
    receives the program's change/send mask.

    ``superstep`` is the 0-based index of the superstep being computed.
    It is part of the compute contract (not hidden program state) so
    that superstep-dependent accounting — e.g. CC charging its one-time
    union-find pass — stays deterministic under checkpoint/resume,
    where programs are re-instantiated mid-run.
    """
    if program.mode == ACCUMULATE:
        assert partials is not None, "accumulate mode requires a partials buffer"
        res = program.compute(local, values, None, superstep)
        changed[:] = res.changed
        partials[:] = res.partials
        return float(res.work_units)

    assert active is not None, "minimize mode requires an active mask"
    if active.any():
        res = program.compute(local, values, active, superstep)
        changed[:] = res.changed
        work = float(res.work_units)
    else:
        changed[:] = False
        work = 0.0
    if program.reactivate_changed:
        active[:] = changed
    else:
        active[:] = False
    return work


def superstep_exchange_up(
    program: SubgraphProgram,
    local: LocalSubgraph,
    worker_id: int,
    inbound: InboundRoutes,
    values: List[np.ndarray],
    changed: List[np.ndarray],
    active: Optional[np.ndarray],
    dirty: Optional[np.ndarray],
    partials: Optional[List[np.ndarray]],
    sums: Optional[np.ndarray],
) -> Tuple[np.ndarray, float]:
    """Pull changed mirror values into this worker's masters, in place.

    ``values``/``changed``/``partials`` are *all* workers' arrays (this
    worker reads its inbound sources and writes only its own entry);
    ``active``, ``dirty`` and ``sums`` belong to this worker alone.

    Returns ``(counts, delta)``: ``counts[src]`` is the number of
    messages pulled from worker ``src``, ``delta`` is this worker's
    contribution to the accumulate-mode global convergence delta (0.0
    in minimize mode).
    """
    p = len(values)
    counts = np.zeros(p, dtype=np.int64)
    own = values[worker_id]

    if program.mode == ACCUMULATE:
        assert partials is not None and sums is not None
        sums[:] = partials[worker_id]
        for src, route in inbound:
            sel = changed[src][route.src_index]
            sent = int(np.count_nonzero(sel))
            if not sent:
                continue
            counts[src] += sent
            src_idx, dst_idx = route.src_index, route.dst_index
            if sent < sel.size:
                src_idx, dst_idx = src_idx[sel], dst_idx[sel]
            # A route names each master at most once, so ``+=`` is exact.
            sums[dst_idx] += partials[src][src_idx]
        masters = local.master_index()
        new_vals = program.apply(local, own, sums)[masters]
        delta = float(np.abs(new_vals - own[masters]).sum())
        own[masters] = new_vals
        return counts, delta

    assert active is not None and dirty is not None
    # Masters whose value improved this superstep — seeded from the
    # local compute's change mask, extended by inbound improvements.
    dirty[:] = changed[worker_id] & local.is_master
    for src, route in inbound:
        sel = changed[src][route.src_index]
        sent = int(np.count_nonzero(sel))
        if not sent:
            continue
        counts[src] += sent
        dst_idx = route.dst_index[sel]
        vals = values[src][route.src_index[sel]]
        better = vals < own[dst_idx]
        if better.any():
            improved = dst_idx[better]
            # One entry per master and ``vals < own`` there: plain store.
            own[improved] = vals[better]
            dirty[improved] = True
            active[improved] = True
    return counts, 0.0


def superstep_exchange_down(
    program: SubgraphProgram,
    local: LocalSubgraph,
    worker_id: int,
    inbound: InboundRoutes,
    values: List[np.ndarray],
    active: Optional[np.ndarray],
    dirty: Optional[List[np.ndarray]],
) -> np.ndarray:
    """Pull master values into this worker's mirrors, in place.

    Must only run after *every* worker finished
    :func:`superstep_exchange_up`: it reads master values (and, in
    minimize mode, the ``dirty`` masks) the up phase writes on other
    workers.  Each mirror has exactly one master, so the writes of the
    pulls are disjoint and order-independent.

    Returns the per-source message tally (see
    :func:`superstep_exchange_up`).
    """
    p = len(values)
    counts = np.zeros(p, dtype=np.int64)
    own = values[worker_id]

    if program.mode == ACCUMULATE:
        # Full broadcast: every master value refreshes its mirrors.
        for src, route in inbound:
            counts[src] += int(route.src_index.shape[0])
            own[route.dst_index] = values[src][route.src_index]
        return counts

    assert active is not None and dirty is not None
    for src, route in inbound:
        sel = dirty[src][route.src_index]
        if not sel.any():
            continue
        src_idx = route.src_index[sel]
        dst_idx = route.dst_index[sel]
        vals = values[src][src_idx]
        counts[src] += int(sel.sum())
        better = vals < own[dst_idx]
        if better.any():
            own[dst_idx[better]] = vals[better]
            active[dst_idx[better]] = True
    return counts
