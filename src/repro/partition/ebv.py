"""EBV: the Efficient and Balanced Vertex-cut partitioner (Algorithm 1).

EBV processes edges one at a time and assigns edge ``(u, v)`` to the
subgraph ``i`` minimizing the evaluation function (Eq. 2)::

    Eva_(u,v)(i) = I(u ∉ keep[i]) + I(v ∉ keep[i])
                 + α · ecount[i] / (|E| / p)
                 + β · vcount[i] / (|V| / p)

The two indicator terms penalize creating new vertex replicas (driving
the replication factor down) while the α and β terms penalize edge and
vertex count imbalance (driving both imbalance factors toward 1).  Ties
are broken toward the lowest subgraph id, matching ``arg min``.

Before partitioning, the *sorting preprocessing* (Section IV-C) orders
edges by ascending sum of end-vertex degrees, so low-degree edges are
spread evenly as per-subgraph "seeds" before high-degree hubs arrive.
The ``sort_order`` knob also supports the ablations from DESIGN.md (A3):
descending, random, and raw input order.
"""

from __future__ import annotations

from math import inf
from typing import Dict, Optional, Tuple

import numpy as np

from ..graph import Graph
from .base import VERTEX_CUT, Partitioner, PartitionResult

__all__ = ["EBVCore", "EBVPartitioner", "SORT_ORDERS", "check_weights", "edge_processing_order"]

SORT_ORDERS = ("ascending", "descending", "random", "input")

#: edges whose endpoints are packed into Python ints at once; bounds the
#: scalar working set of :meth:`EBVCore.assign` whatever the call's length
_BLOCK = 4096

#: class masks whose part ids :meth:`EBVCore.assign` keeps in a table;
#: 4096 covers every mask at ``p <= 12``, and past it a mask's parts are
#: peeled off its bits on every use instead of stored
_MASK_TABLE = 4096


def check_weights(alpha: float, beta: float) -> Tuple[float, float]:
    """Eq. 2's balance weights as floats; each must satisfy ``0 < x < inf``.

    Zero or negative weights reward imbalance, and a NaN or infinite one
    poisons every score, so every EBV front checks them here.
    """
    alpha, beta = float(alpha), float(beta)
    if not (0 < alpha < inf and 0 < beta < inf):
        raise ValueError(
            f"alpha and beta must be positive and finite, got alpha={alpha}, beta={beta}"
        )
    return alpha, beta


def edge_processing_order(
    graph: Graph, sort_order: str = "ascending", seed: int = 0
) -> np.ndarray:
    """Return the edge permutation used by EBV's preprocessing.

    ``ascending`` is the paper's EBV-sort (stable sort by the sum of
    end-vertex total degrees); ``input`` is EBV-unsort; ``descending``
    and ``random`` exist for the sorting ablation.
    """
    if sort_order not in SORT_ORDERS:
        raise ValueError(f"sort_order must be one of {SORT_ORDERS}")
    if sort_order == "input":
        return np.arange(graph.num_edges, dtype=np.int64)
    if sort_order == "random":
        rng = np.random.default_rng(seed)
        return rng.permutation(graph.num_edges).astype(np.int64)
    degrees = graph.degrees()
    key = degrees[graph.src] + degrees[graph.dst]
    order = np.argsort(key, kind="stable")
    if sort_order == "descending":
        order = order[::-1]
    return order.astype(np.int64)


class EBVCore:
    """Replica state and the one per-edge Eq. 2 loop every EBV variant drives.

    State is the replica bitmap ``member`` (``member[v, i]`` iff
    ``v ∈ keep[i]``; rows grow on demand via :meth:`grow`) and the int64
    per-part ``ecount``/``vcount``.  :meth:`assign` is Algorithm 1's
    loop: ``arg min`` of Eq. 2 over the parts (ties to the lowest id),
    commit.  The offline, streaming and sharded partitioners are fronts
    that choose the processing order and own whatever else is theirs
    (degree estimates, epoch snapshots); none of them scores.

    Normalization: pass the exact ``num_edges``/``num_vertices`` to
    divide by ``|E|/p`` and ``|V|/p`` as Eq. 2 is written; leave them
    ``None`` to divide by the *running* totals instead (floored at one
    edge/vertex per part so the first edges never divide by zero) —
    the same greedy score, computable mid-stream.

    Balance policy (internal; the fronts choose, users never do): the
    ``α·ecount/(|E|/p) + β·vcount/(|V|/p)`` term is either *maintained*
    (a float vector bumped by one unit per commit) or *derived* from the
    integer counts before every edge.  The two round differently in the
    last ulp and a single flipped tie cascades through the whole
    assignment, so each front keeps the policy its published numbers
    were produced with.  Maintained needs fixed units and state that is
    never rewritten from outside (offline EBV); running totals
    (streaming), :meth:`seed` and rolled-back snapshots (sharded) all
    need derived.

    Candidate classes: Eq. 2 is two integer replica terms plus a balance
    term, so with ``score(i) = balance(i) + 2`` every part of class
    ``k = I(u ∈ keep[i]) + I(v ∈ keep[i])`` has ``eva(i) = score(i) - k``
    — bit for bit, since ``x - 1.0`` is exact for a double ``2 ≤ x <
    2**53``.  :meth:`assign` therefore scores only the highest non-empty
    class (the parts holding both endpoints, else either) and takes its
    least score when that beats a lower bound on every part's score by
    more than one class; otherwise (:attr:`full_scans` counts these) it
    evaluates Eq. 2 on all ``p`` parts.  The class is read off packed
    replica masks: per block of ``_BLOCK`` edges the touched rows of
    ``member`` become one Python int per vertex, and the counts and the
    balance vector become Python lists for the call.  The arrays above
    stay the canonical state between calls — rows are written back
    after every block, counts and balance at the end of the call.

    Per-edge work only: a class mask's part ids (ascending, so ties
    still go to the lowest id) come from a table kept across calls and
    filled on first use; it holds at most ``_MASK_TABLE`` non-empty
    masks — every one of them at ``p <= 12`` — and a mask met past the
    cap is peeled bit by bit on each use and not stored.  Running units
    move only with their counts: ``(x or 1) / p`` is the same double as
    ``max(x / p, 1.0 / p)`` for every int ``x >= 0`` (division by ``p``
    is monotone, and ``x = 1`` gives equal operands), so the edge unit
    is ``α / ((assigned or 1) / p)`` per edge and the vertex unit is
    re-derived once per call and after each commit that adds a replica.
    """

    def __init__(
        self,
        num_parts: int,
        alpha: float,
        beta: float,
        num_edges: Optional[int] = None,
        num_vertices: Optional[int] = None,
        maintained: bool = False,
    ):
        if num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        self.num_parts = p = int(num_parts)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.member = np.zeros((int(num_vertices or 0), p), dtype=bool)
        self.ecount = np.zeros(p, dtype=np.int64)
        self.vcount = np.zeros(p, dtype=np.int64)
        self._units: Optional[Tuple[float, float]] = None
        if num_edges is not None and num_vertices is not None:
            self._units = (
                self.alpha / max(num_edges / p, 1e-12),
                self.beta / max(num_vertices / p, 1e-12),
            )
        self._balance = np.zeros(p, dtype=np.float64) if maintained else None
        #: edges whose arg min needed Eq. 2 on every part (see :meth:`assign`)
        self.full_scans = 0
        #: class mask -> its part ids, ascending; at most ``_MASK_TABLE`` entries
        self._parts_of: Dict[int, Tuple[int, ...]] = {}

    @property
    def edges_assigned(self) -> int:
        return int(self.ecount.sum())

    @property
    def vertices_covered(self) -> int:
        """``Σ_i |V_i|`` — (vertex, part) incidences."""
        return int(self.vcount.sum())

    @property
    def vertices_seen(self) -> int:
        """Distinct vertices holding at least one replica."""
        return int(np.count_nonzero(self.member.any(axis=1)))

    def replication_factor(self, num_vertices: Optional[int] = None) -> float:
        """``Σ_i |V_i| / |V|`` so far (1.0 before any edge).

        ``num_vertices`` is the metrics convention of
        :func:`repro.partition.replication_factor`, which also counts
        isolated vertices; without it the denominator is the distinct
        vertices seen, all that is known mid-stream.
        """
        denom = self.vertices_seen if num_vertices is None else int(num_vertices)
        if denom <= 0:
            return 1.0
        return self.vertices_covered / denom

    def grow(self, num_vertices: int) -> None:
        """Make room for vertex ids below ``num_vertices`` (amortized O(1))."""
        have = self.member.shape[0]
        if num_vertices > have:
            grown = np.zeros((max(num_vertices, 2 * have), self.num_parts), dtype=bool)
            grown[:have] = self.member
            self.member = grown

    def seed(self, src: np.ndarray, dst: np.ndarray, parts: np.ndarray) -> None:
        """Add edges already assigned elsewhere: ``(src[j], dst[j]) → parts[j]``.

        Writes straight into the bitmap and re-derives ``vcount`` from
        it, so calls add up (one per spilled shard, say).  Derived
        cores only: a maintained balance vector cannot be rebuilt.
        """
        if self._balance is not None:
            raise ValueError(
                "seed() needs a derived core: the maintained balance vector "
                "cannot be rebuilt from counts"
            )
        self.member[src, parts] = True
        self.member[dst, parts] = True
        self.ecount += np.bincount(parts, minlength=self.num_parts)
        self.vcount[:] = np.count_nonzero(self.member, axis=0)

    def assign(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        order: np.ndarray,
        out: np.ndarray,
        trace: Optional[np.ndarray] = None,
    ) -> None:
        """Assign edges ``(src[j], dst[j])`` for ``j`` in ``order``, in order.

        Writes the chosen part to ``out[j]`` and, when given,
        ``Σ_i |V_i|`` after the ``t``-th step to ``trace[t]``.  Vertex
        ids must lie in ``[0, member.shape[0])`` (see :meth:`grow`).
        """
        p = self.num_parts
        member, balance = self.member, self._balance
        maintained = balance is not None
        alpha, beta = self.alpha, self.beta
        table = self._parts_of
        running = self._units is None
        ec, vc = self.ecount.tolist(), self.vcount.tolist()
        bal = balance.tolist() if maintained else None
        assigned, covered = sum(ec), sum(vc)
        if running:
            # re-derived below only when ``covered`` moves
            vertex_unit = beta / ((covered or 1) / p)
        else:
            edge_unit, vertex_unit = self._units
        # ``floor`` bounds every part's score from below: the score of
        # min(bal), or of min(ec) and min(vc) together.  All three only
        # grow inside a call, so a stale minimum stays a bound; it is
        # refreshed when the guard below fails.
        low_ec = low_vc = 0
        floor = 2.0
        for start in range(0, order.shape[0], _BLOCK):
            block = order[start : start + _BLOCK]
            size = block.shape[0]
            verts, local = np.unique(
                np.concatenate([src[block], dst[block]]), return_inverse=True
            )
            masks = _pack_rows(member[verts])
            local = local.tolist()
            chosen = [0] * size
            gains = []  # (step, local vertex, part) of every new replica
            covered_before = covered
            for step, (a, b) in enumerate(zip(local[:size], local[size:])):
                mask_u = masks[a]
                mask_v = masks[b]
                # score(i) = balance(i) + 2, so that eva(i) = score(i) - k
                # for the parts of class k = I(u ∈ keep[i]) + I(v ∈ keep[i])
                if running:
                    edge_unit = alpha / ((assigned + step or 1) / p)
                    floor = low_ec * edge_unit + low_vc * vertex_unit + 2.0
                # least score in the highest non-empty class, lowest id first
                rest = mask_u & mask_v or mask_u | mask_v
                candidates = table.get(rest)
                if candidates is None:
                    # first use, or past the cap: peel the bits from the
                    # top (cheaper than ``bits & -bits`` on wide masks)
                    candidates = []
                    bits = rest
                    while bits:
                        i = bits.bit_length() - 1
                        candidates.append(i)
                        bits ^= 1 << i
                    candidates.reverse()
                    if rest and len(table) < _MASK_TABLE:
                        table[rest] = tuple(candidates)
                best = inf
                for i in candidates:
                    score = (
                        bal[i] + 2.0
                        if maintained
                        else ec[i] * edge_unit + vc[i] * vertex_unit + 2.0
                    )
                    if score < best:
                        best = score
                        w = i
                # Every part outside the class sits at least one class lower
                # and scores at least ``floor``: the class winner is the
                # arg min iff it beats ``floor`` by more than that one.
                if not best - 1.0 < floor:
                    if maintained:
                        floor = min(bal) + 2.0
                    else:
                        low_ec, low_vc = min(ec), min(vc)
                        floor = low_ec * edge_unit + low_vc * vertex_unit + 2.0
                    if not best - 1.0 < floor:
                        # Eq. 2 over all parts, as Algorithm 1 writes it
                        self.full_scans += 1
                        if maintained:
                            eva = [x + 2.0 for x in bal]
                        else:
                            eva = [
                                e * edge_unit + v * vertex_unit + 2.0
                                for e, v in zip(ec, vc)
                            ]
                        eva = [
                            x - (mask_u >> i & 1) - (mask_v >> i & 1)
                            for i, x in enumerate(eva)
                        ]
                        w = eva.index(min(eva))
                ec[w] += 1
                bit = 1 << w
                gained = 0
                if not mask_u & bit:
                    masks[a] = mask_u | bit
                    gains.append((step, a, w))
                    gained = 1
                if a != b and not mask_v & bit:
                    masks[b] = mask_v | bit
                    gains.append((step, b, w))
                    gained += 1
                chosen[step] = w
                if maintained:
                    # one addition per unit, in commit order: this is the
                    # rounding the maintained policy exists to preserve
                    bumped = bal[w] + edge_unit
                    if gained:
                        bumped += vertex_unit
                        if gained == 2:
                            bumped += vertex_unit
                    bal[w] = bumped
                if gained:
                    vc[w] += gained
                    covered += gained
                    if running:
                        vertex_unit = beta / ((covered or 1) / p)
            assigned += size
            out[block] = chosen
            steps, rows, parts = np.array(gains, dtype=np.int64).reshape(-1, 3).T
            member[verts[rows], parts] = True
            if trace is not None:
                trace[start : start + size] = covered_before + np.cumsum(
                    np.bincount(steps, minlength=size)
                )
        self.ecount[:] = ec
        self.vcount[:] = vc
        if maintained:
            balance[:] = bal


def _pack_rows(rows: np.ndarray) -> list:
    """One Python int per row of a bool matrix; bit ``i`` is column ``i``."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    count, nbytes = packed.shape
    words = np.zeros((count, -(-nbytes // 8)), dtype="<u8")
    words.view(np.uint8)[:, :nbytes] = packed
    masks = words[:, 0].tolist()
    for k in range(1, words.shape[1]):
        high = words[:, k].tolist()
        masks = [m | (h << 64 * k) for m, h in zip(masks, high)]
    return masks


class EBVPartitioner(Partitioner):
    """Efficient and Balanced Vertex-cut partitioner.

    Parameters
    ----------
    alpha:
        Weight of the edge-balance term (default 1, per Section IV-C).
    beta:
        Weight of the vertex-balance term (default 1).
    sort_order:
        One of :data:`SORT_ORDERS`; ``"ascending"`` is EBV-sort (the
        paper default) and ``"input"`` is EBV-unsort.
    track_growth:
        When ``True``, record ``Σ_i |V_i|`` after every assigned edge so
        the Figure 5 replication-factor growth curve can be plotted; the
        trace is exposed as :attr:`last_trace`.
    seed:
        Only used by the ``"random"`` sort order.
    """

    name = "EBV"

    def __init__(
        self,
        alpha: float = 1.0,
        beta: float = 1.0,
        sort_order: str = "ascending",
        track_growth: bool = False,
        seed: int = 0,
    ):
        if sort_order not in SORT_ORDERS:
            raise ValueError(f"sort_order must be one of {SORT_ORDERS}")
        self.alpha, self.beta = check_weights(alpha, beta)
        self.sort_order = sort_order
        self.track_growth = bool(track_growth)
        self.seed = seed
        #: after :meth:`partition` with ``track_growth=True``: int64 array
        #: whose ``m``-th entry is ``Σ_i |V_i|`` after ``m+1`` edges.
        self.last_trace: Optional[np.ndarray] = None

    def partition(self, graph: Graph, num_parts: int) -> PartitionResult:
        """Run Algorithm 1 and return the vertex-cut partition."""
        m = graph.num_edges
        edge_parts = np.full(m, -1, dtype=np.int64)
        trace = np.zeros(m, dtype=np.int64) if self.track_growth else None
        # Exact totals and no rollback: the maintained balance policy.
        core = EBVCore(
            num_parts, self.alpha, self.beta, m, graph.num_vertices, maintained=True
        )
        order = edge_processing_order(graph, self.sort_order, self.seed)
        core.assign(graph.src, graph.dst, order, edge_parts, trace)
        self.last_trace = trace
        suffix = "-sort" if self.sort_order == "ascending" else (
            "-unsort" if self.sort_order == "input" else f"-{self.sort_order}"
        )
        return PartitionResult(
            graph,
            num_parts,
            edge_parts=edge_parts,
            kind=VERTEX_CUT,
            method=f"{self.name}{suffix}" if suffix != "-sort" else self.name,
        )

    # ------------------------------------------------------------------
    # Figure 5 support
    # ------------------------------------------------------------------

    def growth_curve(
        self, graph: Graph, max_points: int = 512
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(edges_processed, replication_factor)`` sample arrays.

        Requires :meth:`partition` to have been called with
        ``track_growth=True``.  Down-samples the per-edge trace to at most
        ``max_points`` points for plotting/reporting.
        """
        if self.last_trace is None:
            raise RuntimeError("partition(..) with track_growth=True must run first")
        m = self.last_trace.shape[0]
        idx = np.unique(np.linspace(0, m - 1, num=min(max_points, m)).astype(np.int64))
        x = idx + 1
        y = self.last_trace[idx] / graph.num_vertices
        return x, y
