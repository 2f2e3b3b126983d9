"""Reference implementations the EBV scoring core is tested against.

Not production code.  The first three are the per-edge loops as they
stood before ``repro.partition.ebv.EBVCore`` replaced them (commit
48f5c19), copied verbatim so ``test_core_identity.py`` can require the
core's three fronts to reproduce them byte for byte:

* :class:`OracleEBV` — ``EBVPartitioner._run`` (maintained float
  balance, list-of-lists ``parts_of``);
* :class:`OracleStreamingAssigner` — the streaming loop, with its
  ``seed``/``seed_state`` warm start;
* :class:`OracleShardedAssigner` — the sharded epoch loop.

The fourth, :func:`algorithm1_exact`, is the paper's Algorithm 1 in
exact integer arithmetic: no floats, so ties always break to the lowest
subgraph id.

The fifth, :class:`OracleCore`, is ``EBVCore`` as it stood at commit
7aeb7a2 — Eq. 2 evaluated on all ``p`` parts for every edge, in numpy —
kept so the compiled ``EBVCore.assign`` can be compared with it call by
call, state included.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph import Graph
from repro.partition.ebv import EBVCore, edge_processing_order


class OracleEBV:
    """Parent ``EBVPartitioner._run``, verbatim."""

    def __init__(
        self,
        alpha: float = 1.0,
        beta: float = 1.0,
        sort_order: str = "ascending",
        track_growth: bool = False,
        seed: int = 0,
    ):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.sort_order = sort_order
        self.track_growth = bool(track_growth)
        self.seed = seed

    def run(
        self, graph: Graph, num_parts: int
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        if num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        m = graph.num_edges
        n = graph.num_vertices
        order = edge_processing_order(graph, self.sort_order, self.seed)
        edge_parts = np.full(m, -1, dtype=np.int64)
        if num_parts == 1:
            edge_parts[:] = 0
            trace = None
            if self.track_growth and m:
                # With one part, V_1 grows as distinct endpoints appear.
                seen = np.zeros(n, dtype=bool)
                trace = np.zeros(m, dtype=np.int64)
                count = 0
                for t, e in enumerate(order.tolist()):
                    for w in (int(graph.src[e]), int(graph.dst[e])):
                        if not seen[w]:
                            seen[w] = True
                            count += 1
                    trace[t] = count
            return edge_parts, trace

        # Per-part balance term, updated incrementally:
        #   balance[i] = α·ecount[i]/(|E|/p) + β·vcount[i]/(|V|/p)
        balance = np.zeros(num_parts, dtype=np.float64)
        edge_unit = self.alpha / (m / num_parts) if m else 0.0
        vertex_unit = self.beta / (n / num_parts)
        # parts_of[v]: list of part ids whose keep-set contains v.
        parts_of = [[] for _ in range(n)]
        trace = np.zeros(m, dtype=np.int64) if self.track_growth else None
        covered = 0

        src = graph.src
        dst = graph.dst
        eva = np.empty(num_parts, dtype=np.float64)
        for t, e in enumerate(order.tolist()):
            u = int(src[e])
            v = int(dst[e])
            pu = parts_of[u]
            pv = parts_of[v]
            # Eva[i] = balance[i] + 2 - I(u∈keep[i]) - I(v∈keep[i])
            np.add(balance, 2.0, out=eva)
            if pu:
                eva[pu] -= 1.0
            if pv:
                eva[pv] -= 1.0
            i = int(np.argmin(eva))
            edge_parts[e] = i
            balance[i] += edge_unit
            if i not in pu:
                pu.append(i)
                balance[i] += vertex_unit
                covered += 1
            if u != v and i not in pv:
                pv.append(i)
                balance[i] += vertex_unit
                covered += 1
            if trace is not None:
                trace[t] = covered
        return edge_parts, trace


class OracleStreamingAssigner:
    """Parent ``StreamingEBVAssigner``, verbatim (list-of-lists replicas).

    Holds the full streaming state — online degree estimates, per-vertex
    replica sets, per-part balance scores — in O(vertices seen) memory,
    growing lazily as new vertex ids appear, so it can be driven either
    from in-memory arrays or from an on-disk stream of unknown extent.
    """

    def __init__(self, num_parts: int, chunk_size: int, alpha: float, beta: float):
        if num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        self.num_parts = int(num_parts)
        self.window = int(chunk_size)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._seen_degree = np.zeros(0, dtype=np.int64)
        self._parts_of: List[List[int]] = []
        self._ecount = np.zeros(self.num_parts, dtype=np.float64)
        self._vcount = np.zeros(self.num_parts, dtype=np.float64)
        self._eva = np.empty(self.num_parts, dtype=np.float64)
        self.edges_assigned = 0
        #: (vertex, part) incidences — Σ_v |parts_of[v]|
        self.vertices_covered = 0
        #: distinct vertices holding at least one replica
        self.vertices_seen = 0

    def _grow(self, needed: int) -> None:
        if needed > len(self._parts_of):
            self._parts_of.extend([] for _ in range(needed - len(self._parts_of)))
        if needed > self._seen_degree.shape[0]:
            # capacity doubles so repeated growth stays amortized O(1)
            grown = np.zeros(
                max(needed, 2 * self._seen_degree.shape[0]), dtype=np.int64
            )
            grown[: self._seen_degree.shape[0]] = self._seen_degree
            self._seen_degree = grown

    def seed(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        parts: np.ndarray,
        num_vertices: Optional[int] = None,
    ) -> None:
        """Warm-start the core from an existing edge assignment.

        Rebuilds the whole streaming state — degree estimates, replica
        sets, balance counters — as if every ``(src[i], dst[i])`` edge
        had already been assigned to ``parts[i]``, in O(|E|) vectorized
        work.  Subsequent :meth:`assign` calls then score *new* edges
        against the live partition instead of an empty one, which is
        what lets :func:`repro.mutate.apply_mutations` re-assign only
        the inserted edges of a mutation batch.

        The seeded state is equivalent for all future scoring (replica
        membership and per-part counters), not a byte replay of the
        original assignment history.  Only a fresh assigner may be
        seeded.
        """
        if self.edges_assigned or self.vertices_covered:
            raise ValueError("seed() requires a fresh assigner (no edges assigned yet)")
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        parts = np.ascontiguousarray(parts, dtype=np.int64)
        if not (src.shape == dst.shape == parts.shape):
            raise ValueError("src, dst and parts must have identical shapes")
        if parts.shape[0] and (parts.min() < 0 or parts.max() >= self.num_parts):
            raise ValueError(
                f"seed parts must lie in [0, {self.num_parts}); "
                f"got range [{int(parts.min())}, {int(parts.max())}]"
            )
        m = src.shape[0]
        n = int(num_vertices) if num_vertices is not None else 0
        if m:
            n = max(n, int(max(src.max(), dst.max())) + 1)
        if m == 0:
            if n:
                self._grow(n)
            return
        seen_degree = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
        # Distinct (vertex, part) incidences; self-loops collapse to one.
        pair_keys = np.unique(
            np.concatenate([src, dst]) * self.num_parts + np.tile(parts, 2)
        )
        self.seed_state(
            seen_degree,
            pair_keys // self.num_parts,
            pair_keys % self.num_parts,
            np.bincount(parts, minlength=self.num_parts),
            m,
        )

    def seed_state(
        self,
        seen_degree: np.ndarray,
        pair_vertex: np.ndarray,
        pair_part: np.ndarray,
        edge_counts: np.ndarray,
        num_edges: int,
    ) -> None:
        """Warm-start from precomputed aggregates (out-of-core seeding).

        The aggregate form of :meth:`seed`, for callers that stream the
        existing assignment shard by shard and cannot hold full edge
        arrays: per-vertex degrees, the distinct ``(vertex, part)``
        incidence pairs, per-part edge counts and the total edge count.
        ``pair_vertex``/``pair_part`` must be parallel and deduplicated.
        """
        if self.edges_assigned or self.vertices_covered:
            raise ValueError("seed_state() requires a fresh assigner")
        seen_degree = np.ascontiguousarray(seen_degree, dtype=np.int64)
        pair_vertex = np.ascontiguousarray(pair_vertex, dtype=np.int64)
        pair_part = np.ascontiguousarray(pair_part, dtype=np.int64)
        n = seen_degree.shape[0]
        needed = max(n, int(pair_vertex.max()) + 1 if pair_vertex.shape[0] else 0)
        if needed:
            self._grow(needed)
        if n:
            self._seen_degree[:n] = seen_degree
        parts_of = self._parts_of
        for v, i in zip(pair_vertex.tolist(), pair_part.tolist()):
            parts_of[v].append(i)
        self._ecount[:] = np.asarray(edge_counts, dtype=np.float64)
        self._vcount[:] = np.bincount(pair_part, minlength=self.num_parts)
        self.edges_assigned = int(num_edges)
        self.vertices_covered = int(pair_vertex.shape[0])
        self.vertices_seen = int(np.unique(pair_vertex).shape[0])

    def assign(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Assign one window of edges; returns part ids in input order.

        Each call is one sorting window: degree estimates are updated
        with the whole window first, then edges are assigned ascending
        by estimated end-vertex degree sum.
        """
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        out = np.empty(src.shape[0], dtype=np.int64)
        if src.shape[0] == 0:
            return out
        self._grow(int(max(src.max(), dst.max())) + 1)
        seen_degree = self._seen_degree
        np.add.at(seen_degree, src, 1)
        np.add.at(seen_degree, dst, 1)
        key = seen_degree[src] + seen_degree[dst]
        order = np.argsort(key, kind="stable")

        num_parts = self.num_parts
        parts_of = self._parts_of
        ecount = self._ecount
        vcount = self._vcount
        eva = self._eva
        for pos in order.tolist():
            u, v = int(src[pos]), int(dst[pos])
            pu, pv = parts_of[u], parts_of[v]
            # Online normalization: the offline evaluation function
            # divides the per-part counts by |E|/p and |V|/p; here the
            # running totals stand in for the unknown |E| and |V| and
            # the balance terms are recomputed from the *current*
            # counts every step, so early units never persist as the
            # stream grows.  The divisors floor at one edge/vertex per
            # part (1/p): on the very first chunk, while p > |E seen|
            # (and before any vertex is covered), the raw running
            # average is zero and the unguarded quotient would divide
            # by zero.
            edge_unit = self.alpha / max(
                self.edges_assigned / num_parts, 1.0 / num_parts
            )
            vertex_unit = self.beta / max(
                self.vertices_covered / num_parts, 1.0 / num_parts
            )
            np.copyto(eva, ecount)
            eva *= edge_unit
            eva += vcount * vertex_unit
            eva += 2.0
            if pu:
                eva[pu] -= 1.0
            if pv:
                eva[pv] -= 1.0
            i = int(np.argmin(eva))
            out[pos] = i
            self.edges_assigned += 1
            ecount[i] += 1.0
            if i not in pu:
                if not pu:
                    self.vertices_seen += 1
                pu.append(i)
                self.vertices_covered += 1
                vcount[i] += 1.0
            if u != v and i not in pv:
                if not pv:
                    self.vertices_seen += 1
                pv.append(i)
                self.vertices_covered += 1
                vcount[i] += 1.0
        return out

    def replication_factor(self, num_vertices: Optional[int] = None) -> float:
        """Replicas per vertex so far (1.0 before any edge).

        Mid-stream the true |V| is unknown, so the default denominator
        is the distinct vertices seen; pass ``num_vertices`` (e.g. from
        the degree sketch, once the stream is exhausted) to match the
        ``Σ|V_i| / |V|`` convention of
        :func:`repro.partition.replication_factor`, which also counts
        isolated vertices.
        """
        denom = self.vertices_seen if num_vertices is None else int(num_vertices)
        if denom <= 0:
            return 1.0
        return self.vertices_covered / denom


class OracleShardedAssigner:
    """Parent ``ShardedEBVAssigner``, verbatim (int bitmasks + dict overlays).

    One :meth:`assign` call processes one *epoch span* of
    ``num_shards * sync_interval`` consecutive edges: the span is dealt
    round-robin to the shard workers (edge ``j`` of the span goes to
    worker ``j % num_shards``), every worker assigns its sub-queue
    against a private snapshot of the committed global state, and the
    epoch ends with the synchronization barrier that merges all deltas.
    Feeding the spans sequentially reproduces the offline simulation
    byte-for-byte.

    The evaluation function normalizes by the exact ``|E|``/``|V|`` of
    the whole stream, so both must be known up front — out of core that
    is what the :class:`repro.stream.DegreeSketch` pre-pass provides.
    """

    def __init__(
        self,
        num_parts: int,
        num_shards: int,
        sync_interval: int,
        alpha: float,
        beta: float,
        num_edges: int,
        num_vertices: int,
    ):
        if num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        self.num_parts = int(num_parts)
        self.num_shards = int(num_shards)
        self.window = self.num_shards * int(sync_interval)
        self.num_vertices = int(num_vertices)
        self._committed_masks = [0] * self.num_vertices
        self._committed_ecount = np.zeros(self.num_parts, dtype=np.int64)
        self._committed_vcount = np.zeros(self.num_parts, dtype=np.int64)
        self._edge_unit = float(alpha) / max(num_edges / self.num_parts, 1e-12)
        self._vertex_unit = float(beta) / max(num_vertices / self.num_parts, 1e-12)
        self._eva = np.empty(self.num_parts, dtype=np.float64)

    def assign(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Run one epoch over a span of ``window`` edges (last may be short)."""
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        span = src.shape[0]
        out = np.empty(span, dtype=np.int64)
        if span == 0:
            return out
        num_parts = self.num_parts
        committed_masks = self._committed_masks
        eva = self._eva
        epoch_masks: List[Dict[int, int]] = []
        epoch_ecount = np.zeros(num_parts, dtype=np.int64)
        for s in range(self.num_shards):
            local_masks: Dict[int, int] = {}
            local_ecount = self._committed_ecount.astype(np.float64).copy()
            local_vcount = self._committed_vcount.astype(np.float64).copy()
            for pos in range(s, span, self.num_shards):
                u, v = int(src[pos]), int(dst[pos])
                mask_u = local_masks.get(u, committed_masks[u])
                mask_v = local_masks.get(v, committed_masks[v])
                np.copyto(eva, local_ecount)
                eva *= self._edge_unit
                eva += local_vcount * self._vertex_unit
                eva += 2.0
                for i in range(num_parts):
                    bit = 1 << i
                    if mask_u & bit:
                        eva[i] -= 1.0
                    if mask_v & bit:
                        eva[i] -= 1.0
                i = int(np.argmin(eva))
                out[pos] = i
                local_ecount[i] += 1
                bit = 1 << i
                if not mask_u & bit:
                    local_masks[u] = mask_u | bit
                    local_vcount[i] += 1
                if u != v:
                    mask_v = local_masks.get(v, committed_masks[v])
                    if not mask_v & bit:
                        local_masks[v] = mask_v | bit
                        local_vcount[i] += 1
            epoch_masks.append(local_masks)
            epoch_ecount += (local_ecount - self._committed_ecount).astype(np.int64)
        # Synchronization barrier: merge every worker's deltas.
        for local_masks in epoch_masks:
            for vertex, mask in local_masks.items():
                committed_masks[vertex] |= mask
        self._committed_ecount += epoch_ecount
        # vcount must be recounted from the merged masks: two workers
        # may both have replicated the same vertex into a part.
        vcount = np.zeros(num_parts, dtype=np.int64)
        for mask in committed_masks:
            while mask:
                vcount[(mask & -mask).bit_length() - 1] += 1
                mask &= mask - 1
        self._committed_vcount = vcount
        return out

    def replication_factor(self, num_vertices: Optional[int] = None) -> float:
        """Committed replicas per vertex (see :class:`StreamingEBVAssigner`).

        The sharded core knows the exact |V| up front, so the metrics
        convention (``Σ|V_i| / |V|``) is the default denominator.
        """
        denom = self.num_vertices if num_vertices is None else int(num_vertices)
        if denom <= 0:
            return 1.0
        return int(self._committed_vcount.sum()) / denom


class OracleCore:
    """Parent ``EBVCore`` (commit 7aeb7a2), verbatim: Eq. 2 on all parts per edge.

    The loop ``EBVCore.assign`` scored every edge with before its
    candidate-class and compiled successors — one ``np.argmin`` over a
    length-``p`` vector per edge, in all three balance modes
    (maintained; derived with exact totals; derived with running
    totals).  State layout is the core's own, so a test can compare
    ``member``/``ecount``/``vcount``/``_balance`` after every call.
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

    @property
    def edges_assigned(self) -> int:
        return int(self.ecount.sum())

    @property
    def vertices_covered(self) -> int:
        return int(self.vcount.sum())

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
        ids must be below ``member.shape[0]`` (see :meth:`grow`).
        """
        p = self.num_parts
        member, ecount, vcount, balance = self.member, self.ecount, self.vcount, self._balance
        alpha, beta = self.alpha, self.beta
        running = self._units is None
        if not running:
            edge_unit, vertex_unit = self._units
        assigned, covered = self.edges_assigned, self.vertices_covered
        eva = np.empty(p, dtype=np.float64)
        term = np.empty(p, dtype=np.float64)
        for t, j in enumerate(order.tolist()):
            in_u = member[src[j]]
            in_v = member[dst[j]]
            # eva[i] = balance[i] + 2 - I(u ∈ keep[i]) - I(v ∈ keep[i])
            if balance is not None:
                np.add(balance, 2.0, out=eva)
            else:
                if running:
                    edge_unit = alpha / max(assigned / p, 1.0 / p)
                    vertex_unit = beta / max(covered / p, 1.0 / p)
                np.multiply(ecount, edge_unit, out=eva)
                np.multiply(vcount, vertex_unit, out=term)
                eva += term
                eva += 2.0
            eva -= in_u
            eva -= in_v
            i = int(np.argmin(eva))
            out[j] = i
            ecount[i] += 1
            assigned += 1
            # a self loop's two rows are one view: the second test sees the first write
            gained = 0
            if not in_u[i]:
                in_u[i] = True
                gained = 1
            if not in_v[i]:
                in_v[i] = True
                gained += 1
            if gained:
                vcount[i] += gained
                covered += gained
            if balance is not None:
                # one addition per unit, in commit order: this is the rounding
                # the maintained policy exists to preserve
                bumped = balance[i] + edge_unit
                for _ in range(gained):
                    bumped += vertex_unit
                balance[i] = bumped
            if trace is not None:
                trace[t] = covered


#: ``EBVCore`` balance modes as ``(maintained, exact totals)``: the
#: offline, sharded and streaming fronts' respectively
CORE_MODES = {"maintained": (True, True), "derived": (False, True), "running": (False, False)}


def core_pair(mode: str, num_parts: int, alpha: float, beta: float,
              num_edges: int, num_vertices: int) -> list:
    """``[EBVCore, OracleCore]`` built alike, with room for every vertex."""
    maintained, exact = CORE_MODES[mode]
    totals = (num_edges, num_vertices) if exact else ()
    pair = [
        cls(num_parts, alpha, beta, *totals, maintained=maintained)
        for cls in (EBVCore, OracleCore)
    ]
    for core in pair:
        core.grow(num_vertices)
    return pair


def assert_same_state(core, oracle) -> None:
    assert core.member.tobytes() == oracle.member.tobytes()
    assert core.ecount.tobytes() == oracle.ecount.tobytes()
    assert core.vcount.tobytes() == oracle.vcount.tobytes()
    if oracle._balance is not None:
        assert core._balance.tobytes() == oracle._balance.tobytes()


def assert_same_assignment(core, oracle, src, dst, order) -> np.ndarray:
    """Run one ``assign`` on both; parts, growth trace and state must match."""
    out, want = (np.full(src.shape[0], -1, dtype=np.int64) for _ in range(2))
    trace, want_trace = (np.zeros(order.shape[0], dtype=np.int64) for _ in range(2))
    core.assign(src, dst, order, out, trace)
    oracle.assign(src, dst, order, want, want_trace)
    assert out.tobytes() == want.tobytes()
    assert trace.tobytes() == want_trace.tobytes()
    assert_same_state(core, oracle)
    return out


def oracle_stream_partition(
    graph: Graph, num_parts: int, chunk_size: int, alpha: float = 1.0, beta: float = 1.0
) -> np.ndarray:
    """Parent ``StreamingEBVPartitioner.partition`` drive loop."""
    m = graph.num_edges
    edge_parts = np.full(m, -1, dtype=np.int64)
    assigner = OracleStreamingAssigner(num_parts, chunk_size, alpha, beta)
    src, dst = graph.src, graph.dst
    for start in range(0, m, chunk_size):
        stop = min(start + chunk_size, m)
        edge_parts[start:stop] = assigner.assign(src[start:stop], dst[start:stop])
    return edge_parts


def oracle_sharded_partition(
    graph: Graph,
    num_parts: int,
    num_shards: int,
    sync_interval: int,
    sort_edges: bool = True,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> np.ndarray:
    """Parent ``ShardedEBVPartitioner.partition`` drive loop."""
    m = graph.num_edges
    edge_parts = np.full(m, -1, dtype=np.int64)
    order = edge_processing_order(graph, "ascending" if sort_edges else "input")
    assigner = OracleShardedAssigner(
        num_parts, num_shards, sync_interval, alpha, beta, m, graph.num_vertices
    )
    src, dst = graph.src, graph.dst
    for start in range(0, m, assigner.window):
        span = order[start : start + assigner.window]
        edge_parts[span] = assigner.assign(src[span], dst[span])
    return edge_parts


def algorithm1_exact(graph: Graph, num_parts: int, order: np.ndarray) -> np.ndarray:
    """Algorithm 1 with α = β = 1 in exact integer arithmetic.

    Eq. 2 scaled by ``|E|·|V|`` is
    ``(I_u + I_v)·|E||V| + p·(ecount[i]·|V| + vcount[i]·|E|)`` — all
    integers, so equal scores are *exactly* equal and ``argmin`` breaks
    every tie to the lowest subgraph id, as the paper's ``arg min`` does.
    """
    m, n = graph.num_edges, graph.num_vertices
    keep = np.zeros((n, num_parts), dtype=bool)
    ecount = np.zeros(num_parts, dtype=np.int64)
    vcount = np.zeros(num_parts, dtype=np.int64)
    edge_parts = np.full(m, -1, dtype=np.int64)
    for e in order.tolist():
        u, v = int(graph.src[e]), int(graph.dst[e])
        missing = 2 - keep[u].astype(np.int64) - keep[v].astype(np.int64)
        score = missing * (m * n) + num_parts * (ecount * n + vcount * m)
        i = int(np.argmin(score))
        edge_parts[e] = i
        ecount[i] += 1
        for w in (u, v):
            if not keep[w, i]:
                keep[w, i] = True
                vcount[i] += 1
    return edge_parts
