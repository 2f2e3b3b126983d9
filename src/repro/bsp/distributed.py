"""Distributed graph construction: local subgraphs plus replica routing.

Given any :class:`~repro.partition.PartitionResult` (vertex-cut or
edge-cut), :func:`build_distributed_graph` materializes what a real
subgraph-centric framework would hold on each worker:

* the worker's local edge list, re-indexed to dense local vertex ids;
* the local vertex table with a global-id column;
* replication routing — every replicated vertex has one **master**
  replica (vertex-cut: the replica whose worker holds the most of the
  vertex's edges; edge-cut: the owning partition) and zero or more
  **mirror** replicas.  Mirrors push updates to their master and the
  master broadcasts the combined value back, PowerGraph-style, which is
  the only communication the BSP engine permits (Section IV-B).

The build is fully vectorized: master assignment is a sorted
``(vertex, part)`` key reduction, global→local re-indexing is
``np.searchsorted`` over each worker's sorted vertex table, and the
mirror→master routes come from one ``argsort`` over
``(mirror_worker, master_worker)`` keys.  The original per-vertex
Python-loop implementation lives on as the oracle in
``tests/bsp/legacy_build.py``; ``tests/bsp/test_build_equivalence.py``
proves this build byte-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graph import Graph
from ..partition.base import (
    _DENSE_CELLS,
    _group_vertices_by_part,
    EDGE_CUT,
    PartitionResult,
)

__all__ = [
    "LocalSubgraph",
    "DistributedGraph",
    "build_distributed_graph",
]


@dataclass
class LocalSubgraph:
    """Everything worker ``worker_id`` holds locally.

    Attributes
    ----------
    worker_id:
        This worker's index in ``[0, p)``.
    global_ids:
        Local→global vertex id map (sorted ascending).
    src, dst:
        Local edge endpoints (indices into ``global_ids``).
    weights:
        Optional local edge weights (parallel to ``src``/``dst``).
    is_master:
        Per local vertex: ``True`` iff this worker hosts the master
        replica.
    master_worker:
        Per local vertex: worker id of the master replica (equals
        ``worker_id`` where ``is_master``).
    global_out_degree:
        Whole-graph out-degree of each local vertex (PageRank needs the
        *global* fan-out, not the local one).

    Five lazy caches hang off these fields — :meth:`cc_roots` (with
    :meth:`cc_root_count`), :meth:`out_csr`, :meth:`out_fanout`,
    :meth:`master_index` and :meth:`checked_edges`.  They share one
    rule: each is derived only from fields that never change after
    :func:`build_distributed_graph` returns, so it is computed (or
    checked) once per run, in whichever process first
    asks (a forked or TCP worker fills its own copy), and a superstep
    kernel that needs one pays for it in its first superstep only.
    """

    worker_id: int
    global_ids: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    weights: Optional[np.ndarray]
    is_master: np.ndarray
    master_worker: np.ndarray
    global_out_degree: np.ndarray

    @property
    def num_vertices(self) -> int:
        return int(self.global_ids.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])

    def cc_roots(self) -> np.ndarray:
        """Local connected-component roots (computed once; edges are static).

        ``roots[x]`` is the lowest local index in ``x``'s local
        component.  Used by the CC program: the local component
        structure never changes across supersteps, so after this one
        pass only incoming label changes need merging.

        A vectorised min-hook + pointer-jumping pass: each round hooks
        every edge's larger root onto its smaller one, then jumps
        pointers until every vertex points at a root.  A root only ever
        hooks onto a smaller index, so each component ends at its
        minimum — the array the per-edge union-find in
        ``tests/bsp/union_find.py`` returns.
        """
        cached = getattr(self, "_cc_roots", None)
        if cached is None:
            parent = np.arange(self.num_vertices, dtype=np.int64)
            src, dst = self.src, self.dst
            while True:
                pu, pv = parent[src], parent[dst]
                unsettled = pu != pv
                if not unsettled.any():
                    break
                # An edge whose ends share a root stays settled: drop it.
                src, dst = src[unsettled], dst[unsettled]
                pu, pv = pu[unsettled], pv[unsettled]
                np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
                while True:
                    jumped = parent[parent]
                    if np.array_equal(jumped, parent):
                        break
                    parent = jumped
            cached = parent
            self._cc_roots = cached
            self._cc_root_count = int(np.count_nonzero(parent == np.arange(parent.size)))
        return cached

    def cc_root_count(self) -> int:
        """Number of local components, cached with :meth:`cc_roots`."""
        self.cc_roots()
        return self._cc_root_count

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lazy CSR over local edge sources: ``(indptr, edge_ids)``.

        Frontier-based programs (SSSP, BFS) use this to relax only the
        edges leaving updated vertices, the way a sequential Dijkstra
        would, instead of sweeping the whole local edge array.
        """
        cached = getattr(self, "_out_csr", None)
        if cached is None:
            order = np.argsort(self.src, kind="stable")
            indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.src, minlength=self.num_vertices), out=indptr[1:])
            cached = (indptr, order)
            self._out_csr = cached
        return cached

    def out_fanout(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Lazy ``(fanout, dangling)`` per local vertex.

        ``fanout`` is ``max(global_out_degree, 1)`` as float64, the
        divisor of a rank or feature row spread over a vertex's
        out-edges; ``dangling`` indexes the vertices whose global
        out-degree is 0, or is ``None`` when there are none (an
        undirected graph without isolated vertices).
        """
        cached = getattr(self, "_out_fanout", None)
        if cached is None:
            fanout = np.maximum(self.global_out_degree, 1).astype(np.float64)
            dangling = np.flatnonzero(self.global_out_degree == 0)
            cached = (fanout, dangling if dangling.size else None)
            self._out_fanout = cached
        return cached

    def master_index(self) -> np.ndarray:
        """Lazy ``np.flatnonzero(is_master)``, ascending."""
        cached = getattr(self, "_master_index", None)
        if cached is None:
            cached = np.flatnonzero(self.is_master)
            self._master_index = cached
        return cached

    def checked_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lazy ``(src, dst)``, checked once to be C-contiguous int64
        arrays of equal length whose entries lie in ``[0, num_vertices)``:
        what a C kernel may index with unchecked.  ``ValueError`` if not."""
        cached = getattr(self, "_checked_edges", None)
        if cached is None:
            n = self.num_vertices
            for name in ("src", "dst"):
                array = getattr(self, name)
                if array.dtype != np.int64 or not array.flags.c_contiguous:
                    raise ValueError(f"{name} must be a C-contiguous int64 array")
                if array.shape != (self.num_edges,):
                    raise ValueError(f"{name} must have {self.num_edges} entries")
                if array.size and not (0 <= array.min() and array.max() < n):
                    raise ValueError(f"{name} indexes outside [0, {n})")
            cached = (self.src, self.dst)
            self._checked_edges = cached
        return cached


@dataclass
class _Route:
    """Bulk transfer plan between one (source, target) worker pair.

    ``src_index[k]`` on the sending worker maps to ``dst_index[k]`` on
    the receiving worker; both index the workers' local vertex arrays.
    """

    src_index: np.ndarray
    dst_index: np.ndarray


@dataclass
class DistributedGraph:
    """The fully routed distributed graph the BSP engine executes on."""

    graph: Graph
    num_workers: int
    locals: List[LocalSubgraph]
    #: mirror→master routes: ``up_routes[(w_mirror, w_master)]``
    up_routes: Dict[Tuple[int, int], _Route] = field(default_factory=dict)
    #: master→mirror routes: ``down_routes[(w_master, w_mirror)]``
    down_routes: Dict[Tuple[int, int], _Route] = field(default_factory=dict)
    #: name of the partition algorithm that produced this layout; every
    #: :class:`~repro.bsp.engine.BSPRun` executed here is labeled with it.
    partition_method: str = "?"

    def replication_factor(self) -> float:
        """Σ local vertex counts over |V| — sanity hook for tests."""
        total = sum(l.num_vertices for l in self.locals)
        return total / self.graph.num_vertices

    def gather_master_values(self, values: List[np.ndarray], default=0) -> np.ndarray:
        """Assemble the global value array from each vertex's master copy.

        Supports both scalar per-vertex values (1-D arrays) and vector
        values (2-D arrays, e.g. GNN feature rows).
        """
        shape = (self.graph.num_vertices,) + values[0].shape[1:]
        out = np.full(shape, default, dtype=values[0].dtype)
        for local, vals in zip(self.locals, values):
            mask = local.is_master
            out[local.global_ids[mask]] = vals[mask]
        return out


def _master_assignment(result: PartitionResult) -> np.ndarray:
    """Choose the master worker for every vertex, as an int64 array.

    Vertex-cut: the replica co-located with the most of the vertex's
    edges (ties to the smallest worker id), the standard PowerGraph
    placement.  Edge-cut: the owning partition.  Vertices incident to no
    edge get ``-1``; :func:`build_distributed_graph` homes them
    round-robin.
    """
    graph = result.graph
    n = graph.num_vertices
    if result.kind == EDGE_CUT:
        return result.vertex_parts.astype(np.int64, copy=True)
    p = result.num_parts
    keys = np.concatenate(
        [
            graph.src * np.int64(p) + result.edge_parts,
            graph.dst * np.int64(p) + result.edge_parts,
        ]
    )
    if n * p <= _DENSE_CELLS:
        # Dense per-(vertex, part) incidence counts; argmax returns the
        # first (= smallest part id) maximum, the required tie-break.
        counts = np.bincount(keys, minlength=n * p).reshape(n, p)
        best = counts.argmax(axis=1)
        return np.where(counts.max(axis=1) > 0, best, np.int64(-1))
    uniq, counts = np.unique(keys, return_counts=True)
    verts = uniq // p
    parts = uniq % p
    # Rank each vertex's replicas by (count desc, part asc) and keep the
    # first row per vertex group.
    order = np.lexsort((parts, -counts, verts))
    sverts = verts[order]
    first = np.ones(sverts.size, dtype=bool)
    if sverts.size:
        first[1:] = sverts[1:] != sverts[:-1]
    masters = np.full(n, -1, dtype=np.int64)
    masters[sverts[first]] = parts[order][first]
    return masters


def _edge_cut_membership(result: PartitionResult) -> List[np.ndarray]:
    """Hosted vertex set per worker: owned vertices plus ghost endpoints."""
    graph = result.graph
    n = graph.num_vertices
    p = result.num_parts
    return _group_vertices_by_part(
        [
            result.edge_parts * np.int64(n) + graph.src,
            result.edge_parts * np.int64(n) + graph.dst,
            result.vertex_parts * np.int64(n) + np.arange(n, dtype=np.int64),
        ],
        n,
        p,
    )


def build_distributed_graph(result: PartitionResult) -> DistributedGraph:
    """Materialize local subgraphs and replica routes from a partition."""
    graph = result.graph
    n = graph.num_vertices
    p = result.num_parts
    masters = _master_assignment(result)

    # Vertex membership per worker (includes ghosts for edge-cut).
    if result.kind == EDGE_CUT:
        membership = _edge_cut_membership(result)
    else:
        membership = list(result.vertex_membership())

    # Vertices incident to no edge appear in no E_i; a real deployment
    # still needs a home for them, so spread them round-robin as masters.
    hosted = np.zeros(n, dtype=bool)
    for verts in membership:
        hosted[verts] = True
    unhosted = np.nonzero(~hosted)[0]
    if unhosted.size:
        home = np.arange(unhosted.size, dtype=np.int64) % p
        masters[unhosted] = home
        for i in range(p):
            extra = unhosted[home == i]
            if extra.size:
                # disjoint sorted sets: no np.union1d, whose np.unique
                # imports numpy.ma on first use
                membership[i] = np.sort(np.concatenate([membership[i], extra]))

    # Group edge ids by part once; the stable sort keeps each part's
    # edges in input order, matching the legacy boolean-mask scan.  Part
    # ids fit in int16, where NumPy's stable sort is an O(m) radix sort.
    if p <= np.iinfo(np.int16).max:
        edge_order = np.argsort(result.edge_parts.astype(np.int16), kind="stable")
    else:
        edge_order = np.argsort(result.edge_parts, kind="stable")
    ebounds = np.searchsorted(result.edge_parts[edge_order], np.arange(p + 1))

    # Global→local re-indexing.  Small layouts use a dense (part, vertex)
    # lookup table — one scatter per part, then a single gather for every
    # edge endpoint; entries outside each part's membership are never
    # read.  Large layouts fall back to per-part binary search.
    lut: Optional[np.ndarray] = None
    if n * p <= _DENSE_CELLS:
        lut = np.empty(p * n, dtype=np.int64)
        for i in range(p):
            verts = membership[i]
            lut[i * n + verts] = np.arange(verts.size, dtype=np.int64)
        part_base = result.edge_parts * np.int64(n)
        lsrc_all = lut[part_base + graph.src]
        ldst_all = lut[part_base + graph.dst]

    global_out_deg = graph.out_degrees()
    locals_: List[LocalSubgraph] = []
    for i in range(p):
        verts = membership[i]
        eids = edge_order[ebounds[i] : ebounds[i + 1]]
        if lut is not None:
            lsrc = lsrc_all[eids]
            ldst = ldst_all[eids]
        else:
            lsrc = np.searchsorted(verts, graph.src[eids]).astype(np.int64, copy=False)
            ldst = np.searchsorted(verts, graph.dst[eids]).astype(np.int64, copy=False)
        weights = None if graph.weights is None else graph.weights[eids]
        mw = masters[verts]
        master_worker = np.where(mw < 0, np.int64(i), mw)
        locals_.append(
            LocalSubgraph(
                worker_id=i,
                global_ids=verts,
                src=lsrc,
                dst=ldst,
                weights=weights,
                is_master=master_worker == i,
                master_worker=master_worker,
                global_out_degree=global_out_deg[verts],
            )
        )

    dg = DistributedGraph(
        graph=graph, num_workers=p, locals=locals_, partition_method=result.method
    )

    # Gather every mirror replica across all workers into flat arrays.
    mir_w = np.concatenate(
        [np.full(np.count_nonzero(~l.is_master), w, dtype=np.int64)
         for w, l in enumerate(locals_)]
    )
    mir_j = np.concatenate([np.nonzero(~l.is_master)[0] for l in locals_])
    if mir_j.size == 0:
        return dg
    mir_gv = np.concatenate([l.global_ids[~l.is_master] for l in locals_])
    mir_mw = np.concatenate([l.master_worker[~l.is_master] for l in locals_])

    # Resolve each mirror's local index on its master worker: one gather
    # through the dense lookup table, or one searchsorted per master
    # (each worker's vertex table is sorted) at large scale.
    if lut is not None:
        mir_mj = lut[mir_mw * np.int64(n) + mir_gv]
    else:
        mir_mj = np.empty(mir_j.size, dtype=np.int64)
        mw_order = np.argsort(mir_mw, kind="stable")
        mw_bounds = np.searchsorted(mir_mw[mw_order], np.arange(p + 1))
        for mw_id in range(p):
            sel = mw_order[mw_bounds[mw_id] : mw_bounds[mw_id + 1]]
            if sel.size:
                mir_mj[sel] = np.searchsorted(membership[mw_id], mir_gv[sel])

    # Group mirrors into per-(mirror worker, master worker) routes.  The
    # stable sort keeps mirrors in (worker, local index) order, matching
    # the legacy per-vertex append loop.
    pair_key = mir_w * np.int64(p) + mir_mw
    order = np.argsort(pair_key, kind="stable")
    skey = pair_key[order]
    starts = np.flatnonzero(np.concatenate([[True], skey[1:] != skey[:-1]]))
    ends = np.concatenate([starts[1:], [skey.size]])
    for s, e in zip(starts.tolist(), ends.tolist()):
        w = int(skey[s] // p)
        mw_id = int(skey[s] % p)
        sel = order[s:e]
        up = _Route(src_index=mir_j[sel], dst_index=mir_mj[sel])
        dg.up_routes[(w, mw_id)] = up
        dg.down_routes[(mw_id, w)] = _Route(
            src_index=up.dst_index, dst_index=up.src_index
        )
    return dg
