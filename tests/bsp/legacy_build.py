"""The original per-vertex, loop-based distributed-graph build.

Kept verbatim as the ground truth ``test_build_equivalence.py`` holds
the vectorized :func:`repro.bsp.distributed.build_distributed_graph`
to, byte for byte.  Do not "optimize" this — its value is being
obviously correct.  (It shipped in ``src/repro/bsp/distributed.py``
until nothing but that test and a since-deleted benchmark called it.)
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.bsp.distributed import DistributedGraph, LocalSubgraph, _Route
from repro.partition.base import EDGE_CUT, PartitionResult


def _master_assignment_legacy(result: PartitionResult) -> Dict[int, int]:
    """Dict-based master choice (see :func:`_master_assignment`)."""
    graph = result.graph
    if result.kind == EDGE_CUT:
        return {v: int(result.vertex_parts[v]) for v in range(graph.num_vertices)}
    # Count incident edges per (vertex, part).
    p = result.num_parts
    keys = np.concatenate(
        [
            graph.src * np.int64(p) + result.edge_parts,
            graph.dst * np.int64(p) + result.edge_parts,
        ]
    )
    uniq, counts = np.unique(keys, return_counts=True)
    verts = (uniq // p).astype(np.int64)
    parts = (uniq % p).astype(np.int64)
    masters: Dict[int, int] = {}
    best: Dict[int, int] = {}
    for v, part, c in zip(verts.tolist(), parts.tolist(), counts.tolist()):
        if v not in masters or c > best[v] or (c == best[v] and part < masters[v]):
            masters[v] = part
            best[v] = c
    return masters


def build_distributed_graph_legacy(result: PartitionResult) -> DistributedGraph:
    """Original loop-based build; reference for equivalence and benchmarks."""
    graph = result.graph
    p = result.num_parts
    masters = _master_assignment_legacy(result)

    # Vertex membership per worker (includes ghosts for edge-cut).
    membership: List[np.ndarray] = []
    if result.kind == EDGE_CUT:
        # V_i as *hosted* set: owned vertices plus ghost endpoints of
        # edges executed here.
        for i in range(p):
            mask = result.edge_parts == i
            hosted = np.unique(
                np.concatenate(
                    [
                        graph.src[mask],
                        graph.dst[mask],
                        np.nonzero(result.vertex_parts == i)[0],
                    ]
                )
            )
            membership.append(hosted)
    else:
        membership = [m.copy() for m in result.vertex_membership()]

    # Vertices incident to no edge appear in no E_i; a real deployment
    # still needs a home for them, so spread them round-robin as masters.
    hosted = np.zeros(graph.num_vertices, dtype=bool)
    for verts in membership:
        hosted[verts] = True
    unhosted = np.nonzero(~hosted)[0]
    if unhosted.size:
        extras: List[List[int]] = [[] for _ in range(p)]
        for j, v in enumerate(unhosted.tolist()):
            masters[v] = j % p
            extras[j % p].append(v)
        for i in range(p):
            if extras[i]:
                membership[i] = np.unique(
                    np.concatenate([membership[i], np.asarray(extras[i], dtype=np.int64)])
                )

    global_out_deg = graph.out_degrees()
    locals_: List[LocalSubgraph] = []
    local_index_of: List[Dict[int, int]] = []
    for i in range(p):
        verts = membership[i]
        index = {int(v): j for j, v in enumerate(verts.tolist())}
        mask = result.edge_parts == i
        lsrc = np.fromiter(
            (index[int(v)] for v in graph.src[mask]), dtype=np.int64,
            count=int(mask.sum()),
        )
        ldst = np.fromiter(
            (index[int(v)] for v in graph.dst[mask]), dtype=np.int64,
            count=int(mask.sum()),
        )
        weights = None if graph.weights is None else graph.weights[mask]
        master_worker = np.fromiter(
            (masters.get(int(v), i) for v in verts.tolist()),
            dtype=np.int64,
            count=verts.shape[0],
        )
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
        local_index_of.append(index)

    dg = DistributedGraph(
        graph=graph, num_workers=p, locals=locals_, partition_method=result.method
    )

    # Build pairwise routes from each mirror to its master and back.
    pair_src: Dict[Tuple[int, int], List[int]] = {}
    pair_dst: Dict[Tuple[int, int], List[int]] = {}
    for w, local in enumerate(locals_):
        mirror_idx = np.nonzero(~local.is_master)[0]
        for j in mirror_idx.tolist():
            gv = int(local.global_ids[j])
            mw = int(local.master_worker[j])
            mj = local_index_of[mw][gv]
            pair_src.setdefault((w, mw), []).append(j)
            pair_dst.setdefault((w, mw), []).append(mj)
    for key in pair_src:
        up = _Route(
            src_index=np.asarray(pair_src[key], dtype=np.int64),
            dst_index=np.asarray(pair_dst[key], dtype=np.int64),
        )
        dg.up_routes[key] = up
        w, mw = key
        dg.down_routes[(mw, w)] = _Route(
            src_index=up.dst_index, dst_index=up.src_index
        )
    return dg
