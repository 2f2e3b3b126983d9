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

import ctypes
import functools
from math import inf
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from ..ckernel import KernelBuildError, load_library
from ..graph import Graph
from .base import VERTEX_CUT, Partitioner, PartitionResult

__all__ = [
    "EBVCore",
    "EBVPartitioner",
    "KernelBuildError",
    "SORT_ORDERS",
    "check_weights",
    "degree_sum_order",
    "edge_processing_order",
]

SORT_ORDERS = ("ascending", "descending", "random", "input")

#: the C99 source of :meth:`EBVCore.assign`'s loop
KERNEL_SOURCE = Path(__file__).with_name("ebv_kernel.c")


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
    order = degree_sum_order(graph.degrees(), graph.src, graph.dst)
    if sort_order == "descending":
        return order[::-1].copy()
    return order


def degree_sum_order(degrees: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Stable ascending permutation of the edges by end-vertex degree sum.

    The key ``degrees[src] + degrees[dst]`` is sorted as ``uint16`` when
    it fits, where numpy's stable sort is a radix sort instead of a
    timsort; a stable sort's permutation does not depend on the dtype.
    """
    key = degrees[src] + degrees[dst]
    if key.shape[0] and key.max() < 1 << 16:
        key = key.astype(np.uint16)
    return np.argsort(key, kind="stable").astype(np.int64, copy=False)


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

    The loop itself is C: :data:`KERNEL_SOURCE`, compiled on first use
    (:func:`repro.ckernel.load_library`).  It evaluates Eq. 2 on every part as
    ``((score(i) - I(u ∈ keep[i])) - I(v ∈ keep[i]))`` with ``score(i)``
    the balance term plus 2 — the operations, in the order, that
    ``tests/partition/oracles.OracleCore`` performs in numpy — so under
    both policies it assigns what the oracle assigns.  Running units are
    ``α / ((assigned or 1) / p)`` and ``β / ((covered or 1) / p)``,
    which equal the ``max(x / p, 1.0 / p)`` floor for every int ``x``.
    The arrays above are the canonical state, updated in place.
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
        ``Σ_i |V_i|`` after the ``t``-th step to ``trace[t]``.  Every
        array is a C-contiguous int64 vector; ``dst`` and ``out`` are as
        long as ``src``, ``trace`` as ``order``, ``order`` lies in
        ``[0, len(src))`` and the vertex ids it selects in
        ``[0, member.shape[0])`` (see :meth:`grow`).  Anything else is a
        ``ValueError``, raised before the kernel touches memory.
        """
        p, balance = self.num_parts, self._balance
        arrays = [
            ("src", src, np.int64, 1, False), ("dst", dst, np.int64, 1, False),
            ("order", order, np.int64, 1, False), ("out", out, np.int64, 1, True),
            ("trace", trace, np.int64, 1, True), ("member", self.member, np.bool_, 2, True),
            ("ecount", self.ecount, np.int64, 1, True), ("vcount", self.vcount, np.int64, 1, True),
            ("balance", balance, np.float64, 1, True),
        ]
        for name, array, dtype, ndim, written in arrays:
            if array is None:
                continue
            if not (isinstance(array, np.ndarray) and array.dtype == dtype and array.ndim == ndim
                    and array.flags.c_contiguous and (array.flags.writeable or not written)):
                raise ValueError(
                    f"{name} must be a {'writeable ' if written else ''}C-contiguous "
                    f"{ndim}-D {np.dtype(dtype)} array"
                )
        if not (self.member.shape[1] == p and self.ecount.shape == self.vcount.shape == (p,)
                and (balance is None or balance.shape == (p,))):
            raise ValueError(f"member, ecount, vcount and the balance vector must have {p} parts")
        m = src.shape[0]
        if dst.shape[0] != m or out.shape[0] != m:
            raise ValueError(
                f"src, dst and out must be equally long, got {m}, {dst.shape[0]}, {out.shape[0]}"
            )
        if trace is not None and trace.shape[0] != order.shape[0]:
            raise ValueError(
                f"trace must be as long as order, got {trace.shape[0]} and {order.shape[0]}"
            )
        if order.shape[0] == 0:
            return
        if order.min() < 0 or order.max() >= m:
            raise ValueError(f"order must lie in [0, {m})")
        rows = self.member.shape[0]
        for name, ends in (("src", src[order]), ("dst", dst[order])):
            if ends.min() < 0 or ends.max() >= rows:
                raise ValueError(
                    f"{name} vertex ids must lie in [0, {rows}), "
                    f"got [{ends.min()}, {ends.max()}]"
                )
        edge_unit, vertex_unit = self._units or (0.0, 0.0)
        _kernel()(
            p, src.ctypes.data, dst.ctypes.data, order.ctypes.data, order.shape[0],
            out.ctypes.data, None if trace is None else trace.ctypes.data,
            self.member.ctypes.data, self.ecount.ctypes.data, self.vcount.ctypes.data,
            None if balance is None else balance.ctypes.data,
            self._units is None, self.alpha, self.beta, edge_unit, vertex_unit,
        )


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


# ----------------------------------------------------------------------
# The compiled loop: built on first use (repro.ckernel)
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _kernel() -> Callable[..., None]:
    """The kernel's ``ebv_assign``, loaded once per process."""
    fn = load_library(KERNEL_SOURCE, "EBV").ebv_assign
    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    fn.argtypes = [i64, ptr, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr,
                   ctypes.c_int, f64, f64, f64, f64]
    fn.restype = None
    return fn
