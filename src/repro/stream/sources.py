"""Edge-chunk stream sources: text, binary ``.npy`` and in-memory arrays.

Every source yields ``(src, dst, weights)`` numpy-array chunks through
one :class:`EdgeChunkStream` interface, so the out-of-core driver and
the differential tests are agnostic to where the edges physically live.
Sources carry optional metadata *hints* (``num_vertices_hint``,
``directed_hint``) when the backing format records them; consumers must
tolerate ``None``.

Every call to :meth:`EdgeChunkStream.chunks` restarts from the first
edge: the driver reads a stream twice when the partitioner normalizes by
exact totals (``EBV-sharded`` counts |E| and |V| first).  A source of
one's own is a subclass that implements :meth:`~EdgeChunkStream.chunks`.
"""

from __future__ import annotations

import abc
import os
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph import Graph, iter_edge_chunks, read_edge_list_header

__all__ = [
    "EdgeChunk",
    "EdgeChunkStream",
    "StreamError",
    "TextEdgeListStream",
    "NpyEdgeStream",
    "ArrayEdgeStream",
    "save_edge_npy",
]

#: one chunk: parallel src/dst id arrays plus optional parallel weights
EdgeChunk = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


class StreamError(ValueError):
    """A stream source or the out-of-core driver was misused or corrupt."""


class EdgeChunkStream(abc.ABC):
    """A re-iterable source of edge chunks of bounded size.

    Attributes
    ----------
    chunk_size:
        Upper bound on edges per yielded chunk, recorded in the spill
        manifest.  This is the *reader* granularity only; the driver
        re-buffers chunks into the partitioner's preferred window, so
        results never depend on it.
    num_vertices_hint, directed_hint:
        Metadata recovered from the backing format, or ``None``.
    """

    name: str = "stream"
    chunk_size: int = 65536
    num_vertices_hint: Optional[int] = None
    directed_hint: Optional[bool] = None

    @abc.abstractmethod
    def chunks(self) -> Iterator[EdgeChunk]:
        """Yield ``(src, dst, weights)`` chunks from the first edge on."""

    def __iter__(self) -> Iterator[EdgeChunk]:
        return self.chunks()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def _check_chunk_size(chunk_size: int) -> int:
    if chunk_size < 1:
        raise StreamError("chunk_size must be >= 1")
    return int(chunk_size)


class TextEdgeListStream(EdgeChunkStream):
    """Chunked reader over a SNAP-style edge-list text file.

    Wraps :func:`repro.graph.iter_edge_chunks`; a repro-graph comment
    header, when present, supplies the directedness and vertex-count
    hints exactly as it does for :func:`repro.graph.read_edge_list`.
    """

    def __init__(self, path: str, chunk_size: int = 65536, name: Optional[str] = None):
        self.path = str(path)
        self.chunk_size = _check_chunk_size(chunk_size)
        self.name = name or os.path.splitext(os.path.basename(self.path))[0]
        self.directed_hint, self.num_vertices_hint = read_edge_list_header(self.path)

    def chunks(self) -> Iterator[EdgeChunk]:
        return iter_edge_chunks(self.path, self.chunk_size)


class NpyEdgeStream(EdgeChunkStream):
    """Memory-mapped reader over a binary ``.npy`` edge array.

    The file holds one ``(m, 2)`` integer array of ``(u, v)`` rows (as
    written by :func:`save_edge_npy`); an optional second ``.npy`` file
    holds a parallel length-``m`` float weight array.  ``np.load`` with
    ``mmap_mode="r"`` keeps the file paged, so each chunk copies only
    ``chunk_size`` rows into memory.

    The bare array carries no graph metadata, so ``num_vertices`` and
    ``directed`` should be passed explicitly when they matter: a graph
    with isolated trailing vertices (|V| larger than max id + 1) cannot
    be recovered from the edges alone, and partitioners that normalize
    by exact |V| (``EBV-sharded``) would otherwise count max id + 1.
    """

    def __init__(
        self,
        path: str,
        weights_path: Optional[str] = None,
        chunk_size: int = 65536,
        name: Optional[str] = None,
        num_vertices: Optional[int] = None,
        directed: Optional[bool] = None,
    ):
        self.path = str(path)
        self.weights_path = None if weights_path is None else str(weights_path)
        self.chunk_size = _check_chunk_size(chunk_size)
        self.name = name or os.path.splitext(os.path.basename(self.path))[0]
        self.num_vertices_hint = None if num_vertices is None else int(num_vertices)
        self.directed_hint = None if directed is None else bool(directed)

    def chunks(self) -> Iterator[EdgeChunk]:
        edges = np.load(self.path, mmap_mode="r")
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise StreamError(
                f"{self.path}: expected an (m, 2) edge array, got shape "
                f"{edges.shape}"
            )
        weights = None
        if self.weights_path is not None:
            weights = np.load(self.weights_path, mmap_mode="r")
            if weights.shape != (edges.shape[0],):
                raise StreamError(
                    f"{self.weights_path}: weights must parallel the edge "
                    f"array, got shape {weights.shape} for {edges.shape[0]} edges"
                )
        for start in range(0, edges.shape[0], self.chunk_size):
            block = np.asarray(edges[start : start + self.chunk_size], dtype=np.int64)
            w = None
            if weights is not None:
                w = np.asarray(
                    weights[start : start + self.chunk_size], dtype=np.float64
                )
            yield np.ascontiguousarray(block[:, 0]), np.ascontiguousarray(block[:, 1]), w


def save_edge_npy(
    path: str,
    src: Union[Graph, Sequence[int]],
    dst: Optional[Sequence[int]] = None,
    weights: Optional[Sequence[float]] = None,
    weights_path: Optional[str] = None,
) -> None:
    """Write edges as the ``(m, 2)`` ``.npy`` array `NpyEdgeStream` reads.

    Accepts either a :class:`~repro.graph.Graph` or parallel src/dst
    sequences.  Weights (when given, or present on the graph) require an
    explicit ``weights_path`` for the parallel float array.
    """
    if isinstance(src, Graph):
        graph = src
        if dst is not None:
            raise StreamError("pass either a Graph or src/dst arrays, not both")
        src, dst, weights = graph.src, graph.dst, graph.weights
    elif dst is None:
        raise StreamError("dst is required when src is not a Graph")
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    np.save(path, np.stack([src, dst], axis=1))
    if weights is not None:
        if weights_path is None:
            raise StreamError("weights_path is required to save edge weights")
        np.save(weights_path, np.ascontiguousarray(weights, dtype=np.float64))


class ArrayEdgeStream(EdgeChunkStream):
    """In-memory arrays (or a whole graph) exposed as a chunk stream.

    The differential harness streams a graph it already holds to prove
    the chunked path matches the in-memory one, and a spill patch's
    escape hatch re-spills its rebuilt graph through it.
    """

    def __init__(
        self,
        src: Sequence[int],
        dst: Sequence[int],
        weights: Optional[Sequence[float]] = None,
        chunk_size: int = 65536,
        name: str = "arrays",
    ):
        self.src = np.ascontiguousarray(src, dtype=np.int64)
        self.dst = np.ascontiguousarray(dst, dtype=np.int64)
        if self.src.shape != self.dst.shape or self.src.ndim != 1:
            raise StreamError("src and dst must be 1-D arrays of equal length")
        self.weights = (
            None if weights is None
            else np.ascontiguousarray(weights, dtype=np.float64)
        )
        if self.weights is not None and self.weights.shape != self.src.shape:
            raise StreamError("weights must parallel the edge arrays")
        self.chunk_size = _check_chunk_size(chunk_size)
        self.name = name

    @classmethod
    def from_graph(cls, graph: Graph, chunk_size: int = 65536) -> "ArrayEdgeStream":
        stream = cls(
            graph.src, graph.dst, weights=graph.weights,
            chunk_size=chunk_size, name=graph.name,
        )
        stream.num_vertices_hint = graph.num_vertices
        stream.directed_hint = graph.directed
        return stream

    def chunks(self) -> Iterator[EdgeChunk]:
        for start in range(0, self.src.shape[0], self.chunk_size):
            stop = start + self.chunk_size
            w = None if self.weights is None else self.weights[start:stop]
            yield self.src[start:stop], self.dst[start:stop], w
