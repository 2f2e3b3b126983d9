"""Edge mutation batches: the delta ingestion format for dynamic graphs.

A :class:`MutationBatch` is an *ordered* list of edge insert/delete
operations against a directed graph.  Order matters only between
operations touching the same ``(src, dst)`` pair; the resolution
semantics are:

* operations apply in sequence against the current edge multiset —
  duplicate inserts are legal (parallel edges, as everywhere else in
  the repo's multigraph model);
* a **delete** first matches the *smallest-id surviving* edge with that
  exact ``(src, dst)`` pair; if none survives, it cancels the earliest
  still-pending insert of the same pair from this batch
  (delete-then-reinsert and insert-then-delete both behave as a human
  would expect); otherwise the batch is rejected with
  :class:`MutationError` — deleting an edge that never existed is a
  caller bug, not a no-op;
* inserts may name vertices beyond the current ``num_vertices`` — the
  mutated graph grows to cover them.  Vertices are never removed, so
  ids stay stable across mutations (a vertex whose last edge is deleted
  becomes isolated).

Resolution produces a :class:`ResolvedBatch`: the old edge ids to drop
and the surviving inserts in batch order, which is all the incremental
maintenance in :mod:`repro.mutate.incremental` needs.  One resolver,
:meth:`MutationBatch.resolve`, reads the edge multiset as
``(edge_ids, src, dst)`` pieces: an in-memory graph is one piece
(:meth:`MutationBatch.resolve_against`), a spilled partition one piece
per shard (:func:`repro.stream.patch_spilled_partition`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph import Graph

__all__ = ["MutationBatch", "MutationError", "ResolvedBatch", "INSERT", "DELETE"]

INSERT = "insert"
DELETE = "delete"

_OP_ALIASES = {
    INSERT: INSERT,
    "+": INSERT,
    "add": INSERT,
    DELETE: DELETE,
    "-": DELETE,
    "del": DELETE,
    "remove": DELETE,
}


class MutationError(ValueError):
    """A mutation batch that cannot be parsed or applied."""


@dataclass(frozen=True)
class ResolvedBatch:
    """A batch resolved against a concrete graph's edge multiset.

    ``removed_ids`` are old-graph edge ids sorted ascending; ``insert_*``
    hold the surviving inserts in batch order; ``insert_weights`` is
    dense float64 with unspecified weights filled as 1.0, and
    ``has_explicit_weights`` records whether any insert actually carried
    one (so unweighted graphs can reject them).
    """

    removed_ids: np.ndarray
    insert_src: np.ndarray
    insert_dst: np.ndarray
    insert_weights: np.ndarray
    has_explicit_weights: bool
    num_cancelled: int

    @property
    def num_removed(self) -> int:
        return int(self.removed_ids.shape[0])

    @property
    def num_inserted(self) -> int:
        return int(self.insert_src.shape[0])

    def check_weights(self, weighted: bool) -> None:
        """Reject explicit insert weights for an unweighted edge list."""
        if self.has_explicit_weights and not weighted:
            raise MutationError(
                "batch carries edge weights but the edge list is unweighted; "
                "drop the weights or mutate a weighted one"
            )

    def num_vertices_after(self, num_vertices: int) -> int:
        """The vertex count grown to cover every inserted endpoint."""
        if not self.num_inserted:
            return int(num_vertices)
        top = max(self.insert_src.max(), self.insert_dst.max())
        return max(int(num_vertices), int(top) + 1)


class MutationBatch:
    """An ordered batch of edge inserts and deletes.

    Build fluently (``batch.insert(0, 1).delete(2, 3)``), from tuples
    (:meth:`from_ops`), or from a mutations file (:meth:`from_file`,
    one ``+ u v [w]`` / ``- u v`` operation per line).
    """

    def __init__(self, ops: Optional[Iterable[Sequence]] = None):
        self._ops: List[Tuple[str, int, int, Optional[float]]] = []
        if ops is not None:
            for op in ops:
                self._append(*op)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _append(self, op, src, dst, weight=None) -> None:
        kind = _OP_ALIASES.get(str(op).strip().lower())
        if kind is None:
            raise MutationError(
                f"unknown mutation op {op!r}; expected one of "
                f"{sorted(set(_OP_ALIASES))}"
            )
        try:
            u, v = int(src), int(dst)
        except (TypeError, ValueError) as exc:
            raise MutationError(f"mutation endpoints must be integers: {src!r}, {dst!r}") from exc
        if not (0 <= u < 2**63 and 0 <= v < 2**63):
            raise MutationError(f"mutation endpoints must be >= 0 and < 2**63, got ({u}, {v})")
        if kind == DELETE and weight is not None:
            raise MutationError(f"delete ({u}, {v}) must not carry a weight")
        self._ops.append((kind, u, v, None if weight is None else float(weight)))

    def insert(self, src: int, dst: int, weight: Optional[float] = None) -> "MutationBatch":
        """Append an edge insert (returns self for chaining)."""
        self._append(INSERT, src, dst, weight)
        return self

    def delete(self, src: int, dst: int) -> "MutationBatch":
        """Append an edge delete (returns self for chaining)."""
        self._append(DELETE, src, dst)
        return self

    @classmethod
    def from_ops(cls, ops: Iterable[Sequence]) -> "MutationBatch":
        """Build from ``(op, src, dst[, weight])`` tuples/lists."""
        return cls(ops)

    @classmethod
    def from_file(cls, path: str) -> "MutationBatch":
        """Parse a mutations file: one ``+ u v [w]`` or ``- u v`` per line.

        Blank lines and ``#`` comments are skipped.  The same grammar
        the ``repro mutate --mutations`` CLI flag consumes.
        """
        batch = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                fields = text.split()
                if len(fields) not in (3, 4):
                    raise MutationError(
                        f"{path}:{lineno}: expected 'op src dst [weight]', got {line!r}"
                    )
                try:
                    batch._append(*fields)
                except MutationError as exc:
                    raise MutationError(f"{path}:{lineno}: {exc}") from exc
        return batch

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def ops(self) -> Tuple[Tuple[str, int, int, Optional[float]], ...]:
        return tuple(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def num_insert_ops(self) -> int:
        return sum(1 for op in self._ops if op[0] == INSERT)

    @property
    def num_delete_ops(self) -> int:
        return sum(1 for op in self._ops if op[0] == DELETE)

    def to_ops(self) -> List[List[Union[str, int, float]]]:
        """JSON-friendly canonical op list (what ``PipelineSpec`` stores)."""
        out: List[List[Union[str, int, float]]] = []
        for kind, u, v, w in self._ops:
            row: List[Union[str, int, float]] = [kind, u, v]
            if w is not None:
                row.append(w)
            out.append(row)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MutationBatch(+{self.num_insert_ops} -{self.num_delete_ops} "
            f"over {len(self)} ops)"
        )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def resolve(
        self, pieces: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]], *, directed: bool
    ) -> ResolvedBatch:
        """Resolve against an edge multiset held as ``(edge_ids, src, dst)`` pieces.

        The pieces may split the edges any way and are read only when the
        batch deletes something; a delete takes the smallest surviving
        id of its pair across all of them.  ``directed`` is the edge
        list's own flag: undirected lists are refused.
        """
        if not directed:
            raise MutationError(
                "mutation batches apply to directed edge lists; undirected "
                "inputs store each edge as two arcs — mutate both explicitly"
            )
        delete_pairs = {(u, v) for kind, u, v, _ in self._ops if kind == DELETE}
        matches: List[Tuple[int, int, int]] = []
        if delete_pairs:
            for eids, src, dst in pieces:
                rows = _matching_rows(src, dst, delete_pairs)
                matches += zip(eids[rows].tolist(), src[rows].tolist(), dst[rows].tolist())
        candidates: Dict[Tuple[int, int], Deque[int]] = {}
        for eid, u, v in sorted(matches):
            candidates.setdefault((u, v), deque()).append(eid)
        removed: List[int] = []  # edge ids
        pending: List[Tuple[int, int, Optional[float]]] = []
        cancelled: List[bool] = []
        pending_by_pair: Dict[Tuple[int, int], Deque[int]] = {}
        for kind, u, v, w in self._ops:
            pair = (u, v)
            if kind == INSERT:
                pending_by_pair.setdefault(pair, deque()).append(len(pending))
                pending.append((u, v, w))
                cancelled.append(False)
                continue
            existing = candidates.get(pair)
            if existing:
                removed.append(existing.popleft())
                continue
            queued = pending_by_pair.get(pair)
            if queued:
                cancelled[queued.popleft()] = True
                continue
            raise MutationError(
                f"cannot delete edge ({u}, {v}): no such edge exists and no "
                "pending insert of that pair remains in the batch"
            )
        removed.sort()
        kept = [row for row, dead in zip(pending, cancelled) if not dead]
        insert_w = np.array(
            [1.0 if w is None else w for _, _, w in kept], dtype=np.float64
        )
        return ResolvedBatch(
            removed_ids=np.array(removed, dtype=np.int64),
            insert_src=np.array([u for u, _, _ in kept], dtype=np.int64),
            insert_dst=np.array([v for _, v, _ in kept], dtype=np.int64),
            insert_weights=insert_w,
            has_explicit_weights=any(w is not None for _, _, w in kept),
            num_cancelled=int(sum(cancelled)),
        )

    def resolve_against(self, graph: Graph) -> ResolvedBatch:
        """Resolve against an in-memory graph's edge arrays (one piece)."""
        pieces = [(np.arange(graph.num_edges), graph.src, graph.dst)]
        return self.resolve(pieces, directed=graph.directed)


def _matching_rows(src: np.ndarray, dst: np.ndarray, delete_pairs) -> np.ndarray:
    """Row indices whose ``(src, dst)`` pair is in ``delete_pairs``.

    Vectorized: pairs are encoded as ``u * base + v`` and matched with
    one ``np.isin`` over the edge arrays, so a small delete set against
    a large graph never builds a full pair index.  The keys are uint64
    and wrap once ids pass 2**32, so a key match is only a candidate:
    the candidates' exact pairs are checked against the set.
    """
    if not delete_pairs or src.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    src = np.ascontiguousarray(src, dtype=np.int64).view(np.uint64)
    dst = np.ascontiguousarray(dst, dtype=np.int64).view(np.uint64)
    base = max(int(src.max()), int(dst.max()), max(max(u, v) for u, v in delete_pairs)) + 1
    keys = np.array([(u * base + v) % 2**64 for u, v in delete_pairs], dtype=np.uint64)
    rows = np.nonzero(np.isin(src * np.uint64(base) + dst, keys))[0]
    exact = [pair in delete_pairs for pair in zip(src[rows].tolist(), dst[rows].tolist())]
    return rows[np.array(exact, dtype=bool)]

