"""Reference edge-list readers the block reader is tested against.

Not production code.  These are ``read_edge_list`` and
``iter_edge_chunks`` (with the header-line helper they call) as they
stood at commit 12cf7e9, before ``repro.graph.io`` parsed a block at a
time: one Python loop per function, one line per iteration.  Copied
verbatim apart from the ``oracle_`` prefix, so ``test_io_blocks.py`` can
require the block reader to return the same arrays, or fail the same
way, on any file.

Loaded by path (``test_io_blocks.py``) because ``tests/partition`` has
an ``oracles`` module too and test directories are not packages.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.graph import Graph


def oracle_read_edge_list(
    path: str,
    directed: Optional[bool] = None,
    num_vertices: Optional[int] = None,
    name: Optional[str] = None,
) -> Graph:
    """Read an edge list written by :func:`write_edge_list` or SNAP.

    Lines starting with ``#`` or ``%`` are comments.  If a repro-graph
    header is present it supplies directedness and the vertex count;
    explicit arguments override it.  For a plain SNAP file, ``directed``
    defaults to ``True``.
    """
    header_directed: Optional[bool] = None
    header_vertices: Optional[int] = None
    srcs: List[int] = []
    dsts: List[int] = []
    wts: List[float] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line[0] in "#%":
                parsed = _parse_repro_header(line)
                if parsed is not None:
                    header_directed, header_vertices = parsed
                continue
            parts = line.split()
            srcs.append(int(parts[0]))
            dsts.append(int(parts[1]))
            if len(parts) > 2:
                wts.append(float(parts[2]))
    if directed is None:
        directed = True if header_directed is None else header_directed
    if num_vertices is None:
        num_vertices = header_vertices
    if num_vertices is None:
        num_vertices = (max(max(srcs), max(dsts)) + 1) if srcs else 1
    weights = np.asarray(wts) if len(wts) == len(srcs) and wts else None
    return Graph(
        num_vertices,
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        weights=weights,
        directed=directed,
        name=name or os.path.splitext(os.path.basename(path))[0],
    )


def _parse_repro_header(line: str) -> Optional[Tuple[bool, int]]:
    """Parse one comment line; ``(directed, num_vertices)`` if it is a
    repro-graph header, ``None`` for any other comment."""
    parts = line[1:].split()
    if parts[:1] == ["repro-graph"] and len(parts) >= 4:
        return parts[1] == "directed", int(parts[2])
    return None


def oracle_iter_edge_chunks(
    path: str, chunk_size: int = 65536
) -> Iterator[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """Stream an edge-list file as ``(src, dst, weights)`` array chunks.

    The out-of-core reader behind :class:`repro.stream.TextEdgeListStream`:
    at most ``chunk_size`` edges are materialized at a time, so a graph
    that never fits in memory can still be partitioned.  Concatenating
    every chunk reproduces exactly the arrays :func:`read_edge_list`
    would build for the same file (same comment and header handling);
    ``weights`` is ``None`` for 2-column files.

    Unlike :func:`read_edge_list` — which drops weights wholesale when
    only some lines carry a third column — a chunked reader cannot see
    the whole file before deciding, so mixing 2- and 3-column edge lines
    raises ``ValueError``, as does any malformed line (both with the
    offending 1-based line number).
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    srcs: List[int] = []
    dsts: List[int] = []
    wts: List[float] = []
    weighted: Optional[bool] = None

    def flush():
        w = np.asarray(wts, dtype=np.float64) if weighted else None
        chunk = (
            np.asarray(srcs, dtype=np.int64),
            np.asarray(dsts, dtype=np.int64),
            w,
        )
        srcs.clear()
        dsts.clear()
        wts.clear()
        return chunk

    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line[0] in "#%":
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(
                    f"{path}:{lineno}: malformed edge line {line!r}; "
                    "expected 'u v [w]'"
                )
            try:
                u = int(parts[0])
                v = int(parts[1])
                w = float(parts[2]) if len(parts) > 2 else None
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed edge line {line!r}: {exc}"
                ) from None
            has_weight = w is not None
            if weighted is None:
                weighted = has_weight
            elif weighted != has_weight:
                raise ValueError(
                    f"{path}:{lineno}: inconsistent column count; the file "
                    f"{'has' if weighted else 'lacks'} edge weights but this "
                    "line does not match"
                )
            srcs.append(u)
            dsts.append(v)
            if has_weight:
                wts.append(w)
            if len(srcs) >= chunk_size:
                yield flush()
    if srcs:
        yield flush()
