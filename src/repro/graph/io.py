"""Graph serialization: SNAP-style edge lists and METIS adjacency files.

The paper's datasets ship as SNAP edge lists (LiveJournal, Friendster,
Twitter) and DIMACS-adjacent formats (USARoad).  These readers/writers let
users run the library on real downloads when they have them, and are also
used by the tests to round-trip generated graphs.

How an edge list is read
------------------------
:func:`read_edge_list` and :func:`iter_edge_chunks` share one reader in
three pieces:

* a **block reader** (:func:`_iter_blocks`) that reads the file in binary
  reads of at most ``_BLOCK_BYTES``, cuts each after its last line end,
  carries the tail into the next block and knows every block's first
  1-based line number;
* a **block kernel** (:func:`_parse_regular`) for the shape the paper's
  datasets have: every byte of the block is a digit, space, tab or
  ``\n`` and every non-blank line is exactly two tokens.  A few numpy
  reductions over the bytes prove that shape, then one
  ``np.fromstring`` call converts the whole block;
* a **per-line parser** (:meth:`_EdgeParser._parse_lines`) that owns
  everything else — comments and repro-graph headers, weighted
  ``u v w`` lines, signs, ``\r``, malformed lines — and every error
  message.

Which of the two parses a block is decided from that block's bytes
alone: a block the kernel cannot prove regular goes to the per-line
parser, which returns the same arrays the kernel would have or raises.
Leading comment lines are peeled off a block first, so a header does
not cost the block behind it the kernel.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .graph import Graph

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "read_edge_list_header",
    "iter_edge_chunks",
    "write_metis",
    "read_metis",
]

#: Bytes per read.  A constant, not a knob: on the ledger 64 KiB and
#: 1 MiB blocks are no faster end to end and both raise peak RSS
#: (`ebv-powerlaw`: 48.88 / 48.80 / 50.09 MB at 64 KiB / 256 KiB / 1 MiB).
_BLOCK_BYTES = 256 * 1024

_INT64_MAX = np.iinfo(np.int64).max

#: ``(src, dst, weights)`` of one block; ``weights`` is as long as the
#: edge arrays, or shorter when some (or all) lines carry no weight.
_Edges = Tuple[np.ndarray, np.ndarray, np.ndarray]


def write_edge_list(graph: Graph, path: str, header: bool = True) -> None:
    """Write a whitespace-separated ``u v [w]`` edge list.

    A SNAP-style comment header records vertex/edge counts and
    directedness so :func:`read_edge_list` can round-trip exactly.
    """
    with open(path, "w", encoding="ascii") as fh:
        if header:
            kind = "directed" if graph.directed else "undirected-doubled"
            fh.write(f"# repro-graph {kind} {graph.num_vertices} {graph.num_edges}\n")
        if graph.weights is None:
            for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
                fh.write(f"{u} {v}\n")
        else:
            for u, v, w in zip(
                graph.src.tolist(), graph.dst.tolist(), graph.weights.tolist()
            ):
                fh.write(f"{u} {v} {w}\n")


def read_edge_list(
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

    Weights are lenient: when only some edge lines carry a third column
    they are dropped wholesale (:func:`iter_edge_chunks` rejects such a
    file).  A line that is not ``u v [w ...]`` raises ``ValueError``
    naming ``path:lineno``.
    """
    parser = _EdgeParser(path, strict=False)
    pieces = [
        parser.parse(block, lineno) for block, lineno in _iter_blocks(path, _BLOCK_BYTES)
    ]
    src, dst, wts = _concatenate(pieces)
    header_directed, header_vertices = parser.header
    if directed is None:
        directed = True if header_directed is None else header_directed
    if num_vertices is None:
        num_vertices = header_vertices
    if num_vertices is None:
        num_vertices = int(max(src.max(), dst.max())) + 1 if src.size else 1
    return Graph(
        num_vertices,
        src,
        dst,
        weights=wts if wts.size == src.size and wts.size else None,
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


def read_edge_list_header(path: str) -> Tuple[Optional[bool], Optional[int]]:
    """Return the ``(directed, num_vertices)`` hints of a repro-graph header.

    Only the leading comment block is scanned (a header after the first
    edge would not describe the whole file); both entries are ``None``
    for plain SNAP files without a repro-graph header.
    """
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line[0] not in "#%":
                break
            parsed = _parse_repro_header(line)
            if parsed is not None:
                return parsed
    return None, None


def iter_edge_chunks(
    path: str, chunk_size: int = 65536
) -> Iterator[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """Stream an edge-list file as ``(src, dst, weights)`` array chunks.

    The out-of-core reader behind :class:`repro.stream.TextEdgeListStream`:
    every chunk but the last holds exactly ``chunk_size`` edges, and the
    file is read in blocks sized from ``chunk_size`` (capped at
    ``_BLOCK_BYTES``), so peak memory is O(``chunk_size``) and a graph
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
    parser = _EdgeParser(path, strict=True)

    def chunks(edges: _Edges, stop: int):
        src, dst, wts = edges
        for lo in range(0, stop, chunk_size):
            hi = lo + chunk_size
            yield src[lo:hi], dst[lo:hi], wts[lo:hi] if parser.weighted else None

    pending: List[_Edges] = []
    count = 0
    for block, lineno in _iter_blocks(path, min(_BLOCK_BYTES, max(4096, 16 * chunk_size))):
        pending.append(parser.parse(block, lineno))
        count += pending[-1][0].size
        if count < chunk_size:
            continue
        edges = _concatenate(pending)
        full = count - count % chunk_size
        yield from chunks(edges, full)
        src, dst, wts = edges
        pending = [(src[full:], dst[full:], wts[full:])]
        count -= full
    if count:
        yield from chunks(_concatenate(pending), count)


# ----------------------------------------------------------------------
# The shared reader: block reader, block kernel, per-line parser
# ----------------------------------------------------------------------

def _concatenate(pieces: List[_Edges]) -> _Edges:
    if not pieces:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    src, dst, wts = (np.concatenate(column) for column in zip(*pieces))
    return src, dst, wts


def _iter_blocks(path: str, block_bytes: int) -> Iterator[Tuple[bytes, int]]:
    """Yield ``(block, lineno)``: whole lines of ``path`` and the 1-based
    number of the block's first line.

    Every read of at most ``block_bytes`` is cut after its last line end
    and the tail carried into the next block, so only a line longer than
    a read makes a block longer than ``block_bytes``.  Line ends are the
    universal-newline ones (``\\n``, ``\\r\\n``, lone ``\\r``), which is
    what the line numbers in error messages count.
    """
    lineno = 1
    tail = b""
    with open(path, "rb") as fh:
        while True:
            data = fh.read(block_bytes)
            if not data:
                break
            data = tail + data
            # A final "\r" may be the first half of "\r\n": never cut there.
            cut = data.rfind(b"\n") + 1 or data.rfind(b"\r", 0, len(data) - 1) + 1
            block, tail = data[:cut], data[cut:]
            if block:
                yield block, lineno
                lineno += block.count(b"\n")
                if b"\r" in block:
                    lineno += block.count(b"\r") - block.count(b"\r\n")
    if tail:
        yield tail, lineno


def _parse_regular(block: bytes) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The block kernel: ``(src, dst)`` of a regular block, else ``None``.

    Regular means every byte is a digit, space, tab or ``\\n`` and every
    line holds no token or exactly two.  Tokens are then digit runs, so
    ``np.fromstring`` cannot stop early; the value count is compared
    anyway.  Ids too large for int64 saturate there, so a block with a
    saturated value is left to the per-line parser, which reads it
    exactly.
    """
    data = np.frombuffer(block, dtype=np.uint8)
    digit = (data - np.uint8(ord("0"))) < 10  # uint8 wrap-around: one compare
    newline = data == ord("\n")
    if not (digit | newline | (data == ord(" ")) | (data == ord("\t"))).all():
        return None
    token_start = digit.copy()
    token_start[1:] &= ~digit[:-1]
    tokens = int(np.count_nonzero(token_start))
    if tokens == 0:  # np.fromstring reads an all-blank string as [0]
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    line_starts = np.concatenate(([0], np.flatnonzero(newline) + 1))
    if line_starts[-1] == data.size:
        line_starts = line_starts[:-1]
    per_line = np.add.reduceat(token_start, line_starts, dtype=np.intp)
    if not ((per_line == 0) | (per_line == 2)).all():
        return None
    values = np.fromstring(block, dtype=np.int64, sep=" ")
    if values.size != tokens or values.max() == _INT64_MAX:
        return None
    return np.ascontiguousarray(values[0::2]), np.ascontiguousarray(values[1::2])


class _EdgeParser:
    """Parses the blocks of one edge-list file, in file order.

    ``strict`` is :func:`iter_edge_chunks`' contract: the first edge line
    fixes whether edges carry a weight and every later one must agree;
    comment lines are skipped unread.  Lenient mode collects the hints of
    the last repro-graph header instead and leaves the weights to the
    caller.
    """

    def __init__(self, path: str, strict: bool):
        self.path = path
        self.strict = strict
        #: strict mode: whether edge lines carry a weight (``None``: no edge yet).
        self.weighted: Optional[bool] = None
        #: lenient mode: ``(directed, num_vertices)`` of the last header seen.
        self.header: Tuple[Optional[bool], Optional[int]] = (None, None)

    def parse(self, block: bytes, lineno: int) -> _Edges:
        """``block``'s edges, by the kernel if its bytes allow, else line by line."""
        head = 0
        while block[head : head + 1] in (b"#", b"%"):
            head = block.find(b"\n", head) + 1 or len(block)
        if head and b"\r" not in block[:head]:
            # Comment lines only: header hints, no edges.
            self._parse_lines(block[:head], lineno)
            lineno += block.count(b"\n", 0, head)
            block = block[head:]
        # After a weighted line in strict mode a regular block is an error,
        # and the message is the per-line parser's.
        if not (self.strict and self.weighted):
            pair = _parse_regular(block)
            if pair is not None:
                if self.strict and pair[0].size:
                    self.weighted = False
                return pair + (np.empty(0),)
        return self._parse_lines(block, lineno)

    def _parse_lines(self, block: bytes, first_lineno: int) -> _Edges:
        """The per-line parser: any ``u v [w ...]`` lines, comments, errors."""
        text = block.decode("ascii")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        strict = self.strict
        srcs: List[int] = []
        dsts: List[int] = []
        wts: List[float] = []
        for lineno, line in enumerate(text.split("\n"), start=first_lineno):
            parts = line.split()
            if not parts:
                continue
            if parts[0][0] in "#%":
                if not strict:
                    parsed = _parse_repro_header(line.strip())
                    if parsed is not None:
                        self.header = parsed
                continue
            if len(parts) < 2:
                raise ValueError(
                    f"{self.path}:{lineno}: malformed edge line {line.strip()!r}; "
                    "expected 'u v [w]'"
                )
            try:
                u = int(parts[0])
                v = int(parts[1])
                w = float(parts[2]) if len(parts) > 2 else None
            except ValueError as exc:
                raise ValueError(
                    f"{self.path}:{lineno}: malformed edge line {line.strip()!r}: {exc}"
                ) from None
            if strict:
                if self.weighted is None:
                    self.weighted = w is not None
                elif self.weighted != (w is not None):
                    raise ValueError(
                        f"{self.path}:{lineno}: inconsistent column count; the file "
                        f"{'has' if self.weighted else 'lacks'} edge weights but this "
                        "line does not match"
                    )
            srcs.append(u)
            dsts.append(v)
            if w is not None:
                wts.append(w)
        return (
            np.asarray(srcs, dtype=np.int64),
            np.asarray(dsts, dtype=np.int64),
            np.asarray(wts, dtype=np.float64),
        )


def write_metis(graph: Graph, path: str) -> None:
    """Write the METIS adjacency format (1-indexed, undirected).

    Directed edges are symmetrized because the METIS format requires each
    edge to appear in both endpoint adjacency lists.
    """
    adj: List[set] = [set() for _ in range(graph.num_vertices)]
    for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
        if u == v:
            continue
        adj[u].add(v)
        adj[v].add(u)
    num_edges = sum(len(a) for a in adj) // 2
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{graph.num_vertices} {num_edges}\n")
        for a in adj:
            fh.write(" ".join(str(v + 1) for v in sorted(a)) + "\n")


def read_metis(path: str, name: Optional[str] = None) -> Graph:
    """Read a METIS adjacency file into an undirected (doubled) graph."""
    with open(path, "r", encoding="ascii") as fh:
        stripped = (ln.strip() for ln in fh)
        lines = [ln for ln in stripped if ln and not ln.startswith("%")]
    if not lines:
        raise ValueError(f"{path}: no METIS header line (file is empty or all comments)")
    header = lines[0].split()
    n = int(header[0])
    edges = []
    for u, line in enumerate(lines[1 : n + 1]):
        for tok in line.split():
            v = int(tok) - 1
            if u < v:
                edges.append((u, v))
    return Graph.from_undirected_edges(
        edges, num_vertices=n, name=name or os.path.splitext(os.path.basename(path))[0]
    )
