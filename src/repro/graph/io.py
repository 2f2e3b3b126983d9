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
  1-based line number and its ``\n`` count;
* a **block kernel**, the C99 ``parse_edge_block`` in ``edge_kernel.c``
  (built on first use by :mod:`repro.ckernel`), for the shapes the
  paper's datasets have: a block that ends with ``\n``, whose lines are
  all ``u v`` or all ``u v w`` with unsigned decimal ids and plain
  decimal weights, separated by spaces and tabs.  It proves that shape
  and converts the whole block in one pass into arrays sized from the
  ``\n`` count;
* a **per-line parser** (:meth:`_EdgeParser._parse_lines`) that owns
  everything else — comments and repro-graph headers, mixed column
  counts, signs, ``\r``, ``inf`` / ``nan`` and other ``float`` forms,
  malformed lines — and every error message.

Which of the two parses a block is decided from that block's bytes
alone: a block the kernel declines goes to the per-line parser, which
returns the same arrays the kernel would have or raises.  Leading
comment lines are peeled off a block first, so a header does not cost
the block behind it the kernel.
"""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..ckernel import load_library
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

#: the C99 source of the block kernel
KERNEL_SOURCE = Path(__file__).with_name("edge_kernel.c")

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
    pieces = [parser.parse(*block) for block in _iter_blocks(path, _BLOCK_BYTES)]
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
    for block in _iter_blocks(path, min(_BLOCK_BYTES, max(4096, 16 * chunk_size))):
        pending.append(parser.parse(*block))
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


def _iter_blocks(path: str, block_bytes: int) -> Iterator[Tuple[bytes, int, int]]:
    """Yield ``(block, lineno, newlines)``: whole lines of ``path``, the
    1-based number of the block's first line and the block's ``\\n`` count.

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
                newlines = block.count(b"\n")
                yield block, lineno, newlines
                lineno += newlines
                if b"\r" in block:
                    lineno += block.count(b"\r") - block.count(b"\r\n")
    if tail:
        yield tail, lineno, tail.count(b"\n")


@functools.lru_cache(maxsize=None)
def _kernel() -> Callable[..., int]:
    """The kernel's ``parse_edge_block``, loaded once per process."""
    fn = load_library(KERNEL_SOURCE, "edge-list").parse_edge_block
    ptr = ctypes.c_void_p
    fn.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ptr, ptr, ptr,
                   ctypes.POINTER(ctypes.c_int32)]
    fn.restype = ctypes.c_int64
    return fn


def _parse_block(
    block: bytes, newlines: int
) -> Optional[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """The block kernel: ``(src, dst, weights)`` of a block it takes, else
    ``None``.  ``weights`` is ``None`` unless the block's lines are
    ``u v w``; ``newlines``, the block's ``\\n`` count, sizes the arrays."""
    src = np.empty(newlines, dtype=np.int64)
    dst = np.empty(newlines, dtype=np.int64)
    wts = np.empty(newlines, dtype=np.float64)
    columns = ctypes.c_int32()
    count = _kernel()(
        block, len(block), newlines, src.ctypes.data, dst.ctypes.data, wts.ctypes.data,
        columns,
    )
    if count < 0:
        return None
    return src[:count], dst[:count], wts[:count] if columns.value == 3 else None


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

    def parse(self, block: bytes, lineno: int, newlines: int) -> _Edges:
        """``block``'s edges, by the kernel if its bytes allow, else line by
        line; ``newlines`` is the block's ``\\n`` count."""
        head = 0
        while block[head : head + 1] in (b"#", b"%"):
            head = block.find(b"\n", head) + 1 or len(block)
        if head and b"\r" not in block[:head]:
            # Comment lines only: header hints, no edges.
            self._parse_lines(block[:head], lineno)
            skipped = block.count(b"\n", 0, head)
            lineno += skipped
            newlines -= skipped
            block = block[head:]
        edges = _parse_block(block, newlines)
        # In strict mode a block whose column count disagrees with the
        # file's is an error, and the message is the per-line parser's.
        if edges is None or (
            self.strict and edges[0].size and self.weighted not in (None, edges[2] is not None)
        ):
            return self._parse_lines(block, lineno)
        src, dst, wts = edges
        if self.strict and src.size:
            self.weighted = wts is not None
        return src, dst, np.empty(0) if wts is None else wts

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
