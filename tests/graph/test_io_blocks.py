"""The block reader behind ``read_edge_list`` / ``iter_edge_chunks``.

``oracles.py`` keeps the two per-line loops the block reader replaced.
Everything here is differential or structural — nothing is timed:

* a hypothesis test over generated files (comments, headers, blank
  lines, every line ending, weights on all / some / no lines, signed,
  huge, fractional and non-numeric ids, control and non-ASCII bytes) at
  several block sizes, requiring the oracle's arrays or the oracle's
  failure;
* ``test_io.py`` re-run with 7-, 64- and 4096-byte blocks, so a header
  split across blocks and a line longer than a block are exercised;
* which parser a block takes, and that the chunked reader's memory is
  O(chunk), not O(file).
"""

import importlib.util
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import repro.graph.io as graph_io
import test_io
from repro.graph import generate_graph, iter_edge_chunks, read_edge_list, write_edge_list

# tests/partition has an ``oracles`` module too, and test directories are
# not packages: load this directory's under a name of its own.
_spec = importlib.util.spec_from_file_location(
    "graph_io_oracles", Path(__file__).with_name("oracles.py")
)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

BLOCK_SIZES = [7, 64, 4096, graph_io._BLOCK_BYTES]
CHUNK_SIZES = [1, 7, 1024, 65536]


@pytest.fixture
def block_bytes(request, monkeypatch):
    monkeypatch.setattr(graph_io, "_BLOCK_BYTES", request.param)
    return request.param


small_blocks = [
    pytest.mark.parametrize("block_bytes", BLOCK_SIZES[:3], indirect=True),
    pytest.mark.usefixtures("block_bytes"),
]


# ----------------------------------------------------------------------
# Generated files
# ----------------------------------------------------------------------

INT64_MAX = 2**63 - 1

plain_ids = st.integers(0, 10**7).map(str)
odd_ids = st.sampled_from(
    ["007", "+5", "-3", "1_000", "0" * 25 + "8", str(INT64_MAX - 1)]
    + [str(INT64_MAX), str(-INT64_MAX), str(-INT64_MAX - 1)]
)
bad_ids = st.sampled_from(
    ["1__0", "_1", "0x10", "1.5", "1e3", "abc", "1\x002", "9" * 25]
    + [str(INT64_MAX + 1), str(-INT64_MAX - 2)]
)
weights = st.sampled_from(["0.5", "1", "-3.5", "1e-3", "1_0", "nan", "inf"] * 3 + ["0x1p3", "x"])
blanks = st.sampled_from([" "] * 12 + ["\t", "  ", " \t ", "\x0c", "\x1f"])
padding = st.sampled_from([""] * 8 + [" ", "\t", "  "])
comments = st.sampled_from(
    [
        "", "   ", "\t", "# comment", "% comment", "  # indented", "#",
        "# repro-graph directed 80 3", "# repro-graph undirected-doubled 90 4",
        "# repro-graph directed", "%repro-graph directed 70 1",
    ]
)
broken = st.sampled_from(["42", "-", "1 2\xff", "#\xe9", "# repro-graph directed many 1"])
line_ends = st.sampled_from(["\n"] * 12 + ["\r\n", "\r"])


@st.composite
def edge_lines(draw, columns, ids):
    tokens = [draw(ids), draw(ids)] + [draw(weights) for _ in range(draw(columns) - 2)]
    line = tokens[0]
    for token in tokens[1:]:
        line += draw(blanks) + token
    return draw(padding) + line + draw(padding)


@st.composite
def edge_files(draw):
    """Bytes of an edge-list file: runs of ``u v`` lines (what the kernel
    takes when unweighted) between comments, blanks, odd-but-valid and
    broken lines, with weights on no, every or some edge lines."""
    columns = draw(
        st.sampled_from([st.just(2), st.just(2), st.just(3), st.sampled_from([2, 3, 4])])
    )
    ids = st.one_of([plain_ids] * draw(st.sampled_from([4, 40])) + [odd_ids] * 2 + [bad_ids])
    between = st.one_of([comments] * 12 + [edge_lines(columns, ids)] * 6 + [broken])
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        lines += draw(st.lists(edge_lines(columns, plain_ids), max_size=12))
        lines += draw(st.lists(between, max_size=3))
    text = "".join(line + draw(line_ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("latin-1")


def outcome(call):
    try:
        return call(), None
    except Exception as exc:  # the differential test compares failures too
        return None, exc


def located(exc, path):
    return type(exc) is ValueError and re.match(re.escape(path) + r":\d+: ", str(exc))


def unlocated_race(old, new):
    """The parent raised ``OverflowError`` at a chunk flush and
    ``UnicodeDecodeError`` at a buffer decode, so which of them or of an
    earlier / later located error surfaced depended on its buffer sizes;
    with either involved only "fails with one of these" is comparable."""
    racy = (OverflowError, UnicodeDecodeError)
    return isinstance(new, racy + (ValueError,)) and (
        isinstance(old, racy) or isinstance(new, racy)
    )


def same_bits(a, b):
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def concat_chunks(chunks):
    src = np.concatenate([c[0] for c in chunks]) if chunks else np.empty(0, dtype=np.int64)
    dst = np.concatenate([c[1] for c in chunks]) if chunks else np.empty(0, dtype=np.int64)
    weighted = [c[2] for c in chunks if c[2] is not None]
    assert len(weighted) in (0, len(chunks))
    return src, dst, np.concatenate(weighted) if weighted else None


def check_read_edge_list(path, data):
    old, old_exc = outcome(lambda: oracles.oracle_read_edge_list(path))
    new, new_exc = outcome(lambda: read_edge_list(path))
    event(f"read_edge_list: parent {type(old_exc).__name__ if old_exc else 'returns'}")
    if old_exc is None:
        assert new_exc is None, new_exc
        assert same_bits(new.src, old.src) and same_bits(new.dst, old.dst)
        assert same_bits(new.weights, old.weights)
        assert (new.num_vertices, new.directed, new.name) == (
            old.num_vertices, old.directed, old.name,
        )
        return
    assert new_exc is not None, f"parent raised {old_exc!r}"
    if type(new_exc) is type(old_exc) and str(new_exc) == str(old_exc):
        return  # e.g. a malformed repro-graph header, ids Graph rejects
    if unlocated_race(old_exc, new_exc):
        return
    # The one intended difference: a bare IndexError / "invalid literal"
    # becomes the chunked reader's located message.
    assert type(old_exc) in (IndexError, ValueError), old_exc
    assert located(new_exc, path), new_exc
    lineno = int(str(new_exc)[len(path) + 1 :].split(":")[0])
    lines = data.decode("latin-1").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    assert f"malformed edge line {lines[lineno - 1].strip()!r}" in str(new_exc)


def check_iter_edge_chunks(path, chunk_size):
    old, old_exc = outcome(lambda: list(oracles.oracle_iter_edge_chunks(path, chunk_size)))
    new, new_exc = outcome(lambda: list(iter_edge_chunks(path, chunk_size)))
    event(f"iter_edge_chunks: parent {type(old_exc).__name__ if old_exc else 'returns'}")
    if old_exc is None:
        assert new_exc is None, new_exc
        assert [c[0].size for c in new] == [c[0].size for c in old]  # exactly chunk_size
        for a, b in zip(concat_chunks(new), concat_chunks(old)):
            assert same_bits(a, b)
        return
    assert new_exc is not None, f"parent raised {old_exc!r}"
    if unlocated_race(old_exc, new_exc):
        return
    assert type(new_exc) is type(old_exc), (old_exc, new_exc)
    assert str(new_exc) == str(old_exc)  # same line number, same text


class TestDifferential:
    @pytest.mark.parametrize("block_bytes", BLOCK_SIZES, indirect=True)
    # Both fixtures hold one value for every example of a run.
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=edge_files(), chunk_size=st.sampled_from([1, 2, 3, 7, 1024]))
    def test_generated_files(self, tmp_path, block_bytes, data, chunk_size):
        path = str(tmp_path / "g.txt")
        Path(path).write_bytes(data)
        check_read_edge_list(path, data)
        check_iter_edge_chunks(path, chunk_size)

    @pytest.mark.parametrize(
        "text",
        [
            "0 1\n42\n",  # parent: IndexError
            "0 1\n1 x\n",  # parent: unlocated "invalid literal"
            "0 1 0.5\n1 2 heavy\n",  # parent: unlocated "could not convert"
        ],
    )
    def test_read_edge_list_locates_malformed_lines(self, tmp_path, text):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=r"bad\.txt:2: malformed edge line"):
            read_edge_list(str(p))

    def test_read_edge_list_keeps_the_lenient_partial_weights_rule(self, tmp_path):
        p = tmp_path / "some.txt"
        p.write_text("0 1 0.5\n1 2\n2 3 1.5 extra\n")
        g = read_edge_list(str(p))
        assert g.src.tolist() == [0, 1, 2] and g.weights is None
        p.write_text("0 1 0.5\n2 3 1.5 extra\n")
        assert read_edge_list(str(p)).weights.tolist() == [0.5, 1.5]

    # The ledger's graph kinds and sizes (benchmarks/ledger/workloads.py).
    @pytest.mark.parametrize("seed", [20210707, 77001])
    @pytest.mark.parametrize(
        "graph",
        [
            dict(kind="powerlaw", vertices=10_000),
            dict(kind="powerlaw", vertices=30_000),
            dict(kind="road", vertices=25_000),
            dict(kind="powerlaw", vertices=6_000),
            dict(kind="powerlaw", vertices=8_000, directed=True),
        ],
        ids=["ebv-powerlaw", "pr-process", "road-cc-socket", "stream-ebv-spill", "mutate-ckpt"],
    )
    def test_ledger_inputs(self, tmp_path, graph, seed):
        path = str(tmp_path / "graph.txt")
        write_edge_list(generate_graph(**graph, seed=seed), path)
        old = oracles.oracle_read_edge_list(path)
        new = read_edge_list(path)
        assert same_bits(new.src, old.src) and same_bits(new.dst, old.dst)
        assert same_bits(new.weights, old.weights)
        assert (new.num_vertices, new.directed) == (old.num_vertices, old.directed)
        for chunk_size in CHUNK_SIZES:
            chunks = list(iter_edge_chunks(path, chunk_size))
            assert {c[0].size for c in chunks[:-1]} <= {chunk_size}
            assert 0 < chunks[-1][0].size <= chunk_size
            for a, b in zip(concat_chunks(chunks), (old.src, old.dst, old.weights)):
                assert same_bits(a, b)


# ----------------------------------------------------------------------
# test_io.py again, with blocks small enough to cut everywhere
# ----------------------------------------------------------------------


class TestEdgeListSmallBlocks(test_io.TestEdgeList):
    pytestmark = small_blocks


class TestIterEdgeChunksSmallBlocks(test_io.TestIterEdgeChunks):
    pytestmark = small_blocks

    def test_line_longer_than_a_block(self, tmp_path):
        p = tmp_path / "long.txt"
        p.write_text("# " + "x" * 10_000 + "\n" + " " * 5000 + "3\t" + "0" * 5000 + "4\n5 6")
        (chunk,) = iter_edge_chunks(str(p), 4)
        assert chunk[0].tolist() == [3, 5] and chunk[1].tolist() == [4, 6]

    def test_error_line_numbers_count_every_line_ending(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"# header\r\n0 1\r1 2\n\n2 3\r\noops\n")
        with pytest.raises(ValueError, match=r"bad\.txt:6: malformed edge line 'oops'"):
            list(iter_edge_chunks(str(p), 2))


# ----------------------------------------------------------------------
# Which parser runs, and what the chunked reader holds
# ----------------------------------------------------------------------


class TestParserSelection:
    @pytest.fixture
    def per_line_calls(self, monkeypatch):
        calls = []
        parse_lines = graph_io._EdgeParser._parse_lines

        def counting(self, block, lineno):
            edges = parse_lines(self, block, lineno)
            calls.append((block, edges[0].size))
            return edges

        monkeypatch.setattr(graph_io._EdgeParser, "_parse_lines", counting)
        return calls

    @pytest.mark.parametrize("header", [True, False])
    @pytest.mark.parametrize("graph", ["small_powerlaw", "small_road"])
    def test_edge_file_never_reaches_the_per_line_parser(
        self, tmp_path, request, per_line_calls, graph, header
    ):
        graph = request.getfixturevalue(graph)
        p = str(tmp_path / "g.txt")
        write_edge_list(graph, p, header=header)
        g = read_edge_list(p)
        chunks = list(iter_edge_chunks(p, 512))
        assert g.num_edges == sum(c[0].size for c in chunks) == graph.num_edges
        assert same_bits(g.weights, graph.weights)
        assert same_bits(concat_chunks(chunks)[2], graph.weights)
        # Only the peeled header line, once per reader; zero data lines.
        assert [size for _, size in per_line_calls] == [0, 0] * header
        assert all(block.startswith(b"# repro-graph") for block, _ in per_line_calls)

    @pytest.mark.parametrize(
        "block",
        [b"1 2", b"1\n2 3\n", b"1 2\n3\n", b"1 2\r\n", b"-1 2\n", b"+1 2\n", b"# c\n",
         b"1.0 2\n", b"1 2\n3 4.5\n", b"1 2 3\n4 5\n", b"1 2 3 4\n", b"1 2\x0c3 4\n",
         b"1 2\xc3\xa9\n", b"1_0 2\n", b"1 2 1_0.5\n", b"1 2 inf\n", b"1 2 nan\n",
         b"1 2 0x1p3\n", b"1 2 1.5e\n", b"1 2 .\n", b"1 2 5\x00\n",
         b"9223372036854775808 1\n", b"1 99999999999999999999\n"],
    )
    def test_kernel_declines_without_raising(self, block):
        assert graph_io._parse_block(block, block.count(b"\n")) is None

    @pytest.mark.parametrize(
        "block, edges, weights",
        [
            (b"", [], None),
            (b"\n \t\n", [], None),
            (b"1 2\n", [(1, 2)], None),
            (b"1 2 3\n", [(1, 2)], [3.0]),
            (b"9223372036854775807 1\n", [(2**63 - 1, 1)], None),
            (b"\n\n 1\t\t2 \n\n007 9223372036854775806\n \n", [(1, 2), (7, 2**63 - 2)], None),
            (b"0 1\t-2.5e-3 \n\n4 5 +.5\n", [(0, 1), (4, 5)], [-2.5e-3, 0.5]),
        ],
    )
    def test_kernel_takes_regular_blocks(self, block, edges, weights):
        src, dst, wts = graph_io._parse_block(block, block.count(b"\n"))
        assert src.dtype == dst.dtype == np.int64
        assert src.flags.c_contiguous and dst.flags.c_contiguous
        assert list(zip(src.tolist(), dst.tolist())) == edges
        assert (wts if wts is None else wts.tolist()) == weights

    def test_no_warning_escapes(self, tmp_path, recwarn):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n1 2.5\n2 3\n\n   \n")
        with pytest.raises(ValueError, match=r"g\.txt:2"):
            list(iter_edge_chunks(str(p), 4))
        p.write_text("0 1\n\n   \n")
        assert read_edge_list(str(p)).num_edges == 1
        assert not recwarn.list


def _traced_peak(path, chunk_size):
    tracemalloc.start()
    try:
        edges = sum(src.size for src, _, _ in iter_edge_chunks(path, chunk_size))
        return edges, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunked_reader_memory_is_bounded_by_the_chunk(tmp_path):
    rng = np.random.default_rng(7)
    peaks = {}
    for edges in (20_000, 200_000):
        path = tmp_path / f"g{edges}.txt"
        pairs = rng.integers(0, 10**6, size=(edges, 2)).tolist()
        path.write_text("\n".join(map("%d %d".__mod__, map(tuple, pairs))) + "\n")
        read, peaks[edges] = _traced_peak(str(path), 1024)
        assert read == edges
    assert peaks[200_000] <= 1.5 * peaks[20_000]
