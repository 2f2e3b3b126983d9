"""The edge-list block kernel's weights and its strict-mode hand-off.

A weight the kernel takes must be the double Python's ``float`` reads
from the same token, bit for bit (``-0.0`` and subnormals included); a
token it declines goes to the per-line parser, which reads it with
``float`` itself, so a file's weights are ``float``'s either way.  On
arbitrary bytes the kernel either declines or agrees with the per-line
parser.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.io as graph_io
from repro.graph import iter_edge_chunks, read_edge_list


def _random_doubles(count, seed=7):
    """``repr`` of finite doubles drawn from every exponent."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=4 * count, dtype=np.uint64)
    values = bits.view(np.float64)
    return [repr(float(v)) for v in values[np.isfinite(values)][:count]]


TAKEN = _random_doubles(500) + [
    "5e-324", "2.2250738585072014e-308", "2.225073858507201e-308", "1e-310",
    "4.9406564584124654e-324", "1.7976931348623157e308", "1.7976931348623158e308",
    "-0.0", "0.0", "0", "+0", "1e-05", "1E-05", "1e+16", "1.5E+16", "1e400", "-1e400",
    "1e-400", ".5", "-.5", "5.", "+5.", "0.1", "0.30000000000000004", "9007199254740993",
    "1e23", "8.98846567431158e307", "123456789012345678901234567890.125e-10",
]
#: longer than the kernel's token buffer: declined, read by ``float``
DECLINED = ["1" + "0" * 399 + ".5", "0." + "3" * 400, "1" * 400 + "e-390"]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("tokens", [TAKEN, DECLINED], ids=["taken", "declined"])
def test_weights_are_floats_bits(tmp_path, tokens):
    block = "".join(f"{i} {i + 1} {token}\n" for i, token in enumerate(tokens)).encode()
    expected = _bits([float(token) for token in tokens])
    if tokens is TAKEN:
        src, dst, wts = graph_io._parse_block(block, len(tokens))
        assert np.array_equal(wts.view(np.int64), expected)
        assert src.tolist() == list(range(len(tokens))) == (dst - 1).tolist()
    else:
        for token in tokens:
            assert graph_io._parse_block(f"0 1 {token}\n".encode(), 1) is None
    path = tmp_path / "w.txt"
    path.write_bytes(block)
    assert np.array_equal(read_edge_list(str(path)).weights.view(np.int64), expected)
    (chunk,) = iter_edge_chunks(str(path), len(tokens))
    assert np.array_equal(chunk[2].view(np.int64), expected)


@pytest.mark.parametrize("first, second", [(3, 2), (2, 3)], ids=["weighted-first", "plain-first"])
def test_strict_mode_raises_the_per_line_message_across_blocks(
    tmp_path, monkeypatch, first, second
):
    # 16-byte lines, 256 to a 4096-byte block: two blocks of one column
    # count, then a block the kernel takes whole with the other.
    line = {2: "{:07d} {:07d}\n", 3: "{:05d} {:05d} 0.5\n"}
    text = "".join(line[first].format(i, i + 1) for i in range(512))
    text += "".join(line[second].format(i, i + 1) for i in range(256))
    path = tmp_path / "mixed.txt"
    path.write_text(text)
    taken = []
    parse_block = graph_io._parse_block

    def recording(block, newlines):
        edges = parse_block(block, newlines)
        taken.append(edges is not None)
        return edges

    monkeypatch.setattr(graph_io, "_parse_block", recording)
    has = "has" if first == 3 else "lacks"
    message = (
        rf"mixed\.txt:513: inconsistent column count; the file {has} edge "
        "weights but this line does not match"
    )
    with pytest.raises(ValueError, match=message):
        list(iter_edge_chunks(str(path), 1))  # 4096-byte blocks
    assert taken == [True, True, True]
    # Lenient mode reads the same file: weights dropped wholesale.
    graph = read_edge_list(str(path))
    assert graph.num_edges == 768 and graph.weights is None


#: bytes an edge-list block must survive: control bytes, signs, number
#: syntax, float words and comment markers.
_ODD = [
    b"9223372036854775808", b"18446744073709551616", b"1e999", b"5e-324", b"-0.0", b" ",
    b"\t", b"\n", b"\r", b"\r\n", b"\0", b"\xff", b"+", b"-", b".", b"e", b"E", b"inf",
    b"-inf", b"nan", b"NaN", b"i", b"n", b"f", b"a", b"#", b"%", b"# c\n", b"% c\n",
]
_ID = st.integers(0, 2**63 - 1).map(lambda i: str(i).encode())
_WEIGHT = st.one_of(_ID, st.floats().map(lambda x: repr(x).encode()))


@st.composite
def _blocks(draw):
    """``u v`` or ``u v w`` lines whose fields and ends are sometimes odd bytes."""
    columns = draw(st.sampled_from([2, 3]))
    odd = st.sampled_from(_ODD)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        fields = [draw(_ID), draw(_ID), draw(_WEIGHT)][:columns]
        if draw(st.integers(0, 3)) == 0:  # splice odd bytes into one field
            at = draw(st.integers(0, columns - 1))
            fields[at] = draw(st.sampled_from([b"", fields[at]])) + draw(odd)
        sep = draw(st.sampled_from([b" ", b"\t", b"  ", b" \t"]))
        lines.append(sep.join(fields) + draw(st.sampled_from([b"\n", b"\n", b" \n", b"\r\n"])))
    return b"".join(lines)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_blocks(), st.binary(max_size=64), st.lists(st.sampled_from(_ODD)).map(b"".join)))
def test_arbitrary_bytes_are_declined_or_parsed_as_the_line_parser_does(block):
    edges = graph_io._parse_block(block, block.count(b"\n"))
    if edges is None:
        return
    src, dst, wts = edges
    ref_src, ref_dst, ref_wts = graph_io._EdgeParser("fuzz.txt", strict=True)._parse_lines(block, 1)
    assert src.tolist() == ref_src.tolist()
    assert dst.tolist() == ref_dst.tolist()
    if wts is None:
        assert ref_wts.size == 0
    else:
        assert np.array_equal(wts.view(np.int64), ref_wts.view(np.int64))
