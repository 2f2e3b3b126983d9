"""The array-table codec (:mod:`repro.arraytable`).

Round trips over every dtype kind the codec admits (zero-length and
zero-dimensional arrays included), and the failure contract: a packed
frame cut short or run long, arbitrary bytes, and a file whose size
disagrees with its shape all raise :class:`ArrayTableError` and nothing
else — no numpy or json exception escapes.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.arraytable import ArrayTableError, describe, pack, read_file, unpack, views

DTYPES = st.sampled_from(
    ["|b1", "|i1", "<i2", "<i4", "<i8", "|u1", "<u2", "<u4", "<u8", "<f2", "<f4", "<f8"]
)
ARRAYS = DTYPES.flatmap(
    lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
)
NAMED = st.dictionaries(st.text(max_size=8), ARRAYS, max_size=4)


def _same(got, want):
    assert list(got) == list(want)
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype and got[name].shape == arr.shape
        assert got[name].tobytes() == arr.tobytes()  # NaNs compare by bits


@settings(max_examples=100, deadline=None)
@given(named=NAMED)
def test_pack_unpack_round_trip(named):
    frame = pack(named)
    _same(unpack(frame), named)
    _same(unpack(bytearray(frame)), named)


@settings(max_examples=50, deadline=None)
@given(named=NAMED)
def test_views_round_trip_the_snapshot_layout(named):
    payload = b"".join(np.ascontiguousarray(arr).tobytes() for arr in named.values())
    _same(views(describe(named), payload), named)


def test_non_contiguous_input_is_packed_in_order():
    grid = np.arange(12).reshape(3, 4)
    got = unpack(pack({"col": grid[:, 1], "t": grid.T}))
    assert got["col"].tolist() == [1, 5, 9]
    assert np.array_equal(got["t"], grid.T)


FRAME = pack({"sel": np.array([True, False, True]), "val": np.array([1.5, -2.0])})


@pytest.mark.parametrize("cut", range(len(FRAME)))
def test_every_truncation_is_a_table_error(cut):
    with pytest.raises(ArrayTableError):
        unpack(FRAME[:cut])


@pytest.mark.parametrize("extra", [b"\x00", b" ", b"\x00" * 7, b"{}", FRAME])
def test_every_extension_is_a_table_error(extra):
    with pytest.raises(ArrayTableError):
        unpack(FRAME + extra)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=256))
def test_arbitrary_bytes_raise_only_table_errors(data):
    try:
        unpack(data)
    except ArrayTableError:
        pass


@settings(max_examples=300, deadline=None)
@given(
    table=st.text(max_size=64).map(lambda t: t.encode()),
    payload=st.binary(max_size=32),
)
def test_arbitrary_tables_raise_only_table_errors(table, payload):
    """Past a valid length prefix, whatever the table says."""
    try:
        unpack(len(table).to_bytes(4, "big") + table + payload)
    except ArrayTableError:
        pass


@pytest.mark.parametrize(
    "table",
    [
        '[["a","<i8",[2]],["a","<i8",[0]]]',
        '[["a","<i8",[1e3]]]',
        '[["a","<i8",[' + "9" * 5000 + "]]]",
        '[["a","<i8",[' + ",".join(["1"] * 65) + "]]]",
        '[["a","<i8",[0,' + str(10**30) + "]]]",
        '[["a","<i8",[' + str(2**62) + ",0]]]",
        '[["a","<i3",[1]]]',
        '[["a","|O",[1]]]',
        "[" * 100_000,
        '{"a": 1}',
    ],
    ids=[
        "repeated-name", "float-dim", "huge-literal", "too-many-dims", "dim-too-big",
        "size-too-big", "bad-itemsize", "object", "deep-nesting", "not-a-list",
    ],
)
def test_hostile_tables_are_table_errors(table):
    data = table.encode()
    with pytest.raises(ArrayTableError):
        unpack(len(data).to_bytes(4, "big") + data)


def test_read_file_checks_the_exact_size(tmp_path):
    path = tmp_path / "rows.bin"
    rows = np.arange(12, dtype=np.int64).reshape(4, 3)
    rows.tofile(path)
    assert np.array_equal(read_file(str(path), np.int64, (4, 3)), rows)
    for shape in [(3, 3), (5, 3)]:
        with pytest.raises(ArrayTableError, match="holds 96 bytes"):
            read_file(str(path), np.int64, shape)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 4)  # a trailing partial record
    with pytest.raises(ArrayTableError, match="holds 100 bytes, <i8\\(4, 3\\) is 96"):
        read_file(str(path), np.int64, (4, 3))


def test_importing_the_codec_loads_no_other_repro_module():
    code = (
        "import sys, repro.arraytable\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro')))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "['repro', 'repro.arraytable']"
