"""Named numpy arrays as one validated table plus raw bytes: the codec of
snapshot payloads (:func:`views`), peer exchange frames (:func:`pack`) and
spill files (:func:`read_file`).  A table ``[[name, dtype.str, shape], ...]``
is outside input, checked entry by entry and against the byte total
before any ``np.frombuffer``; every failure is an :class:`ArrayTableError`.
"""

from __future__ import annotations

import json
import os
import struct
from math import prod
from typing import Any, Dict, List, Mapping, Sequence

import numpy as np

__all__ = ["ArrayTableError", "describe", "views", "pack", "unpack", "read_file"]

_LENGTH = struct.Struct(">I")
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
#: itemsize of every bool/int/uint/float ``dtype.str``, in either byte order.
_ITEMSIZE = {
    np.dtype(c).newbyteorder(o).str: np.dtype(c).itemsize for c in "?bBhHiIlLqQefdg" for o in "<>"
}
_MAX_BYTES = int(np.iinfo(np.intp).max)


class ArrayTableError(ValueError):
    """An array table, frame or file does not describe its bytes."""


def describe(named: Mapping[str, np.ndarray]) -> List[List[Any]]:
    """The table for ``named``'s arrays, in mapping order."""
    return [[name, arr.dtype.str, list(arr.shape)] for name, arr in named.items()]


def _nbytes(entry: Any) -> int:
    """Validate one table entry; return its array's byte count."""
    if not (
        type(entry) is list
        and [type(field) for field in entry] == [str, str, list]
        and all(type(dim) is int and dim >= 0 for dim in entry[2])
    ):
        raise ArrayTableError(f"{entry!r} is not [name, dtype, [ints >= 0]]")
    name, dtype, shape = entry
    if dtype not in _ITEMSIZE:
        raise ArrayTableError(f"{name!r} is {dtype!r}, not a bool/int/uint/float")
    # numpy 1.x takes 32 dimensions at most, and refuses a shape whose nonzero
    # dimensions' byte product overflows intp even if a zero one empties it.
    if len(shape) > 32 or _ITEMSIZE[dtype] * prod(filter(None, shape)) > _MAX_BYTES:
        raise ArrayTableError(f"{name!r} has shape {shape}, which numpy cannot represent")
    return _ITEMSIZE[dtype] * prod(shape)


def views(table: Any, buffer) -> Dict[str, np.ndarray]:
    """Validate ``table`` against ``buffer``, then slice views of it by name."""
    if type(table) is not list:
        raise ArrayTableError("the table is missing or not a list")
    starts: Dict[str, int] = {}
    end = 0
    for entry in table:
        nbytes = _nbytes(entry)
        if entry[0] in starts:
            raise ArrayTableError(f"array {entry[0]!r} is listed twice")
        starts[entry[0]], end = end, end + nbytes
    if end != len(buffer):
        raise ArrayTableError(f"it covers {end} bytes, the buffer holds {len(buffer)}")
    return {
        name: np.frombuffer(buffer, dtype, prod(shape), starts[name]).reshape(shape)
        for name, dtype, shape in table
    }


def pack(named: Mapping[str, np.ndarray]) -> bytes:
    """A frame of ``named``'s arrays: a big-endian ``u32`` table length,
    the table as JSON, then the buffers."""
    arrays = {name: np.asarray(arr, order="C") for name, arr in named.items()}
    table = _ENCODE(describe(arrays)).encode()
    return b"".join([_LENGTH.pack(len(table)), table, *arrays.values()])


def unpack(buffer) -> Dict[str, np.ndarray]:
    """The arrays of a :func:`pack` frame, as views of ``buffer``."""
    view = memoryview(buffer).cast("B")
    try:
        end = _LENGTH.size + _LENGTH.unpack_from(view)[0]
        if end > len(view):
            raise ValueError(f"it ends at byte {end} of {len(view)}")
        table = json.loads(bytes(view[_LENGTH.size : end]))
    except (struct.error, ValueError, RecursionError) as exc:
        raise ArrayTableError(f"unreadable frame table: {exc}") from None
    return views(table, view[end:])


def read_file(path: str, dtype, shape: Sequence[int]) -> np.ndarray:
    """Read a headerless array file whose size must match ``shape`` exactly."""
    dtype, count = np.dtype(dtype), prod(shape)
    size, expect = os.path.getsize(path), dtype.itemsize * count
    if size != expect:
        raise ArrayTableError(f"holds {size} bytes, {dtype.str}{tuple(shape)} is {expect}")
    return np.fromfile(path, dtype, count).reshape(shape)
