"""Length-prefixed pickle framing for the socket backend.

The socket backend (:mod:`repro.runtime.socket`) moves every
coordinator↔worker message over TCP as one *frame*: an 12-byte header —
a 4-byte magic marker plus a big-endian ``u64`` payload length —
followed by the pickled payload.  The magic marker makes a desynced or
foreign byte stream fail loudly on the very next frame instead of
misparsing a length, and the explicit length makes truncation (a peer
dying mid-send) distinguishable from a clean close at a frame boundary:

``ConnectionClosed``
    the peer closed the connection *between* frames — worker death or
    an orderly shutdown, reported upward as a lost worker.
``FrameError``
    the stream is corrupt: bad magic, an absurd length, or a close
    *inside* a frame (truncation).  Never retried.
``WireTimeout``
    the peer did not deliver a complete frame within the deadline —
    the stage-timeout mechanism shared with the process backend.

Connections open with a version handshake (:func:`send_hello` /
:func:`expect_hello`): each side ships ``WIRE_VERSION`` and its role,
and a mismatch raises :class:`ProtocolError` before any graph data
moves, so a coordinator from a newer checkout fails fast against a
stale standalone worker instead of mispickling mid-run.

Payloads are pickled with the highest protocol available to *both*
sides of a CPython version pair on one machine class — in practice
``pickle.HIGHEST_PROTOCOL``, because workers are expected to run the
same interpreter and repro checkout as the coordinator (the handshake
checks the wire version, not the pickle version; see README
*Multi-node runtime* limitations).
"""

from __future__ import annotations

import pickle
import socket as _socket
import struct
from time import monotonic
from typing import Any, Optional, Tuple

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "WireError",
    "ConnectionClosed",
    "FrameError",
    "WireTimeout",
    "ProtocolError",
    "send_frame",
    "recv_frame",
    "send_msg",
    "recv_msg",
    "send_hello",
    "expect_hello",
    "parse_hostport",
]

#: bump on any incompatible change to framing or message shapes.
WIRE_VERSION = 2

#: refuse frames larger than this (a desynced stream read as a length
#: field would otherwise ask for petabytes); generous enough for a full
#: worker-state shard of any graph this repo generates.
MAX_FRAME_BYTES = 1 << 33  # 8 GiB

_MAGIC = b"RBW\x01"
_HEADER = struct.Struct(">4sQ")


class WireError(RuntimeError):
    """Base class for framing/handshake failures on a wire connection."""


class ConnectionClosed(WireError):
    """The peer closed the connection at a frame boundary."""


class FrameError(WireError):
    """The byte stream is corrupt: bad magic, oversize, or truncated."""


class WireTimeout(WireError):
    """No complete frame arrived within the deadline."""


class ProtocolError(WireError):
    """The peers disagree on the wire protocol (version/handshake)."""


def parse_hostport(spec: str) -> Tuple[str, int]:
    """Split ``"host:port"`` into its parts, validating the port."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {spec!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"invalid port in {spec!r}") from None
    if not 0 <= port_num <= 65535:
        raise ValueError(f"port out of range in {spec!r}")
    return host, port_num


def send_frame(sock: _socket.socket, payload: bytes) -> None:
    """Write one frame; raises ``OSError`` if the peer is gone."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"refusing to send {len(payload)} byte frame "
            f"(MAX_FRAME_BYTES={MAX_FRAME_BYTES})"
        )
    header = _HEADER.pack(_MAGIC, len(payload))
    # Sends always block: a short timeout left behind by a timed recv on
    # the same socket must not make a large send fail spuriously.
    sock.settimeout(None)
    # Small frames ride in one syscall; large payloads are sent as-is to
    # avoid doubling peak memory with a header+payload concatenation.
    if len(payload) < 4096:
        sock.sendall(header + payload)
    else:
        sock.sendall(header)
        sock.sendall(payload)


def _recv_exact(
    sock: _socket.socket, n: int, deadline: Optional[float], mid_frame: bool
) -> bytes:
    """Read exactly ``n`` bytes, honouring an absolute monotonic deadline."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        if deadline is None:
            sock.settimeout(None)
        else:
            remaining = deadline - monotonic()
            if remaining <= 0:
                raise WireTimeout("timed out waiting for a frame")
            sock.settimeout(remaining)
        try:
            chunk = sock.recv_into(view[got:], n - got)
        except (TimeoutError, _socket.timeout):
            raise WireTimeout("timed out waiting for a frame") from None
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise ConnectionClosed(f"connection reset: {exc}") from None
        if chunk == 0:
            if mid_frame or got:
                raise FrameError(
                    f"truncated frame: connection closed after {got} of {n} bytes"
                )
            raise ConnectionClosed("connection closed by peer")
        got += chunk
    return bytes(buf)


def recv_frame(
    sock: _socket.socket,
    timeout: Optional[float] = None,
    max_bytes: int = MAX_FRAME_BYTES,
) -> bytes:
    """Read one complete frame's payload, enforcing ``timeout`` overall.

    The timeout covers the *whole* frame (header and payload): a peer
    trickling bytes cannot reset the clock per chunk.
    """
    deadline = None if timeout is None else monotonic() + timeout
    header = _recv_exact(sock, _HEADER.size, deadline, mid_frame=False)
    magic, length = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise FrameError(f"bad frame magic {magic!r} (desynced or foreign stream)")
    if length > max_bytes:
        raise FrameError(f"frame of {length} bytes exceeds the {max_bytes} byte cap")
    if length == 0:
        return b""
    return _recv_exact(sock, length, deadline, mid_frame=True)


def send_msg(sock: _socket.socket, obj: Any) -> None:
    """Pickle ``obj`` and send it as one frame."""
    send_frame(sock, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def recv_msg(sock: _socket.socket, timeout: Optional[float] = None) -> Any:
    """Receive one frame and unpickle its payload."""
    payload = recv_frame(sock, timeout=timeout)
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc


# ----------------------------------------------------------------------
# Version handshake
# ----------------------------------------------------------------------

_HELLO_KIND = "repro-wire-hello"


def send_hello(sock: _socket.socket, role: str) -> None:
    """Announce this side's protocol version and role."""
    send_msg(sock, {"kind": _HELLO_KIND, "version": WIRE_VERSION, "role": role})


def expect_hello(
    sock: _socket.socket, peer_role: str, timeout: Optional[float] = None
) -> dict:
    """Receive and validate the peer's hello; raise :class:`ProtocolError`.

    ``peer_role`` is the role the peer must announce (``"worker"`` from
    a coordinator's point of view and vice versa) — connecting two
    coordinators to each other fails here instead of hanging.
    """
    msg = recv_msg(sock, timeout=timeout)
    if not isinstance(msg, dict) or msg.get("kind") != _HELLO_KIND:
        raise ProtocolError(f"peer did not open with a hello (got {type(msg).__name__})")
    version = msg.get("version")
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"wire protocol version mismatch: peer speaks {version!r}, "
            f"this side speaks {WIRE_VERSION} (mixed repro checkouts?)"
        )
    role = msg.get("role")
    if role != peer_role:
        raise ProtocolError(f"expected a {peer_role!r} peer, got {role!r}")
    return msg
