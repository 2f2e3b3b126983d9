"""Length-prefixed framing for the socket backend.

The socket backend (:mod:`repro.runtime.socket`) moves every message
over TCP as one *frame*: a 12-byte header —
a 4-byte magic marker plus a big-endian ``u64`` payload length —
followed by the payload: a pickle on the coordinator link, an
:mod:`repro.arraytable` frame between workers.  The magic marker makes a
desynced or foreign byte stream fail loudly on the very next frame instead of
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
stale standalone worker instead of mispickling mid-run.  Worker↔worker
connections open with a *peer hello*: a size-capped frame holding the
session's token, compared before anything else on that connection is
read; nothing a peer sends is ever unpickled.  :func:`trade_frames`
multiplexes an exchange phase's sends and receives, so two peers sending
large frames cannot block each other.
A receiver grows its buffer only as bytes arrive (:data:`RECV_CHUNK` at
a time): a header that merely *claims* gigabytes costs nothing.

Coordinator messages are pickled with ``pickle.HIGHEST_PROTOCOL``,
because workers are expected to run the same interpreter and repro
checkout as the coordinator (the handshake checks the wire version, not
the pickle version; see README *Multi-node runtime* limitations).
"""

from __future__ import annotations

import hmac
import pickle
import selectors
import socket as _socket
import struct
from time import monotonic
from typing import Any, Dict, Hashable, Iterable, Mapping, Optional, Tuple

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
    "send_peer_hello",
    "expect_peer_hello",
    "trade_frames",
    "parse_hostport",
    "format_hostport",
    "listen",
]

#: bump on any incompatible change to framing or message shapes
#: (3: workers trade replica updates peer to peer; 4: as array tables).
WIRE_VERSION = 4

#: refuse frames larger than this (a desynced stream read as a length
#: field would otherwise ask for petabytes); generous enough for a full
#: worker-state shard of any graph this repo generates.
MAX_FRAME_BYTES = 1 << 33  # 8 GiB

#: the most a receiver allocates ahead of bytes that have arrived.
RECV_CHUNK = 1 << 20

_MAGIC = b"RBW\x01"
_HEADER = struct.Struct(">4sQ")
#: bytes of the per-session token in a peer hello.
TOKEN_BYTES = 16
#: a peer hello's payload: wire version, session token, dialer's worker id.
_PEER_HELLO = struct.Struct(f">B{TOKEN_BYTES}sI")


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
    """Split ``"host:port"`` (``"[v6]:port"``) into its parts, validating the port."""
    host, sep, port = spec.rpartition(":")
    if host[:1] == "[" and host[-1:] == "]":
        host = host[1:-1]
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {spec!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"invalid port in {spec!r}") from None
    if not 0 <= port_num <= 65535:
        raise ValueError(f"port out of range in {spec!r}")
    return host, port_num


def format_hostport(host: str, port: int) -> str:
    """The inverse of :func:`parse_hostport`."""
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


def listen(host: str, port: int) -> _socket.socket:
    """A listening TCP socket on ``(host, port)``, in the address's own family."""
    family = _socket.AF_INET6 if ":" in host else _socket.AF_INET
    return _socket.create_server((host, port), family=family)


def _header(length: int) -> bytes:
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"refusing to send {length} byte frame (MAX_FRAME_BYTES={MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(_MAGIC, length)


def send_frame(sock: _socket.socket, payload: bytes) -> None:
    """Write one frame; raises ``OSError`` if the peer is gone."""
    header = _header(len(payload))
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


class _Inbound:
    """One frame arriving: its buffer grows only by what each read got."""

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES):
        self.buf, self.need, self.max_bytes = bytearray(), _HEADER.size, max_bytes
        self.length: Optional[int] = None  # the payload's, once the header is in

    def feed(self, sock: _socket.socket) -> bool:
        """One read; ``True`` once the whole payload is in ``buf``."""
        chunk = sock.recv(min(self.need - len(self.buf), RECV_CHUNK))
        if not chunk:
            if self.buf or self.length is not None:
                raise FrameError(
                    f"truncated frame: connection closed after {len(self.buf)} "
                    f"of {self.need} bytes"
                )
            raise ConnectionClosed("connection closed by peer")
        self.buf += chunk
        if self.length is None and len(self.buf) == self.need:
            magic, self.length = _HEADER.unpack(self.buf)
            if magic != _MAGIC:
                raise FrameError(f"bad frame magic {magic!r} (desynced or foreign stream)")
            if self.length > self.max_bytes:
                raise FrameError(
                    f"frame of {self.length} bytes exceeds the {self.max_bytes} byte cap"
                )
            self.buf, self.need = bytearray(), self.length
        return self.length is not None and len(self.buf) == self.need


def recv_frame(
    sock: _socket.socket,
    timeout: Optional[float] = None,
    max_bytes: int = MAX_FRAME_BYTES,
) -> bytearray:
    """Read one complete frame's payload, enforcing ``timeout`` overall.

    The timeout covers the *whole* frame (header and payload): a peer
    trickling bytes cannot reset the clock per chunk.
    """
    deadline = None if timeout is None else monotonic() + timeout
    inbound = _Inbound(max_bytes)
    try:
        while True:
            sock.settimeout(None if deadline is None else max(deadline - monotonic(), 1e-6))
            if inbound.feed(sock):
                return inbound.buf
    except (TimeoutError, _socket.timeout):
        raise WireTimeout("timed out waiting for a frame") from None
    except (ConnectionResetError, BrokenPipeError) as exc:
        raise ConnectionClosed(f"connection reset: {exc}") from None


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


# ----------------------------------------------------------------------
# Worker to worker
# ----------------------------------------------------------------------


def send_peer_hello(sock: _socket.socket, token: bytes, worker_id: int) -> None:
    """Open a worker-to-worker connection: version, session token, our id."""
    send_frame(sock, _PEER_HELLO.pack(WIRE_VERSION, token, worker_id))


def expect_peer_hello(sock: _socket.socket, token: bytes, timeout: float) -> int:
    """Read a peer hello and return the dialer's worker id.

    The frame is capped at the hello's size and compared byte for byte;
    a wrong size, version or token is a :class:`ProtocolError`.
    """
    hello = recv_frame(sock, timeout, max_bytes=_PEER_HELLO.size)
    if len(hello) == _PEER_HELLO.size:
        version, got, worker_id = _PEER_HELLO.unpack(hello)
        if version == WIRE_VERSION and hmac.compare_digest(got, token):
            return worker_id
    raise ProtocolError("peer hello refused: wrong size, version or session token")


def trade_frames(
    socks: Mapping[Hashable, _socket.socket],
    outgoing: Mapping[Hashable, bytes],
    incoming: Iterable[Hashable],
    timeout: float,
) -> Dict[Hashable, bytearray]:
    """Send one frame to each ``outgoing`` peer while receiving one from
    each ``incoming`` peer, under one ``timeout``; return ``{peer: payload}``.

    ``socks`` maps a peer to its connection, which must be non-blocking.
    A failure raises the :class:`WireError` for it, naming the peer.
    Bytes of a peer's *next* frame stay unread for the next call.
    """
    deadline = monotonic() + timeout
    sending = {peer: memoryview(_header(len(data)) + data) for peer, data in outgoing.items()}
    receiving = {peer: _Inbound() for peer in incoming}
    received: Dict[Hashable, bytearray] = {}

    def events(peer) -> int:
        return (selectors.EVENT_WRITE if peer in sending else 0) | (
            selectors.EVENT_READ if peer in receiving else 0
        )

    with selectors.DefaultSelector() as selector:
        for peer in sending.keys() | receiving.keys():
            selector.register(socks[peer], events(peer), peer)
        while sending or receiving:
            remaining = deadline - monotonic()
            ready = selector.select(remaining) if remaining > 0 else []
            if not ready:
                waiting = sorted(sending.keys() | receiving.keys(), key=str)
                raise WireTimeout(
                    f"peer {waiting[0]} did not trade within {timeout:g}s "
                    f"(still waiting on {waiting})"
                )
            for key, mask in ready:
                peer, sock = key.data, key.fileobj
                try:
                    if mask & selectors.EVENT_WRITE:
                        sending[peer] = sending[peer][sock.send(sending[peer]):]
                        if not sending[peer]:
                            del sending[peer]
                    if mask & selectors.EVENT_READ:
                        while not receiving[peer].feed(sock):
                            pass  # until the payload is in or the socket runs dry
                        received[peer] = receiving.pop(peer).buf
                except (BlockingIOError, InterruptedError):
                    pass
                except (ConnectionClosed, FrameError) as exc:
                    raise type(exc)(f"peer {peer}: {exc}") from None
                except OSError as exc:
                    raise ConnectionClosed(f"peer {peer}: connection lost: {exc}") from None
                if events(peer):
                    selector.modify(sock, events(peer), peer)
                else:
                    selector.unregister(sock)
    return received
