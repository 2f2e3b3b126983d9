"""The socket backend's frame protocol (:mod:`repro.runtime.wire`).

Property tests over the framing layer — every payload round-trips
exactly, including multi-frame sequences and payloads far past 64 KiB
(multiple ``recv_into`` chunks) — plus the failure taxonomy the
coordinator relies on to classify worker death: truncation mid-frame is
:class:`FrameError`, a clean close at a frame boundary is
:class:`ConnectionClosed`, silence is :class:`WireTimeout`, and a
mismatched protocol version fails the handshake with
:class:`ProtocolError` before any graph data moves.
"""

import pickle
import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import wire


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(payload=st.binary(max_size=4096))
def test_frame_round_trip(payload):
    a, b = socket.socketpair()
    try:
        wire.send_frame(a, payload)
        assert wire.recv_frame(b, timeout=5.0) == payload
    finally:
        a.close()
        b.close()


@settings(max_examples=25, deadline=None)
@given(
    objs=st.lists(
        st.one_of(
            st.integers(),
            st.text(max_size=64),
            st.dictionaries(st.integers(0, 8), st.binary(max_size=32), max_size=4),
            st.tuples(st.sampled_from(["ok", "error", "ready"]), st.integers()),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_msg_sequence_round_trip(objs):
    """Back-to-back frames on one stream stay aligned (no desync)."""
    a, b = socket.socketpair()
    try:
        for obj in objs:
            wire.send_msg(a, obj)
        for obj in objs:
            assert wire.recv_msg(b, timeout=5.0) == obj
    finally:
        a.close()
        b.close()


def test_large_payload_round_trip(pair):
    """Payloads far beyond 64 KiB survive chunked recv_into reassembly."""
    a, b = pair
    arrays = {
        "values": np.arange(300_000, dtype=np.float64),
        "changed": np.ones(300_000, dtype=bool),
    }
    done = threading.Event()
    # > 2 MiB: larger than any socket buffer, so the sender must run
    # concurrently with the receiver.
    t = threading.Thread(target=lambda: (wire.send_msg(a, arrays), done.set()))
    t.start()
    got = wire.recv_msg(b, timeout=30.0)
    t.join(timeout=30)
    assert done.is_set()
    assert np.array_equal(got["values"], arrays["values"])
    assert np.array_equal(got["changed"], arrays["changed"])


def test_empty_payload_round_trip(pair):
    a, b = pair
    wire.send_frame(a, b"")
    assert wire.recv_frame(b, timeout=5.0) == b""


# ----------------------------------------------------------------------
# Failure taxonomy
# ----------------------------------------------------------------------


def test_clean_close_at_boundary_is_connection_closed(pair):
    a, b = pair
    wire.send_msg(a, ("ok", 1))
    a.close()
    assert wire.recv_msg(b, timeout=5.0) == ("ok", 1)
    with pytest.raises(wire.ConnectionClosed):
        wire.recv_msg(b, timeout=5.0)


def test_truncated_frame_is_frame_error(pair):
    """A peer dying mid-send is truncation, never a clean close."""
    a, b = pair
    payload = b"x" * 1000
    header = struct.Struct(">4sQ").pack(b"RBW\x01", len(payload))
    a.sendall(header + payload[:137])
    a.close()
    with pytest.raises(wire.FrameError, match="truncated"):
        wire.recv_frame(b, timeout=5.0)


def test_truncated_header_is_frame_error(pair):
    a, b = pair
    a.sendall(b"RBW")
    a.close()
    with pytest.raises(wire.FrameError, match="truncated"):
        wire.recv_frame(b, timeout=5.0)


def test_bad_magic_is_frame_error(pair):
    a, b = pair
    a.sendall(struct.Struct(">4sQ").pack(b"HTTP", 12) + b"x" * 12)
    with pytest.raises(wire.FrameError, match="magic"):
        wire.recv_frame(b, timeout=5.0)


def test_a_lying_length_allocates_nothing_until_bytes_arrive(pair):
    """A header claiming 1 GiB, then a close: truncation, not a 1 GiB buffer."""
    a, b = pair
    a.sendall(struct.Struct(">4sQ").pack(b"RBW\x01", 1 << 30) + b"z" * 100)
    a.close()
    tracemalloc.start()
    try:
        with pytest.raises(wire.FrameError, match="truncated"):
            wire.recv_frame(b, timeout=5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_oversize_frame_rejected_without_allocation(pair):
    a, b = pair
    a.sendall(struct.Struct(">4sQ").pack(b"RBW\x01", wire.MAX_FRAME_BYTES + 1))
    with pytest.raises(wire.FrameError, match="exceeds"):
        wire.recv_frame(b, timeout=5.0)


def test_recv_cap_is_tunable(pair):
    a, b = pair
    wire.send_frame(a, b"y" * 2048)
    with pytest.raises(wire.FrameError, match="exceeds"):
        wire.recv_frame(b, timeout=5.0, max_bytes=1024)


def test_undecodable_payload_is_frame_error(pair):
    a, b = pair
    wire.send_frame(a, b"\x80\x05 this is not a pickle")
    with pytest.raises(wire.FrameError, match="undecodable"):
        wire.recv_msg(b, timeout=5.0)


def test_silence_is_wire_timeout(pair):
    _a, b = pair
    with pytest.raises(wire.WireTimeout):
        wire.recv_frame(b, timeout=0.2)


def test_trickle_cannot_reset_the_deadline(pair):
    """The timeout covers the whole frame, not each chunk."""
    a, b = pair
    header = struct.Struct(">4sQ").pack(b"RBW\x01", 64)

    def trickle():
        for byte in header + b"z" * 8:  # never completes the frame
            a.sendall(bytes([byte]))
            if stop.wait(0.05):
                return

    stop = threading.Event()
    t = threading.Thread(target=trickle)
    t.start()
    try:
        with pytest.raises(wire.WireTimeout):
            wire.recv_frame(b, timeout=0.5)
    finally:
        stop.set()
        t.join(timeout=10)


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------


def test_hello_round_trip(pair):
    a, b = pair
    wire.send_hello(a, "worker")
    msg = wire.expect_hello(b, "worker", timeout=5.0)
    assert msg["version"] == wire.WIRE_VERSION


@pytest.mark.parametrize("peer_version", [1, 2, 3, wire.WIRE_VERSION + 1])
def test_version_mismatch_is_protocol_error(pair, peer_version):
    """Version 1 is the pre-shard ``init`` payload and command names,
    version 2 the coordinator-rerouted exchange, version 3 the pickled
    peer frames: a worker (or coordinator) from any of those checkouts
    is refused at the hello, not inside ``init`` unpacking or at the
    first exchange."""
    assert wire.WIRE_VERSION == 4
    a, b = pair
    wire.send_msg(
        a, {"kind": "repro-wire-hello", "version": peer_version, "role": "worker"}
    )
    with pytest.raises(wire.ProtocolError, match="version mismatch.*mixed repro checkouts"):
        wire.expect_hello(b, "worker", timeout=5.0)


def test_role_mismatch_is_protocol_error(pair):
    """Two coordinators dialing each other fail fast instead of hanging."""
    a, b = pair
    wire.send_hello(a, "coordinator")
    with pytest.raises(wire.ProtocolError, match="expected a 'worker' peer"):
        wire.expect_hello(b, "worker", timeout=5.0)


def test_non_hello_opening_is_protocol_error(pair):
    a, b = pair
    wire.send_msg(a, ("compute", 0))
    with pytest.raises(wire.ProtocolError, match="did not open with a hello"):
        wire.expect_hello(b, "worker", timeout=5.0)


# ----------------------------------------------------------------------
# Address parsing
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("localhost:7001", ("localhost", 7001)),
        ("127.0.0.1:0", ("127.0.0.1", 0)),
        ("node-3.cluster:65535", ("node-3.cluster", 65535)),
        ("[::1]:7001", ("::1", 7001)),
        ("::1:0", ("::1", 0)),
        ("[fe80::2%eth0]:9", ("fe80::2%eth0", 9)),
    ],
)
def test_parse_hostport(spec, expected):
    assert wire.parse_hostport(spec) == expected
    assert wire.parse_hostport(wire.format_hostport(*expected)) == expected


def test_format_hostport_brackets_only_ipv6():
    assert wire.format_hostport("127.0.0.1", 80) == "127.0.0.1:80"
    assert wire.format_hostport("::1", 80) == "[::1]:80"


@pytest.mark.parametrize(
    "spec", ["nohost", ":7001", "host:", "host:port", "h:70000", "[]:7001", "[::1]:port"]
)
def test_parse_hostport_rejects(spec):
    with pytest.raises(ValueError):
        wire.parse_hostport(spec)


# ----------------------------------------------------------------------
# Worker-to-worker connections
# ----------------------------------------------------------------------

TOKEN = bytes(range(wire.TOKEN_BYTES))


def test_peer_hello_names_the_dialer(pair):
    a, b = pair
    wire.send_peer_hello(a, TOKEN, 7)
    assert wire.expect_peer_hello(b, TOKEN, timeout=5.0) == 7


HELLO = struct.Struct(f">B{wire.TOKEN_BYTES}sI")
VERSION = wire.WIRE_VERSION


@pytest.mark.parametrize(
    "send, error",
    [
        (lambda a: wire.send_frame(a, HELLO.pack(VERSION, bytes(wire.TOKEN_BYTES), 1)), "refused"),
        (lambda a: wire.send_frame(a, HELLO.pack(VERSION - 1, TOKEN, 1)), "refused"),
        (lambda a: wire.send_frame(a, HELLO.pack(VERSION, TOKEN, 1) + b"!"), "exceeds"),
        (lambda a: wire.send_msg(a, ("compute", 0)), "exceeds|refused"),
        (lambda a: a.sendall(pickle.dumps(("compute", 0))), "magic"),
    ],
    ids=["wrong-token", "wrong-version", "oversize", "a-message", "raw-pickle"],
)
def test_peer_hello_refuses_strangers_unread(pair, send, error):
    a, b = pair
    send(a)
    with pytest.raises(wire.WireError, match=error):
        wire.expect_peer_hello(b, TOKEN, timeout=5.0)


@pytest.fixture()
def peers():
    """Two non-blocking ends of one connection, as a mesh holds them."""
    a, b = socket.socketpair()
    for sock in (a, b):
        sock.setblocking(False)
    yield a, b
    a.close()
    b.close()


def test_trade_is_one_frame_each_way(peers):
    a, b = peers
    got = {}
    t = threading.Thread(
        target=lambda: got.update(b=wire.trade_frames({"a": b}, {"a": b"from-b"}, ["a"], 5.0))
    )
    t.start()
    got["a"] = wire.trade_frames({"b": a}, {"b": b"from-a"}, ["b"], 5.0)
    t.join(timeout=10)
    assert got == {"a": {"b": b"from-b"}, "b": {"a": b"from-a"}}


def test_large_frames_both_ways_at_once_do_not_deadlock(peers):
    """Each side ships 8 MiB while the other does: send-all-then-receive
    would leave both blocked in ``sendall`` with full socket buffers."""
    a, b = peers
    big_a, big_b = b"a" * (8 << 20), b"b" * (8 << 20)
    got = {}
    t0 = time.monotonic()
    t = threading.Thread(
        target=lambda: got.update(b=wire.trade_frames({"a": b}, {"a": big_b}, ["a"], 10.0))
    )
    t.start()
    got["a"] = wire.trade_frames({"b": a}, {"b": big_a}, ["b"], 10.0)
    t.join(timeout=20)
    assert time.monotonic() - t0 < 10.0
    assert got["a"] == {"b": big_b} and got["b"] == {"a": big_a}


def test_a_later_frame_waits_for_the_next_trade(peers):
    """Two frames queued back to back: each trade takes exactly one."""
    a, b = peers
    wire.trade_frames({"b": a}, {"b": b"first"}, [], 5.0)
    wire.trade_frames({"b": a}, {"b": b"second"}, [], 5.0)
    assert wire.trade_frames({"a": b}, {}, ["a"], 5.0) == {"a": b"first"}
    assert wire.trade_frames({"a": b}, {}, ["a"], 5.0) == {"a": b"second"}


def test_a_silent_peer_is_named(peers):
    _a, b = peers
    message = r"peer a did not trade within 0.2s \(still waiting on \['a'\]\)"
    with pytest.raises(wire.WireTimeout, match=message):
        wire.trade_frames({"a": b}, {}, ["a"], 0.2)


def test_a_closed_peer_is_named(peers):
    a, b = peers
    a.close()
    with pytest.raises(wire.ConnectionClosed, match="peer 3: connection closed by peer"):
        wire.trade_frames({3: b}, {}, [3], 5.0)


class _Tripwire:
    """Unpickling this sets ``repro.UNPICKLED``."""

    def __reduce__(self):
        return exec, ("import repro; repro.UNPICKLED = True",)


def test_a_pickled_peer_frame_is_refused_unread(monkeypatch):
    """A token-holding peer that sends a pickle instead of an array table
    gets a typed error naming it, and its payload is never unpickled."""
    import repro
    from repro.runtime.socket import _Peers

    monkeypatch.setattr(repro, "UNPICKLED", False, raising=False)
    mesh = _Peers(0, "127.0.0.1")
    port = mesh.listen()
    with socket.create_connection(("127.0.0.1", port)) as peer:
        wire.send_peer_hello(peer, TOKEN, 1)
        mesh.connect(TOKEN, [("127.0.0.1", port), ("127.0.0.1", 0)], timeout=5.0)
        payload = pickle.dumps(_Tripwire())
        wire.send_frame(peer, payload)
        try:
            with pytest.raises(wire.FrameError, match="peer 1: undecodable frame"):
                mesh.trade({}, [1])
        finally:
            mesh.close()
    assert repro.UNPICKLED is False
    pickle.loads(payload)  # the control: the tripwire does fire
    assert repro.UNPICKLED is True


def test_a_peer_closing_mid_frame_is_truncation(peers):
    a, b = peers
    a.setblocking(True)
    a.sendall(struct.Struct(">4sQ").pack(b"RBW\x01", 100) + b"x" * 10)
    a.close()
    with pytest.raises(wire.FrameError, match="peer 1: truncated frame"):
        wire.trade_frames({1: b}, {}, [1], 5.0)
