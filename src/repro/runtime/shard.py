"""One worker's shard: the only caller of the superstep kernels.

A :class:`WorkerShard` holds everything one BSP worker needs for a
whole run — its id, its :class:`~repro.bsp.distributed.LocalSubgraph`,
the program, its inbound slices of the route plan — plus ``p``-length
lists of the per-worker arrays the kernels in
:mod:`repro.runtime.worker` read across workers.  A worker's arrays are
defined once, here: :func:`worker_arrays` allocates them for the
program's mode, :data:`SNAPSHOT_KINDS` names the ones a checkpoint
keeps, and :func:`check_restore` validates a snapshot against them
before any copy.  Every backend builds one shard per worker from
:func:`worker_arrays` and differs only in *where the shard lives* and
*what the sibling slots hold*:

``serial`` / ``thread``
    ``p`` shards in the calling process over the session's heap arrays;
    ``serial`` calls them inline, ``thread`` on its pool.
``process``
    one shard per child over shared pages inherited at fork — every
    slot is a sibling's real array.
``socket``
    one shard per TCP worker over locally allocated arrays — only its
    own slot is real.  The exchange is one command,
    :meth:`WorkerShard.exchange`: for each phase the shard slices its
    own array along its *outbound* routes, trades the slices with its
    peers directly (``peers``, the wire plane's mesh of worker-to-worker
    connections), fills the sibling slots with index-compacted
    stand-ins from what arrived, and runs the same
    :meth:`~WorkerShard.exchange_up` / :meth:`~WorkerShard.exchange_down`
    as everyone else.

:meth:`~WorkerShard.compute`, :meth:`~WorkerShard.exchange_up` and
:meth:`~WorkerShard.exchange_down` are the single call site of each
kernel in ``repro.runtime`` and the single place a kernel call is
bracketed with monotonic-clock reads; each returns the
``(value, t0_ns, t1_ns)`` triple
:func:`repro.runtime.base.finish_compute_stage` /
:func:`~repro.runtime.base.finish_exchange_stage` fold into walls and
spans.  ``CLOCK_MONOTONIC`` is system-wide on Linux, so triples measured
in children and local TCP workers merge with the coordinator's spans.

Why the stand-ins are exact: a sender ships data already sliced by
``route.src_index``, so the receiver's route indexes it with
``arange(len(route))`` (:func:`compact_routes`) and ``dst_index`` is
unchanged; compaction commutes with the kernels'
``route.src_index[sel]`` selections, per-destination route order is
preserved, and a route whose selection mask is empty ships an empty
:data:`Slice` and reads as an all-false mask — the kernel's own
``continue``.  Slices travel as :mod:`repro.arraytable` frames, so a
peer's bytes are validated and read as arrays, never as objects.  A shard
slices for the down phase only after its own up kernel ran, which is
all the up/down barrier the kernels need.  Results, message tallies and
floating-point accumulation order are therefore bit-identical to the
shared-array path.
"""

from __future__ import annotations

from time import monotonic_ns
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..bsp.distributed import LocalSubgraph, _Route
from ..bsp.program import ACCUMULATE, MINIMIZE, SubgraphProgram
from ..checkpoint.store import CheckpointError
from .worker import superstep_compute, superstep_exchange_down, superstep_exchange_up

__all__ = [
    "WorkerShard",
    "SNAPSHOT_KINDS",
    "worker_arrays",
    "by_kind",
    "snapshot_view",
    "check_restore",
    "compact_routes",
    "Slice",
    "TimedResult",
]

#: one timed phase result: ``(value, t0_ns, t1_ns)``.
TimedResult = Tuple[object, int, int]
#: ``(peer_worker, route)`` pairs, inbound or outbound.
Routes = Sequence[Tuple[int, _Route]]
#: a monotonic-clock window, ``(t0_ns, t1_ns)``.
Window = Tuple[int, int]
#: one route's exchange slice, as a peer frame carries it: ``{}`` when the
#: mask selects nothing, ``{"sel", "val"}`` when masked, ``{"val"}`` when not.
Slice = Dict[str, np.ndarray]
#: kind -> ``p``-length per-worker list of arrays (an entry is ``None``
#: where a sibling's array is not held); a kind the mode lacks is absent.
Slots = Mapping[str, Any]

#: the kinds a snapshot keeps, in payload order.  ``changed`` and
#: ``partials`` are live state the next exchange reads; ``dirty`` and
#: ``sums`` are exchange scratch, rewritten before anything reads them.
SNAPSHOT_KINDS = ("values", "changed", "active", "partials")


def worker_arrays(local: LocalSubgraph, program: SubgraphProgram) -> Dict[str, np.ndarray]:
    """One worker's initial arrays, keyed by kind: every backend's allocation.

    Both modes have ``values`` (``initial_values``) and ``changed`` (all
    false; the send mask in accumulate mode).  Minimize mode adds
    ``active`` (``initial_active``) and ``dirty``, the "master improved
    this superstep" mask the up phase writes and siblings read in the
    down phase; accumulate mode adds ``partials`` and ``sums``, the
    owner's combined-partials accumulator.  Heap arrays: a state plane
    that needs other storage copies them into it.
    """
    if program.mode not in (MINIMIZE, ACCUMULATE):
        raise ValueError(f"unknown program mode {program.mode!r}")
    arrays = {
        "values": np.array(program.initial_values(local)),
        "changed": np.zeros(local.num_vertices, dtype=bool),
    }
    if program.mode == MINIMIZE:
        arrays["active"] = np.array(program.initial_active(local))
        arrays["dirty"] = np.zeros(local.num_vertices, dtype=bool)
    else:
        arrays["partials"] = np.zeros_like(arrays["values"])
        arrays["sums"] = np.zeros_like(arrays["values"])
    return arrays


def by_kind(per_worker: Sequence[Mapping[str, Any]]) -> Dict[str, list]:
    """Per-worker ``kind -> array`` mappings as ``kind -> per-worker list``."""
    return {kind: [arrays[kind] for arrays in per_worker] for kind in per_worker[0]}


def snapshot_view(arrays: Mapping[str, Any]) -> Dict[str, Any]:
    """The :data:`SNAPSHOT_KINDS` entries of ``arrays``, in that order."""
    return {kind: arrays[kind] for kind in SNAPSHOT_KINDS if kind in arrays}


def check_restore(live: Slots, arrays: Slots) -> None:
    """Validate snapshot ``arrays`` against a run's ``live`` arrays.

    Both map kind -> per-worker list.  Kinds, then each kind's worker
    count, then every array's shape and dtype are checked before the
    caller copies anything, so a mismatched snapshot fails whole with
    :class:`~repro.checkpoint.CheckpointError` instead of half-restoring.
    """
    if set(live) != set(arrays):
        raise CheckpointError(
            f"snapshot holds array kinds {sorted(arrays)} but this run "
            f"allocates {sorted(live)} (program mode mismatch?)"
        )
    for kind, expected in live.items():
        saved = arrays[kind]
        if len(saved) != len(expected):
            raise CheckpointError(
                f"snapshot has {len(saved)} {kind!r} arrays for {len(expected)} workers"
            )
        for w, (dst, src) in enumerate(zip(expected, saved)):
            if dst.shape != src.shape or dst.dtype != src.dtype:
                raise CheckpointError(
                    f"snapshot array {kind}[{w}] is {src.dtype}{src.shape}, "
                    f"session expects {dst.dtype}{dst.shape}"
                )


def compact_routes(inbound: Routes) -> List[Tuple[int, _Route]]:
    """Re-index inbound routes for data already sliced by the sender."""
    return [
        (src, _Route(np.arange(route.src_index.shape[0], dtype=np.int64), route.dst_index))
        for src, route in inbound
    ]


class WorkerShard:
    """One worker's subgraph, program, routes and view of the state arrays.

    ``slots`` maps each of :func:`worker_arrays`' kinds to its
    ``p``-length per-worker list (:func:`by_kind`).  ``outbound_up`` /
    ``outbound_down`` and ``peers`` — the wire plane's mesh, with
    ``listen()``, ``connect(token, endpoints, timeout)``,
    ``trade(outbox, sources)`` and ``close()`` — serve :meth:`exchange`.
    """

    #: the methods a coordinator may invoke by name (see ``protocol.serve``);
    #: each takes the command payload and returns the reply payload.
    COMMANDS = frozenset(
        {
            "compute",
            "exchange_up",
            "exchange_down",
            "listen",
            "mesh",
            "exchange",
            "owned",
            "restore",
        }
    )

    def __init__(
        self,
        worker_id: int,
        local: LocalSubgraph,
        program: SubgraphProgram,
        inbound_up: Routes,
        inbound_down: Routes,
        slots: Slots,
        outbound_up: Routes = (),
        outbound_down: Routes = (),
        peers=None,
    ):
        self.worker_id = worker_id
        self.local = local
        self.program = program
        self.inbound_up, self.inbound_down = inbound_up, inbound_down
        self.outbound_up, self.outbound_down = outbound_up, outbound_down
        self.peers = peers
        self.minimize = program.mode == MINIMIZE
        self.slots = slots
        self.values, self.changed = slots["values"], slots["changed"]
        self.partials, self.dirty = slots.get("partials"), slots.get("dirty")
        self.active = self._own(slots.get("active"))
        self.sums = self._own(slots.get("sums"))

    def _own(self, arrays):
        return None if arrays is None else arrays[self.worker_id]

    def active_any(self) -> bool:
        """Whether this worker still has an active vertex (minimize mode)."""
        return self.active is not None and bool(self.active.any())

    # -- the three kernels ----------------------------------------------

    def compute(self, superstep: int = 0) -> TimedResult:
        t0 = monotonic_ns()
        work = superstep_compute(
            self.program,
            self.local,
            self.values[self.worker_id],
            self.active,
            self.changed[self.worker_id],
            self._own(self.partials),
            int(superstep),
        )
        return work, t0, monotonic_ns()

    def exchange_up(self, _payload=None) -> TimedResult:
        t0 = monotonic_ns()
        result = superstep_exchange_up(
            self.program,
            self.local,
            self.worker_id,
            self.inbound_up,
            self.values,
            self.changed,
            self.active,
            self._own(self.dirty),
            self.partials,
            self.sums,
        )
        return result, t0, monotonic_ns()

    def exchange_down(self, _payload=None) -> TimedResult:
        t0 = monotonic_ns()
        counts = superstep_exchange_down(
            self.program,
            self.local,
            self.worker_id,
            self.inbound_down,
            self.values,
            self.active,
            self.dirty,
        )
        return counts, t0, monotonic_ns()

    # -- checkpoint state -------------------------------------------------

    def owned(self, _payload=None) -> Dict[str, np.ndarray]:
        """This worker's checkpoint arrays, keyed by kind."""
        return {kind: per[self.worker_id] for kind, per in snapshot_view(self.slots).items()}

    def restore(self, arrays: Dict[str, np.ndarray]) -> None:
        """Copy snapshot ``arrays`` over :meth:`owned`; the coordinator
        ran :func:`check_restore` on them before sending any."""
        own = self.owned()
        for kind, array in arrays.items():
            own[kind][...] = array

    # -- exchange without shared arrays -----------------------------------

    def listen(self, _payload=None) -> int:
        """Open a peer listener (dropping any old mesh); return its port."""
        return self.peers.listen()

    def mesh(self, payload) -> None:
        """Connect to every sibling: ``(token, endpoints, timeout)``."""
        self.peers.connect(*payload)

    def exchange(self, _payload=None) -> Tuple[TimedResult, TimedResult, Tuple[Window, Window]]:
        """Both exchange phases over the peer mesh, in one command.

        Returns the up and down kernels' timed results and the window of
        each phase's trade (slice, ship, receive, stand in); the down
        trade's window starts where the up kernel ended.  On any failure
        the mesh is dropped, so a peer waiting on this worker sees the
        connection close instead of waiting out its timeout.
        """
        try:
            t0 = monotonic_ns()
            source = self.values if self.minimize else self.partials
            up_end = self._trade(self.outbound_up, self.inbound_up, self.changed, source)
            up = self.exchange_up()
            down_end = self._trade(self.outbound_down, self.inbound_down, self.dirty, self.values)
            down = self.exchange_down()
        except BaseException:
            self.peers.close()
            raise
        return up, down, ((t0, up_end), (up[2], down_end))

    def _trade(self, outbound: Routes, inbound: Routes, masks, arrays) -> int:
        """Ship this worker's slice of ``masks``/``arrays`` along every
        outbound route and stand in for every inbound sender's; return
        the monotonic time it finished."""
        mask = None if masks is None else masks[self.worker_id]
        own = arrays[self.worker_id]
        outbox: Dict[int, Slice] = {}
        for dst, route in outbound:
            if mask is None:
                outbox[dst] = {"val": own[route.src_index]}
                continue
            sel = mask[route.src_index]
            outbox[dst] = {"sel": sel, "val": own[route.src_index[sel]]} if sel.any() else {}
        inbox = self.peers.trade(outbox, [src for src, _ in inbound])
        self._fill(inbound, inbox, masks, arrays)
        return monotonic_ns()

    def _fill(self, inbound: Routes, inbox: Mapping[int, Slice], masks, arrays) -> None:
        """Stand in for the siblings' ``masks``/``arrays`` from ``inbox``."""
        own = arrays[self.worker_id]
        for src, route in inbound:
            data = inbox[src]
            if masks is None:
                arrays[src] = data["val"]
                continue
            n = route.src_index.shape[0]
            full = np.zeros((n,) + own.shape[1:], dtype=own.dtype)
            sel = data.get("sel", np.zeros(n, dtype=bool))
            full[sel] = data.get("val", full[:0])
            masks[src], arrays[src] = sel, full

    def close(self) -> None:
        """Release the peer mesh, if this shard has one."""
        if self.peers is not None:
            self.peers.close()
