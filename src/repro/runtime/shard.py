"""One worker's shard: the only caller of the superstep kernels.

A :class:`WorkerShard` holds everything one BSP worker needs for a
whole run — its id, its :class:`~repro.bsp.distributed.LocalSubgraph`,
the program, its inbound slices of the route plan — plus ``p``-length
lists of the per-worker arrays the kernels in
:mod:`repro.runtime.worker` read across workers (``values``,
``changed``, ``partials``, ``dirty``).  Every backend builds one shard
per worker and differs only in *where the shard lives* and *what the
sibling slots hold*:

``serial`` / ``thread``
    ``p`` shards in the calling process over the session's heap arrays;
    ``serial`` loops over them, ``thread`` submits their bound methods.
``process``
    one shard per child over attached shared-memory blocks — every
    slot is a sibling's real array.
``socket``
    one shard per TCP worker over locally allocated arrays — only its
    own slot is real.  Before each exchange phase the coordinator
    forwards what the siblings' :meth:`WorkerShard.collect_up` /
    :meth:`~WorkerShard.collect_down` sliced out of their *outbound*
    routes, and :meth:`~WorkerShard.apply_up` /
    :meth:`~WorkerShard.apply_down` fill the sibling slots with
    index-compacted stand-ins and run the same
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
preserved, and a route whose selection mask is empty is not sent and
reads as an all-false mask — the kernel's own ``continue``.  Results,
message tallies and floating-point accumulation order are therefore
bit-identical to the shared-array path.
"""

from __future__ import annotations

from time import monotonic_ns
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..bsp.distributed import LocalSubgraph, _Route
from ..bsp.program import MINIMIZE, SubgraphProgram
from .worker import superstep_compute, superstep_exchange_down, superstep_exchange_up

__all__ = ["WorkerShard", "compact_routes", "TimedResult"]

#: one timed phase result: ``(value, t0_ns, t1_ns)``.
TimedResult = Tuple[object, int, int]
#: ``(peer_worker, route)`` pairs, inbound or outbound.
Routes = Sequence[Tuple[int, _Route]]
#: kind -> ``p``-length per-worker list of arrays (an entry is ``None``
#: where a sibling's array is not held); a kind the mode lacks is absent
#: or ``None``.
Slots = Mapping[str, Any]


def compact_routes(inbound: Routes) -> List[Tuple[int, _Route]]:
    """Re-index inbound routes for data already sliced by the sender."""
    return [
        (src, _Route(np.arange(route.src_index.shape[0], dtype=np.int64), route.dst_index))
        for src, route in inbound
    ]


class WorkerShard:
    """One worker's subgraph, program, routes and view of the state arrays.

    ``slots`` maps each array kind to its ``p``-length per-worker list
    (``values``/``changed`` always; ``active``/``dirty`` in minimize
    mode, ``partials``/``sums`` in accumulate mode).  ``outbound_up`` /
    ``outbound_down`` are only needed by the ``collect_*`` methods.
    """

    #: the methods a coordinator may invoke by name (see ``protocol.serve``);
    #: each takes the command payload and returns the reply payload.
    COMMANDS = frozenset(
        {
            "compute",
            "exchange_up",
            "exchange_down",
            "collect_up",
            "collect_down",
            "apply_up",
            "apply_down",
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
    ):
        self.worker_id = worker_id
        self.local = local
        self.program = program
        self.inbound_up, self.inbound_down = inbound_up, inbound_down
        self.outbound_up, self.outbound_down = outbound_up, outbound_down
        self.minimize = program.mode == MINIMIZE
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
        arrays = {
            "values": self._own(self.values),
            "changed": self._own(self.changed),
            "active": self.active,
            "partials": self._own(self.partials),
        }
        return {kind: array for kind, array in arrays.items() if array is not None}

    def restore(self, arrays: Dict[str, np.ndarray]) -> None:
        """Copy snapshot ``arrays`` over :meth:`owned`, validating first."""
        own = self.owned()
        if set(arrays) != set(own):
            raise ValueError(
                f"snapshot shard holds {sorted(arrays)}, worker allocates "
                f"{sorted(own)} (program mode mismatch?)"
            )
        for kind in sorted(own):
            src, dst = arrays[kind], own[kind]
            if src.shape != dst.shape or src.dtype != dst.dtype:
                raise ValueError(
                    f"snapshot array {kind!r} is {src.dtype}{src.shape}, "
                    f"worker expects {dst.dtype}{dst.shape}"
                )
        for kind in sorted(own):
            own[kind][...] = arrays[kind]

    # -- exchange without shared arrays -----------------------------------

    def _collect(self, outbound: Routes, mask, source) -> TimedResult:
        """Slice ``source`` along every outbound route: ``{dst: data}``.

        ``data`` is ``(sel, source[selected])`` — skipped when nothing is
        selected — or, with no ``mask``, the whole unselected slice.
        """
        t0 = monotonic_ns()
        outbox = {}
        for dst, route in outbound:
            if mask is None:
                outbox[dst] = source[route.src_index]
                continue
            sel = mask[route.src_index]
            if sel.any():
                outbox[dst] = (sel, source[route.src_index[sel]])
        return outbox, t0, monotonic_ns()

    def _fill(self, inbound: Routes, inbox, masks, arrays) -> None:
        """Stand in for the siblings' ``masks``/``arrays`` from ``inbox``."""
        own = arrays[self.worker_id]
        for src, route in inbound:
            data = inbox.get(src)
            n = route.src_index.shape[0]
            if masks is None:
                arrays[src] = data
            elif data is None:
                masks[src] = np.zeros(n, dtype=bool)
            else:
                sel, selected = data
                full = np.zeros((n,) + own.shape[1:], dtype=own.dtype)
                full[sel] = selected
                masks[src], arrays[src] = sel, full

    def collect_up(self, _payload=None) -> TimedResult:
        """Changed mirror values (minimize) or partials (accumulate)."""
        source = self.values if self.minimize else self.partials
        return self._collect(self.outbound_up, self._own(self.changed), self._own(source))

    def apply_up(self, inbox) -> TimedResult:
        self._fill(
            self.inbound_up, inbox, self.changed, self.values if self.minimize else self.partials
        )
        return self.exchange_up()

    def collect_down(self, _payload=None) -> TimedResult:
        """Dirty master values (minimize) or every master value (accumulate)."""
        return self._collect(self.outbound_down, self._own(self.dirty), self._own(self.values))

    def apply_down(self, inbox) -> TimedResult:
        self._fill(self.inbound_down, inbox, self.dirty, self.values)
        return self.exchange_down()
