"""The backend contract: sessions, routes, and the in-process session.

A :class:`Backend` turns a routed
:class:`~repro.bsp.distributed.DistributedGraph` plus a
:class:`~repro.bsp.program.SubgraphProgram` into a
:class:`BackendSession` — the live, resource-owning object the BSP
engine drives for one program execution.  The engine's orchestration is
backend-agnostic: it only ever

1. calls :meth:`BackendSession.compute_stage` to run the computation
   stage of one superstep on every worker,
2. calls :meth:`BackendSession.exchange_stage` to run the replica
   exchange on every worker (each worker *pulls* its inbound replica
   updates from the other workers' arrays), and
3. reads and restores the per-worker arrays through
   :meth:`BackendSession.any_active`, :meth:`~BackendSession.pull_state`
   and :meth:`~BackendSession.push_state` for the convergence check,
   the final gather, and checkpoint save/restore.

Both stages execute however the backend sees fit — inline or on a
thread pool (:class:`LocalSession`), on a persistent pool of forked
processes over shared memory, or in TCP workers; what executes is
always a :class:`~repro.runtime.shard.WorkerShard` per worker, over the arrays
:func:`~repro.runtime.shard.worker_arrays` allocates.

The correctness contract is: after ``compute_stage`` returns, every
worker's arrays reflect exactly what
:func:`repro.runtime.worker.superstep_compute` would have produced;
after ``exchange_stage`` returns, they reflect exactly what
:func:`repro.runtime.worker.superstep_exchange_up` followed by
:func:`repro.runtime.worker.superstep_exchange_down` would have
produced, and the returned :class:`ExchangeResult` carries the exact
per-worker message tallies.  Backends must produce *bit-identical*
state to the serial reference — parallelism may only change wall-clock
time, never results.

The exchange stage is sharded by *destination* worker over a
:class:`RoutePlan` built exactly once per session: each worker owns the
inbound slice of the mirror→master (up) and master→mirror (down)
routes, writes only its own arrays, and reads the other workers'
arrays, which are stable during the phase that reads them (compute and
the two exchange phases are separated by barriers).

Where the coordinator holds the arrays (:attr:`BackendSession.state`),
checkpoint *restore* is a copy through its views before the first
compute stage, and every backend's workers — including the process
backend's children, which share the same pages — observe
the restored values exactly as they observe compute-stage writes.
"""

from __future__ import annotations

import abc
import multiprocessing
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bsp.distributed import DistributedGraph, _Route
from ..bsp.program import SubgraphProgram
from ..obs import NULL_RECORDER
from .shard import (
    Slots,
    TimedResult,
    WorkerShard,
    by_kind,
    check_restore,
    snapshot_view,
    worker_arrays,
)

__all__ = [
    "BackendError",
    "WorkerLostError",
    "ComputeStageResult",
    "ExchangeResult",
    "RoutePlan",
    "BackendSession",
    "LocalSession",
    "Backend",
    "build_route_plan",
    "assemble_exchange",
    "finish_compute_stage",
    "finish_exchange_stage",
    "worker_context",
]


class BackendError(RuntimeError):
    """A backend worker failed or its pool is unusable."""


class WorkerLostError(BackendError):
    """A worker process died (or its connection dropped) mid-run.

    Subclasses :class:`BackendError` so existing crash handling keeps
    working; carries the dead worker's id so the engine's recovery path
    (:meth:`repro.bsp.engine.BSPEngine.run` with ``max_recoveries``)
    can respawn exactly the lost shard from the last fingerprint-valid
    checkpoint snapshot.
    """

    def __init__(self, worker_id: int, message: str):
        super().__init__(message)
        self.worker_id = worker_id


@dataclass
class ComputeStageResult:
    """What one computation stage produced, assembled across workers.

    ``work`` is the per-worker work-unit tally the cost model consumes
    (length ``p``); ``walls`` is the measured per-worker kernel
    wall-clock in seconds — the quantity every session already timed
    and used to discard, now surfaced on *every* path (traced or not)
    so stragglers are visible without re-running.
    """

    work: np.ndarray
    walls: np.ndarray


@dataclass
class ExchangeResult:
    """What one exchange stage produced, assembled across workers.

    ``sent``/``received`` are exact per-worker message tallies (length
    ``p``, int64); ``delta`` is the global value change accumulate-mode
    programs feed to ``has_converged`` (0.0 in minimize mode).
    ``up_walls``/``down_walls`` are the measured per-worker wall-clock
    seconds of the two pull phases (populated by
    :func:`finish_exchange_stage` on every backend, traced or not).
    """

    sent: np.ndarray
    received: np.ndarray
    delta: float = 0.0
    up_walls: Optional[np.ndarray] = None
    down_walls: Optional[np.ndarray] = None

    @property
    def walls(self) -> Optional[np.ndarray]:
        """Per-worker exchange seconds (both phases), when measured."""
        if self.up_walls is None or self.down_walls is None:
            return None
        return self.up_walls + self.down_walls


@dataclass(frozen=True)
class RoutePlan:
    """Each worker's inbound slice of the replica-exchange routes.

    Built exactly once per session from the
    :class:`~repro.bsp.distributed.DistributedGraph` layout (never per
    superstep).  ``inbound_up[w]`` lists ``(mirror_worker, route)``
    pairs for every mirror→master route terminating at worker ``w``;
    ``inbound_down[w]`` lists ``(master_worker, route)`` pairs for every
    master→mirror route terminating at ``w``.  Within one destination
    the pairs preserve the route dictionaries' insertion order, so the
    per-destination processing order is identical to the historical
    coordinator-side loop — which keeps even floating-point
    accumulation bit-identical.
    """

    num_workers: int
    inbound_up: List[List[Tuple[int, _Route]]] = field(default_factory=list)
    inbound_down: List[List[Tuple[int, _Route]]] = field(default_factory=list)


def build_route_plan(dgraph: DistributedGraph) -> RoutePlan:
    """Shard the graph's replica routes by destination worker.

    Sessions call this once at construction; the plan is immutable for
    the whole run (the process backend ships each child its slice once,
    at session start).
    """
    p = dgraph.num_workers
    inbound_up: List[List[Tuple[int, _Route]]] = [[] for _ in range(p)]
    inbound_down: List[List[Tuple[int, _Route]]] = [[] for _ in range(p)]
    for (w, mw), route in dgraph.up_routes.items():
        inbound_up[mw].append((w, route))
    for (mw, w), route in dgraph.down_routes.items():
        inbound_down[w].append((mw, route))
    return RoutePlan(num_workers=p, inbound_up=inbound_up, inbound_down=inbound_down)


def assemble_exchange(
    up_counts: List[np.ndarray],
    down_counts: List[np.ndarray],
    deltas: List[float],
) -> ExchangeResult:
    """Combine per-worker pull tallies into the global exchange record.

    ``up_counts[i][j]`` (resp. ``down_counts[i][j]``) is the number of
    messages worker ``i`` pulled from worker ``j`` during the up (resp.
    down) phase.  A message pulled by ``i`` from ``j`` counts as
    received by ``i`` and sent by ``j`` — exactly the tallies the
    historical coordinator-side exchange recorded per route.  ``deltas``
    are summed in worker order so accumulate-mode convergence deltas
    stay bit-identical to the serial reference.
    """
    up = np.stack(up_counts)
    down = np.stack(down_counts)
    received = up.sum(axis=1) + down.sum(axis=1)
    sent = up.sum(axis=0) + down.sum(axis=0)
    delta = 0.0
    for d in deltas:
        delta += float(d)
    return ExchangeResult(sent=sent, received=received, delta=delta)


def _record_worker_phase(
    recorder,
    name: str,
    superstep: int,
    windows: Sequence[Tuple[int, int]],
    next_starts: Optional[Sequence[int]] = None,
) -> None:
    """Emit one ``name`` span plus one barrier span per worker.

    The barrier span for worker ``w`` runs from the end of its own phase
    to the end of the slowest worker's — the Fig. 4 "synchronization"
    segment — or to ``next_starts[w]``, when ``w`` began its next phase,
    if that is sooner: wire-plane workers trade peer to peer and start
    the down phase without a global barrier.  Computed purely from the
    timestamps every stage already collects, and emitted even when
    zero-length so the span count per superstep is a backend-independent
    constant (the cross-backend span-count equivalence the obs tests
    lock down).
    """
    end = max(t1 for _, t1 in windows)
    add = recorder.add  # positional calls: this loop is the traced hot path
    barrier = f"barrier.{name}"
    for w, (t0, t1) in enumerate(windows):
        add(name, t0, t1, w, superstep, "worker")
        until = end if next_starts is None else min(end, next_starts[w])
        add(barrier, t1, until, w, superstep, "barrier")


def finish_compute_stage(
    recorder, superstep: int, timed: Sequence[TimedResult]
) -> ComputeStageResult:
    """Fold per-worker timed compute results into the stage return.

    Shared by every backend so the walls (and, when tracing, the span
    set) are assembled identically: ``timed[w]`` is worker ``w``'s
    ``(work_units, t0_ns, t1_ns)``.
    """
    work = np.array([value for value, _, _ in timed])
    walls = np.array([(t1 - t0) * 1e-9 for _, t0, t1 in timed])
    if recorder.enabled:
        _record_worker_phase(
            recorder, "compute", superstep, [(t0, t1) for _, t0, t1 in timed]
        )
    return ComputeStageResult(work=work, walls=walls)


def finish_exchange_stage(
    recorder,
    superstep: int,
    ups: Sequence[TimedResult],
    downs: Sequence[TimedResult],
) -> ExchangeResult:
    """Fold the two timed pull phases into the stage return.

    ``ups[w]`` is ``((counts, delta), t0_ns, t1_ns)`` and ``downs[w]``
    is ``(counts, t0_ns, t1_ns)`` for worker ``w``.  Tally assembly is
    exactly :func:`assemble_exchange`; this adds the per-phase walls and
    (when tracing) the per-worker exchange + barrier spans.
    """
    result = assemble_exchange(
        [counts for (counts, _), _, _ in ups],
        [counts for counts, _, _ in downs],
        [delta for (_, delta), _, _ in ups],
    )
    result.up_walls = np.array([(t1 - t0) * 1e-9 for _, t0, t1 in ups])
    result.down_walls = np.array([(t1 - t0) * 1e-9 for _, t0, t1 in downs])
    if recorder.enabled:
        _record_worker_phase(
            recorder,
            "exchange.up",
            superstep,
            [(t0, t1) for _, t0, t1 in ups],
            [t0 for _, t0, _ in downs],
        )
        _record_worker_phase(
            recorder, "exchange.down", superstep, [(t0, t1) for _, t0, t1 in downs]
        )
    return result


class BackendSession(abc.ABC):
    """One program execution bound to a backend's execution resources.

    Sessions are context managers; :meth:`close` must be idempotent and
    release every resource (threads, processes, sockets)
    even after a worker error.  A session whose workers are
    :class:`~repro.runtime.shard.WorkerShard` objects implements
    :meth:`call`, and the two stages below run over it; any other
    session overrides both stages.
    """

    #: canonical backend name, stamped onto the resulting ``BSPRun``.
    backend_name: str = "?"
    #: kind -> per-worker arrays (:func:`~repro.runtime.shard.by_kind`
    #: of :func:`~repro.runtime.shard.worker_arrays`), where the
    #: coordinator holds them.
    state: Slots
    #: span/metric sink; the always-off singleton until a traced caller
    #: attaches a live :class:`~repro.obs.trace.TraceRecorder`.
    recorder = NULL_RECORDER

    def attach_recorder(self, recorder) -> None:
        """Point this session's span/metric output at ``recorder``.

        Called by the engine before the first superstep of a traced run;
        sessions only ever *read* timestamps into it during the stage
        calls, so attaching between stages is safe.  The default (no
        attach) is :data:`repro.obs.NULL_RECORDER` — tracing disabled,
        zero per-superstep recorder allocations.
        """
        self.recorder = recorder

    def call(self, method: str, payload=None) -> list:
        """Run shard ``method`` with ``payload`` on every worker; return
        the results in worker order once all are in (a barrier)."""
        raise NotImplementedError

    def compute_stage(self, superstep: int = 0) -> ComputeStageResult:
        """Run one computation stage on every worker.

        ``superstep`` is the 0-based index of the superstep being
        computed; backends must deliver it to every worker's
        :func:`~repro.runtime.worker.superstep_compute` call.  Blocks
        until all workers finish (the first barrier of the superstep —
        the exchange stage's phases are the second and third) and
        returns the per-worker work units *and* measured kernel walls
        (assembled by :func:`finish_compute_stage` on every backend).
        """
        return finish_compute_stage(self.recorder, superstep, self.call("compute", superstep))

    def exchange_stage(self, superstep: int = 0) -> ExchangeResult:
        """Run one replica-exchange stage on every worker.

        Executes the two pull phases of
        :mod:`repro.runtime.worker` — ``superstep_exchange_up`` on every
        worker, a barrier, then ``superstep_exchange_down`` on every
        worker — over the session's precomputed :class:`RoutePlan`, and
        blocks until all workers finish both.
        """
        return finish_exchange_stage(self.recorder, superstep, *self.exchange_phases(superstep))

    def exchange_phases(self, superstep: int) -> Tuple[List[TimedResult], List[TimedResult]]:
        """Both pull phases; return the (up, down) timed results."""
        ups = self.call("exchange_up")
        # Every up result is in before any down phase starts: the
        # mandatory mid-exchange barrier, since the down phase reads
        # master values and dirty masks the up phase writes on *other*
        # workers.
        return ups, self.call("exchange_down")

    # -- engine-facing state access ------------------------------------
    #
    # The engine never dereferences ``session.state`` directly: these
    # three hooks are its whole view of worker state, with defaults that
    # read the arrays the coordinator holds.  Backends whose state lives
    # elsewhere (the socket backend keeps every shard worker-side)
    # override them, which is what lets the coordinator avoid ever
    # holding O(|V|·p) state outside checkpoint boundaries and the final
    # gather.

    def any_active(self) -> bool:
        """Whether any worker still has an active vertex (minimize mode).

        Drives the engine's quiescence pre-check and convergence check;
        only meaningful for minimize-mode programs.
        """
        return any(bool(a.any()) for a in self.state.get("active", ()))

    def pull_state(self) -> Dict[str, list]:
        """The snapshot arrays, kind -> per-worker list (``Snapshot.arrays``).

        Used at checkpoint boundaries, for the final gather, and for
        traced per-superstep metrics.  In-process backends return their
        live arrays (zero copies); remote backends gather shards from
        their workers, so callers must treat the result as a snapshot,
        not a live view.
        """
        return snapshot_view(self.state)

    def push_state(self, arrays) -> None:
        """Restore snapshot ``arrays`` (kind -> per-worker list) in place.

        The checkpoint-resume and worker-recovery entry point: runs
        :func:`~repro.runtime.shard.check_restore` before touching
        anything, then copies through the coordinator's views.
        """
        live = self.pull_state()
        check_restore(live, arrays)
        for kind, per_worker in live.items():
            for dst, src in zip(per_worker, arrays[kind]):
                dst[...] = src

    def close(self) -> None:
        """Release the session's resources (idempotent)."""

    def __enter__(self) -> "BackendSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LocalSession(BackendSession):
    """Every worker's shard in the calling process, over shared heap arrays.

    Allocates the state, builds the :class:`RoutePlan` once and one
    :class:`~repro.runtime.shard.WorkerShard` per worker; :meth:`call`
    runs the shards inline in worker order (``serial``) or on ``pool``,
    an executor the session shuts down at :meth:`close` (``thread``).
    *What* runs is the shard, which is what keeps every backend
    bit-identical.
    """

    def __init__(
        self,
        backend_name: str,
        dgraph: DistributedGraph,
        program: SubgraphProgram,
        pool: Optional[Executor] = None,
    ):
        self.backend_name = backend_name
        self.state = by_kind([worker_arrays(local, program) for local in dgraph.locals])
        plan = build_route_plan(dgraph)
        self._shards = [
            WorkerShard(w, local, program, plan.inbound_up[w], plan.inbound_down[w], self.state)
            for w, local in enumerate(dgraph.locals)
        ]
        self._pool = pool

    def call(self, method: str, payload=None) -> list:
        if self._pool is None:
            return [getattr(shard, method)(payload) for shard in self._shards]
        futures = [self._pool.submit(getattr(shard, method), payload) for shard in self._shards]
        # future.result() re-raises worker exceptions in submission order.
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)


class Backend(abc.ABC):
    """A pluggable execution strategy for the BSP superstep stages."""

    #: canonical registry name ("serial", "thread", "process").
    name: str = "?"

    @abc.abstractmethod
    def session(
        self, dgraph: DistributedGraph, program: SubgraphProgram
    ) -> BackendSession:
        """Materialize worker state and stand up execution resources."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def worker_context() -> multiprocessing.context.BaseContext:
    """The ``multiprocessing`` context the socket backend starts local workers from.

    ``fork`` where the platform has it — a child is a copy of the warm
    coordinator, nothing booted or re-imported — and the platform
    default elsewhere.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # no fork here
        return multiprocessing.get_context()
