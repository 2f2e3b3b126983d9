"""``repro.runtime`` — pluggable parallel execution for the BSP engine.

The paper's engine (DRONE, Section IV-B) runs subgraph workers on a
real cluster; this package is its single-host (and, over TCP,
multi-host) analogue.  It executes
*both* stages of every :class:`~repro.bsp.program.SubgraphProgram`
superstep — computation *and* replica exchange — genuinely in parallel,
while the :class:`~repro.bsp.engine.BSPEngine` keeps owning the
superstep sequencing, convergence and accounting, so every backend
produces bit-identical results to the serial reference.

Backend contract
----------------
A :class:`Backend` opens a :class:`BackendSession` per program run.
The session runs two operations and gives the engine the per-worker
arrays through ``any_active`` / ``pull_state`` / ``push_state``:

``compute_stage(superstep)``
    Runs :meth:`WorkerShard.compute` (the
    :func:`~repro.runtime.worker.superstep_compute` kernel) for every
    worker and blocks until all of them finish (the first barrier of
    the superstep).

``exchange_stage(superstep)``
    Runs the replica exchange *in the workers*, sharded by destination
    over a :class:`~repro.runtime.base.RoutePlan` built exactly once
    per session: every worker pulls its inbound mirror→master updates
    (:func:`~repro.runtime.worker.superstep_exchange_up`), all workers
    barrier, then every worker pulls its inbound master→mirror
    broadcasts (:func:`~repro.runtime.worker.superstep_exchange_down`).
    Exact sent/received message tallies return through the stage
    barrier as an :class:`~repro.runtime.base.ExchangeResult`.

One shard, four places to put it
--------------------------------
Every backend executes the same object — a
:class:`~repro.runtime.shard.WorkerShard`, which holds one worker's
subgraph, program, inbound routes and ``p``-length lists of the arrays
:func:`~repro.runtime.shard.worker_arrays` allocates (the one
definition of a worker's arrays per program mode; a snapshot keeps the
:data:`~repro.runtime.shard.SNAPSHOT_KINDS`), and is the *only* caller
of the three kernels in
:mod:`repro.runtime.worker` (``compute`` / ``exchange_up`` /
``exchange_down``, each returning ``(value, t0_ns, t1_ns)``).  Backends
differ only in where the shards live, what carries commands to them
(the **link**) and where the state arrays are (the **state plane**):

===========  ======================  ====================  =======================  ==========
backend      shards live in          link                  state plane              recovery
===========  ======================  ====================  =======================  ==========
``serial``   the calling process,    a method call         session's heap arrays    —
             run one after another
``thread``   the calling process,    ``pool.submit`` of    session's heap arrays    —
             on a persistent         the bound method
             ``ThreadPoolExecutor``
``process``  one daemon child each   ``multiprocessing``   shared memory: parent    no
             (forked)                pipe + ``Process``    allocates, every child
                                                           inherits every array
``socket``   one process each (a     framed TCP            wire: each worker owns   spawned-
             local fork of the       (:mod:`.wire`) +      its arrays; exchange     local
             coordinator, or a       ``Process`` /         is one command, then     only
             ``repro worker`` on     external endpoint     peers trade directly;
             another machine)                              state access is a
                                                           command
===========  ======================  ====================  =======================  ==========

Every state plane allocates with
:func:`~repro.runtime.shard.worker_arrays`: ``serial`` and ``thread``
are one :class:`~repro.runtime.base.LocalSession` (shard calls inline
or on its pool) over heap arrays, ``process`` copies them into shared
pages its children inherit, and each ``socket`` worker allocates its
own.  ``pull_state`` returns the snapshot mapping (kind → per-worker
list, what ``Snapshot.arrays`` holds) and ``push_state`` validates a
snapshot with :func:`~repro.runtime.shard.check_restore` on the
coordinator before any worker's array changes, on every backend.

``serial`` is the reference and bit-identity oracle.  ``process`` and
``socket`` are one session class
(:class:`~repro.runtime.protocol.CommandSession`: spawn → ``init`` →
``ready``, one command per stage phase, collecting replies is the
barrier, stage timeouts, typed :class:`WorkerLostError`, the failed
latch, one teardown escalation) and one worker loop
(:func:`~repro.runtime.protocol.serve`); :mod:`~repro.runtime.process`
and :mod:`~repro.runtime.socket` supply only their link, spawner and
plane.  On the wire plane sibling slots of a shard hold index-compacted
stand-ins rebuilt from what the siblings sent (see
:mod:`repro.runtime.shard` for why that is exact), the coordinator
never holds O(|V|·p) state, and a lost coordinator-spawned worker can
be replaced from the last checkpoint
(``BSPEngine(max_recoveries=...)``).

Shared-memory layout (process backend)
--------------------------------------
Per worker ``w``, one anonymous shared mapping per array
:func:`~repro.runtime.shard.worker_arrays` allocates for the program's
mode (its docstring says what each kind holds), made by the parent
before the pool forks and inherited by *every* child: the exchange
phases read sibling workers' arrays directly.  Child ``w`` writes only
worker ``w``'s arrays.  The mappings have no name — nothing is created
in ``/dev/shm`` — and are gone with the last process that maps them.

Real time vs. modeled time
--------------------------
Runs record *both* clocks.  Real wall-clock per superstep stage
(``SuperstepStats.real_seconds``, keys ``"compute"`` / ``"exchange"`` /
``"converge"``) measures this machine and backend — use it for runtime
benchmarks (the perf ledger, ``benchmarks/ledger/``, reports compute and
exchange stage walls separately).  Stage returns additionally carry the
measured *per-worker* kernel walls
(:class:`~repro.runtime.base.ComputeStageResult` ``.walls``,
:class:`~repro.runtime.base.ExchangeResult` ``.up_walls`` /
``.down_walls``) on every path, traced or not; attaching a
:class:`repro.obs.TraceRecorder` via
:meth:`BackendSession.attach_recorder` additionally turns them into
per-worker compute / exchange / barrier-wait spans.  The
deterministic :class:`~repro.bsp.cost_model.CostModel` accounting is
unchanged and remains **authoritative for every paper artifact**
(Tables II–V, Figures 2–5): those figures model a 4-node cluster's cost
ratios, which no single shared-memory host reproduces, and they must
stay identical across backends, machines and CI runs.
"""

from __future__ import annotations

from types import MappingProxyType

from .base import (
    Backend,
    BackendError,
    BackendSession,
    ComputeStageResult,
    ExchangeResult,
    LocalSession,
    RoutePlan,
    WorkerLostError,
    assemble_exchange,
    build_route_plan,
    finish_compute_stage,
    finish_exchange_stage,
)
from .process import ProcessBackend
from .protocol import DEFAULT_STAGE_TIMEOUT, CommandSession, serve
from .serial import SerialBackend
from .shard import SNAPSHOT_KINDS, WorkerShard, check_restore, worker_arrays
from .socket import SocketBackend, serve_worker
from .threads import ThreadBackend
from .worker import superstep_compute, superstep_exchange_down, superstep_exchange_up

__all__ = [
    "Backend",
    "BackendError",
    "BackendSession",
    "CommandSession",
    "DEFAULT_STAGE_TIMEOUT",
    "WorkerLostError",
    "serve",
    "serve_worker",
    "LocalSession",
    "WorkerShard",
    "SNAPSHOT_KINDS",
    "worker_arrays",
    "check_restore",
    "ComputeStageResult",
    "ExchangeResult",
    "RoutePlan",
    "build_route_plan",
    "assemble_exchange",
    "finish_compute_stage",
    "finish_exchange_stage",
    "superstep_compute",
    "superstep_exchange_up",
    "superstep_exchange_down",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "SocketBackend",
    "BACKEND_TYPES",
    "BACKEND_ALIASES",
    "create_backend",
]

#: canonical name -> backend class; :data:`repro.pipeline.registries.BACKENDS`
#: is the registry view over this mapping.
BACKEND_TYPES = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
    SocketBackend.name: SocketBackend,
}

#: alias -> canonical name, accepted wherever a backend name is (read-only).
BACKEND_ALIASES = MappingProxyType({"threads": "thread", "mp": "process"})


def create_backend(name: str, **kwargs) -> Backend:
    """Instantiate a backend by name or alias (engine-level front door).

    The pipeline layer resolves full ``"name?key=val"`` spec strings via
    :data:`repro.pipeline.registries.BACKENDS`; this helper serves code
    that holds a bare name (e.g. ``BSPEngine(backend="process")``).
    """
    try:
        key = name.strip().lower()
        # BACKEND_TYPES is a read-only registry frozen at import time, not
        # shared worker state.  # repro: lint-ignore[worker-purity]
        cls = BACKEND_TYPES[BACKEND_ALIASES.get(key, key)]
    except (KeyError, AttributeError):
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(sorted(BACKEND_TYPES))}"
        ) from None
    return cls(**kwargs)
