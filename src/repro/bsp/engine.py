"""The subgraph-centric bulk synchronous parallel engine.

This is the stand-in for DRONE (Section IV-B): the graph is divided
into subgraphs, each bound to one worker, and processing is iterative
in supersteps of three stages — computation (each worker runs its
sequential algorithm over its subgraph), communication (messages flow
only between replicas of the same vertex: mirrors push to masters,
masters broadcast combined values back), and synchronization (the
barrier; the slowest worker determines superstep wall time).

The engine owns the superstep *orchestration* — sequencing, convergence,
accounting, checkpointing — while both per-superstep stages execute on
a pluggable :mod:`repro.runtime` backend (``serial``, ``thread``,
``process`` or ``socket``), all of which produce bit-identical results.  Each
superstep is one ``session.superstep`` call → convergence check.  The
call runs the computation stage (every worker's sequential algorithm)
and then the exchange stage, the replica exchange *in the workers* too,
each worker pulling its inbound replica updates over a route plan the
session builds once per run (see :mod:`repro.runtime.base`); whether
that is two stage calls or, on the ``process`` backend, one command per
worker with shared-memory barriers between the phases is the session's
business.  One loop serves both program modes and both fresh and
resumed runs.

Two clocks are recorded per superstep: real wall-clock per stage (what
this machine and backend actually took — see
``SuperstepStats.real_seconds``) and the deterministic
:class:`~repro.bsp.cost_model.CostModel` accounting, which models the
paper's 4-node cluster and remains authoritative for all paper figures
(see DESIGN.md §3 and the :mod:`repro.runtime` package docstring).
Message counts are exact — every replica value transfer is tallied on
the sending and receiving worker.

Long runs can be made crash-tolerant with superstep-granular
checkpointing (``checkpoint_dir=``/``checkpoint_every=``, resumed via
``run(..., resume_from=dir)``): snapshots are written atomically after
a completed superstep and a resumed run is bit-identical to an
uninterrupted one on every backend — see :mod:`repro.checkpoint`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import monotonic_ns
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs import NULL_RECORDER, sample_peak_rss_kb
from .cost_model import CostModel
from .distributed import DistributedGraph
from .program import ACCUMULATE, MINIMIZE, SubgraphProgram

__all__ = ["SuperstepStats", "BSPRun", "BSPEngine"]


@dataclass
class SuperstepStats:
    """Per-worker accounting for one superstep (arrays of length p).

    ``comp_seconds``/``comm_seconds`` are the deterministic cost-model
    clocks; ``real_seconds`` maps stage name (``"compute"``,
    ``"exchange"``, ``"converge"`` — the third key is the coordinator's
    quiescence/convergence checking) to measured wall-clock for this
    superstep on the executing backend.
    """

    work: np.ndarray
    sent: np.ndarray
    received: np.ndarray
    comp_seconds: np.ndarray
    comm_seconds: np.ndarray
    real_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        """Barrier semantics: the slowest worker sets the pace."""
        return float((self.comp_seconds + self.comm_seconds).max())

    @property
    def delta_c(self) -> float:
        """ΔC_k = max_i(comp+comm) − min_i(comp+comm) (Section V-B)."""
        busy = self.comp_seconds + self.comm_seconds
        return float(busy.max() - busy.min())


@dataclass
class BSPRun:
    """A finished BSP execution with the full per-superstep record."""

    program: str
    partition_method: str
    graph_name: str
    num_workers: int
    supersteps: List[SuperstepStats] = field(default_factory=list)
    values: Optional[np.ndarray] = None
    #: name of the runtime backend that executed the superstep stages.
    backend: str = "serial"
    #: superstep boundary this run was resumed from (``None`` = fresh run).
    #: Deterministic results are identical either way; this only records
    #: provenance for reporting.
    resumed_from: Optional[int] = None

    # ------------------------------------------------------------------
    # Aggregates used by the paper's tables
    # ------------------------------------------------------------------

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def total_messages(self) -> int:
        """Table IV: total messages exchanged during the computation."""
        return int(sum(s.sent.sum() for s in self.supersteps))

    def messages_per_worker(self) -> np.ndarray:
        """Total messages *sent* by each worker across all supersteps."""
        out = np.zeros(self.num_workers, dtype=np.int64)
        for s in self.supersteps:
            out += s.sent
        return out

    @property
    def message_max_mean_ratio(self) -> float:
        """Table V: max/mean of per-worker sent messages."""
        per_worker = self.messages_per_worker().astype(np.float64)
        mean = per_worker.mean()
        if mean == 0:
            return 1.0
        return float(per_worker.max() / mean)

    @property
    def comp(self) -> float:
        """Average per-worker computation seconds, Σ_k Σ_i comp_i^k / p."""
        return float(sum(s.comp_seconds.sum() for s in self.supersteps) / self.num_workers)

    @property
    def comm(self) -> float:
        """Average per-worker communication seconds."""
        return float(sum(s.comm_seconds.sum() for s in self.supersteps) / self.num_workers)

    @property
    def delta_c(self) -> float:
        """ΔC = Σ_k ΔC_k — accumulated synchronization (waiting) time."""
        return float(sum(s.delta_c for s in self.supersteps))

    @property
    def execution_time(self) -> float:
        """Modeled wall time: Σ_k max_i(comp_i^k + comm_i^k)."""
        return float(sum(s.wall_seconds for s in self.supersteps))

    # ------------------------------------------------------------------
    # Real wall-clock aggregates (backend benchmarking; the cost-model
    # aggregates above stay authoritative for paper artifacts)
    # ------------------------------------------------------------------

    def real_stage_seconds(self) -> Dict[str, float]:
        """Measured wall-clock summed over supersteps, keyed by stage."""
        totals: Dict[str, float] = {}
        for s in self.supersteps:
            for stage, seconds in s.real_seconds.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    @property
    def real_time(self) -> float:
        """Total measured superstep wall-clock (all stages)."""
        return float(sum(self.real_stage_seconds().values()))

    def worker_timeline(self) -> List[List[Tuple[float, float, float]]]:
        """Per worker, per superstep ``(comp, comm, sync)`` second triples.

        Sync is the time the worker waits at the barrier — the Figure 4
        Gantt segments.
        """
        timelines: List[List[Tuple[float, float, float]]] = [
            [] for _ in range(self.num_workers)
        ]
        for s in self.supersteps:
            wall = s.wall_seconds
            for i in range(self.num_workers):
                busy = float(s.comp_seconds[i] + s.comm_seconds[i])
                timelines[i].append(
                    (float(s.comp_seconds[i]), float(s.comm_seconds[i]), wall - busy)
                )
        return timelines


class BSPEngine:
    """Run :class:`SubgraphProgram` instances over a distributed graph.

    Parameters
    ----------
    cost_model:
        Simulated per-operation costs (defaults are calibrated against
        Table II; see :mod:`repro.bsp.cost_model`).
    max_supersteps:
        Safety cap; minimize-mode programs normally terminate on
        quiescence well before this.
    backend:
        Superstep-stage executor: a :class:`repro.runtime.Backend`
        instance, a backend name (``"serial"``, ``"thread"``,
        ``"process"``, ``"socket"``), or ``None`` for the serial
        reference.  Backends
        change wall-clock time only — results and cost-model accounting
        are identical across all of them.
    checkpoint_dir:
        When set, superstep-granular snapshots are written here through
        :mod:`repro.checkpoint` (atomic tmp+rename directories with a
        checksummed manifest), and a resumed run (``run(...,
        resume_from=...)``) is bit-identical to an uninterrupted one.
    checkpoint_every:
        Snapshot cadence in supersteps (boundary ``k`` is snapshotted
        when ``k % checkpoint_every == 0``); a final snapshot is always
        written when the run terminates.
    checkpoint_keep:
        Retain only the newest ``n`` snapshots (``None`` keeps all).
    recorder:
        Optional :class:`repro.obs.TraceRecorder`.  When attached, the
        engine wraps every superstep, stage and convergence check in
        spans, the backend session reports per-worker kernel walls into
        it, and the checkpoint writer records snapshot spans and byte
        counters.  ``None`` (the default) costs nothing per superstep
        and perturbs neither results nor cost-model accounting.
    max_recoveries:
        How many worker-loss events
        (:class:`~repro.runtime.base.WorkerLostError`) the engine may
        absorb per ``run()`` before re-raising.  Recovery requires a
        ``checkpoint_dir`` and a session that supports it (the socket
        backend's spawned-local mode): the engine restores the newest
        fingerprint-valid snapshot onto a freshly respawned worker pool
        via ``push_state`` and replays from that boundary — bit-identical
        to an uninterrupted run, exactly like a manual resume.  The
        default ``0`` keeps worker death fail-fast on every backend.
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        max_supersteps: int = 500,
        backend: Union[None, str, "object"] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
        checkpoint_keep: Optional[int] = 2,
        recorder=None,
        max_recoveries: int = 0,
    ):
        self.cost_model = cost_model or CostModel()
        self.max_supersteps = max_supersteps
        self.backend = backend
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.checkpoint_keep = checkpoint_keep
        self.recorder = NULL_RECORDER if recorder is None else recorder
        if max_recoveries < 0:
            raise ValueError(f"max_recoveries must be >= 0, got {max_recoveries}")
        self.max_recoveries = max_recoveries
        if checkpoint_dir is not None:
            # Fail on a bad cadence/retention at construction, not at
            # the first superstep boundary of a long run.
            from ..checkpoint import CheckpointWriter

            CheckpointWriter(checkpoint_dir, every=checkpoint_every, keep=checkpoint_keep)

    def _resolve_backend(self):
        """Materialize the configured backend (lazy import, no cycles)."""
        from ..runtime import Backend, SerialBackend, create_backend

        if self.backend is None:
            return SerialBackend()
        if isinstance(self.backend, str):
            return create_backend(self.backend)
        if not isinstance(self.backend, Backend):
            raise TypeError(
                f"backend must be None, a name, or a repro.runtime.Backend; "
                f"got {type(self.backend).__name__}"
            )
        return self.backend

    def run(
        self,
        dgraph: DistributedGraph,
        program: SubgraphProgram,
        resume_from: Optional[str] = None,
    ) -> BSPRun:
        """Execute ``program`` to completion and return the full record.

        ``resume_from`` names a checkpoint directory (a root, resuming
        from its newest snapshot, or one specific ``step-NNNNNN``
        snapshot).  The snapshot's fingerprint must match this exact
        run — graph, partition layout, program parameters, cost model —
        or :class:`repro.checkpoint.CheckpointError` is raised; the
        resumed execution is bit-identical to the uninterrupted one on
        every backend.  Fresh and resumed runs execute the *same*
        superstep loop — a resume only restores state and starts the
        loop at the snapshot boundary.
        """
        if program.mode not in (MINIMIZE, ACCUMULATE):
            raise ValueError(f"unknown program mode {program.mode!r}")
        backend = self._resolve_backend()
        from ..runtime.base import WorkerLostError

        writer = None
        snapshot = None
        fingerprint = None
        if self.checkpoint_dir is not None or resume_from is not None:
            from ..checkpoint import (
                CheckpointWriter,
                compute_fingerprint,
                load_snapshot,
                verify_fingerprint,
            )

            fingerprint = compute_fingerprint(
                dgraph, program, self.cost_model, self.max_supersteps
            )
            if self.checkpoint_dir is not None:
                writer = CheckpointWriter(
                    self.checkpoint_dir,
                    every=self.checkpoint_every,
                    keep=self.checkpoint_keep,
                    recorder=self.recorder,
                )
            if resume_from is not None:
                snapshot = load_snapshot(resume_from)
                verify_fingerprint(snapshot.fingerprint, fingerprint)
            elif writer is not None:
                # A fresh checkpointed run owns its directory: stale
                # snapshots from a previous run would count toward the
                # retention limit and shadow this run's progress on a
                # later resume.
                from ..checkpoint import clear_snapshots

                clear_snapshots(self.checkpoint_dir)

        with backend.session(dgraph, program) as session:
            if self.recorder.enabled:
                # Post-construction attach keeps the session() signature
                # stable for wrapper backends; sessions default to the
                # null recorder.
                session.attach_recorder(self.recorder)
            run = BSPRun(
                program=program.name,
                partition_method=dgraph.partition_method,
                graph_name=dgraph.graph.name,
                num_workers=dgraph.num_workers,
                backend=session.backend_name,
            )
            done = False
            if snapshot is not None:
                session.push_state(snapshot.arrays)
                run.supersteps = list(snapshot.supersteps)
                run.resumed_from = snapshot.superstep
                done = snapshot.done
            ckpt = _CheckpointHook(writer, fingerprint, session)
            recoveries = 0
            while True:
                try:
                    return self._superstep_loop(
                        dgraph, program, session, run, done, ckpt
                    )
                except WorkerLostError:
                    recovery = self._recovery_snapshot(
                        session, writer, fingerprint, recoveries
                    )
                    if recovery is None:
                        raise
                    recoveries += 1
                    # Respawn the dead workers, then rewind the *whole*
                    # pool — survivors have advanced past the snapshot
                    # boundary; replaying everyone from the same restored
                    # arrays is what keeps the recovered run
                    # bit-identical to an uninterrupted one.
                    with self.recorder.span("recover", cat="recover"):
                        session.recover_workers()
                        session.push_state(recovery.arrays)
                    run.supersteps = list(recovery.supersteps)
                    done = recovery.done

    def _recovery_snapshot(self, session, writer, fingerprint, recoveries):
        """The snapshot to rewind to after a lost worker, or ``None``.

        ``None`` means "don't recover, re-raise": the recovery budget is
        spent, no checkpoint directory is configured, the session cannot
        replace workers (every backend except spawned-local socket), or
        no fingerprint-valid snapshot exists on disk yet (worker death
        before the first checkpoint boundary).
        """
        if (
            recoveries >= self.max_recoveries
            or writer is None
            or self.checkpoint_dir is None
            or not getattr(session, "supports_recovery", False)
        ):
            return None
        from ..checkpoint import (
            CheckpointError,
            list_snapshots,
            load_snapshot,
            verify_fingerprint,
        )

        for path in reversed(list_snapshots(self.checkpoint_dir)):
            try:
                snap = load_snapshot(path)
                verify_fingerprint(snap.fingerprint, fingerprint)
            except CheckpointError:
                continue  # torn or foreign snapshot: try the next-newest
            return snap
        return None

    # ------------------------------------------------------------------
    # The backend-agnostic superstep loop (both modes, fresh and resumed)
    # ------------------------------------------------------------------

    def _superstep_loop(
        self,
        dgraph: DistributedGraph,
        program: SubgraphProgram,
        session,
        run: BSPRun,
        resumed_done: bool,
        ckpt: "_CheckpointHook",
    ) -> BSPRun:
        """Sequence ``superstep`` (compute, then exchange) → convergence.

        The single loop all executions share: minimize (CC, SSSP, BFS)
        and accumulate (PageRank) mode, fresh and resumed runs.  A
        resumed run enters with restored state and ``run.supersteps``
        pre-filled, so the range simply starts at the snapshot boundary;
        a resumed-*finished* run (``resumed_done``) replays nothing.
        Both stages execute on the backend session — the engine never
        touches replica routes itself — and each stage's wall and
        ``stage.*`` span come from the window the session stamps on its
        result.
        """
        minimize = program.mode == MINIMIZE
        rec = session.recorder
        for step in range(run.num_supersteps, self.max_supersteps):
            if resumed_done:
                break
            step_t0 = monotonic_ns()
            # Activity is asked of the *session*, not read out of state
            # arrays: state-owning backends (socket) answer from the
            # activity bits piggybacked on stage replies instead of
            # shipping O(|V|) arrays per check.
            quiescent = minimize and not session.any_active()
            pre_check_ns = monotonic_ns() - step_t0
            if quiescent:
                break  # quiescent before the step: nothing left to do

            comp, exchange = session.superstep(step)
            (c0, c1), (x0, x1) = comp.window, exchange.window
            t_compute, t_exchange = (c1 - c0) * 1e-9, (x1 - x0) * 1e-9
            if rec.enabled:
                rec.add("stage.compute", c0, c1, superstep=step)
                rec.add("stage.exchange", x0, x1, superstep=step)

            # The convergence check is real coordinator work; the
            # top-of-loop quiescence pre-check of the *same* superstep is
            # attributed here too, so "converge" sums to everything the
            # loop did besides the two stages.
            t0 = monotonic_ns()
            if minimize:
                converged = not session.any_active()
            else:
                converged = program.has_converged(step, exchange.delta)
            t1 = monotonic_ns()
            t_converge = (pre_check_ns + (t1 - t0)) * 1e-9
            if rec.enabled:
                rec.add("converge", t0, t1, superstep=step)
                # Free for in-process backends (pull_state returns the
                # session's own arrays); an explicit per-superstep wire
                # pull for the socket backend — an observability cost
                # paid only under tracing, visible as wire.pull_state.
                self._record_superstep_metrics(rec, exchange, session.pull_state())

            run.supersteps.append(
                self._stats(
                    comp.work,
                    exchange.sent,
                    exchange.received,
                    t_compute,
                    t_exchange,
                    t_converge,
                )
            )
            if converged:
                if rec.enabled:
                    rec.add("superstep", step_t0, monotonic_ns(), superstep=step,
                            cat="superstep")
                break
            ckpt.boundary(run)
            if rec.enabled:
                # Closed after the checkpoint boundary so the snapshot
                # span (if any) nests inside its superstep.
                rec.add("superstep", step_t0, monotonic_ns(), superstep=step,
                        cat="superstep")
        if not resumed_done:
            # A resumed-finished run replayed nothing; its done snapshot
            # is already on disk and need not be rewritten.
            ckpt.finalize(run)
        with rec.span("gather"):
            run.values = dgraph.gather_master_values(
                session.pull_state()["values"], default=0 if minimize else 0.0
            )
        if rec.enabled:
            rss = sample_peak_rss_kb()
            if rss is not None:
                rec.metrics.gauge("rss.peak_kb").sample(rss)
        return run

    # ------------------------------------------------------------------

    @staticmethod
    def _record_superstep_metrics(rec, exchange, state) -> None:
        """Fold one superstep's tallies into the recorder's metrics.

        Runs once per traced superstep, so it avoids per-element numpy
        scalar conversions: one ``tolist`` per tally array and
        ``count_nonzero`` (cheaper than ``.sum()`` on bool arrays) keep
        the traced path inside CI's +5% tracing-overhead gate.  Peak
        RSS is *not* sampled here — it is a high-water mark, so the
        single end-of-run sample in the loop equals the max of
        per-superstep samples.
        """
        metrics = rec.metrics
        sent = metrics.counter("messages.sent")
        received = metrics.counter("messages.received")
        changed = metrics.counter("vertices.changed")
        sent_counts = exchange.sent.tolist()
        received_counts = exchange.received.tolist()
        for w, arr in enumerate(state["changed"]):
            sent.inc(sent_counts[w], worker=w)
            received.inc(received_counts[w], worker=w)
            changed.inc(int(np.count_nonzero(arr)), worker=w)
        if "active" in state:
            metrics.gauge("vertices.active").sample(
                float(sum(int(np.count_nonzero(a)) for a in state["active"]))
            )

    def _stats(
        self,
        work: np.ndarray,
        sent: np.ndarray,
        received: np.ndarray,
        t_compute: float,
        t_exchange: float,
        t_converge: float,
    ) -> SuperstepStats:
        comp = self.cost_model.seconds_per_work_unit * work + self.cost_model.superstep_overhead
        comm = self.cost_model.seconds_per_message * (sent + received).astype(np.float64)
        return SuperstepStats(
            work=work,
            sent=sent,
            received=received,
            comp_seconds=comp,
            comm_seconds=comm,
            real_seconds={
                "compute": t_compute,
                "exchange": t_exchange,
                "converge": t_converge,
            },
        )


class _CheckpointHook:
    """Glue between the superstep loop and the checkpoint writer.

    ``boundary`` runs after every completed superstep (snapshot only on
    the configured cadence); ``finalize`` runs once when the loop
    terminates and always snapshots, marked ``done`` so a resume of a
    finished run replays nothing.  With no writer configured both are
    no-ops.
    """

    def __init__(self, writer, fingerprint, session):
        self._writer = writer
        self._fingerprint = fingerprint
        self._session = session

    def _write(self, run: "BSPRun", done: bool) -> None:
        # Ask the cadence before pulling: on the wire plane ``pull_state``
        # gathers every shard's arrays over TCP.
        if not done and not self._writer.due(run.num_supersteps):
            return
        self._writer.maybe_write(
            superstep=run.num_supersteps,
            done=done,
            fingerprint=self._fingerprint,
            meta={
                "program": run.program,
                "partition_method": run.partition_method,
                "graph_name": run.graph_name,
                "num_workers": run.num_workers,
                "backend": run.backend,
            },
            arrays=self._session.pull_state(),
            supersteps=run.supersteps,
        )

    def boundary(self, run: "BSPRun") -> None:
        if self._writer is not None:
            self._write(run, done=False)

    def finalize(self, run: "BSPRun") -> None:
        if self._writer is not None:
            self._write(run, done=True)
