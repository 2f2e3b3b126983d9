"""Kill-a-worker recovery on the socket backend.

The socket backend's spawned-local sessions can *replace* dead workers:
``BSPEngine(..., max_recoveries=N)`` catches the typed
:class:`~repro.runtime.WorkerLostError`, respawns the dead shard's
process, pushes the newest fingerprint-valid snapshot into the whole
pool (replacements come up with initial state, survivors have advanced
past the boundary) and replays.  The contract is the same bit-identity
bar as a manual resume: the recovered run must equal the golden
uninterrupted one in every deterministic field — values, superstep
count, work/message tallies, cost-model accounting — and the snapshots
it keeps writing must be byte-identical to a serial run's.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.bsp import BSPEngine
from repro.checkpoint import list_snapshots
from repro.pipeline import APPS
from repro.runtime import Backend, BackendError, SocketBackend, WorkerLostError
from repro.runtime.protocol import CommandSession


class _KillWorkerOnce(Backend):
    """Socket backend that SIGKILLs one spawned worker as exchange N starts.

    One-shot by default: the replayed superstep after recovery runs
    unharmed, so a single ``max_recoveries=1`` budget must carry the run
    to completion.  ``once=False`` re-kills on every replay of the same
    superstep — the budget-exhaustion case.  ``victims`` names the
    workers to kill (default: the last one).
    """

    name = "socket"

    def __init__(self, kill_at_superstep: int, once: bool = True, victims=(-1,)):
        self._inner = SocketBackend()
        self._kill_at = kill_at_superstep
        self._once = once
        self._victims = victims
        self.killed = False
        self.last_session = None

    def session(self, dgraph, program):
        session = self._inner.session(dgraph, program)
        self.last_session = session
        real = session.exchange_stage

        def exchange_with_kill(superstep: int = 0):
            if superstep == self._kill_at and (not self.killed or not self._once):
                self.killed = True
                for w in self._victims:
                    session.links[w].kill()
                for w in self._victims:
                    session.links[w].wait(30)
            return real(superstep)

        session.exchange_stage = exchange_with_kill
        return session


@pytest.mark.parametrize("app", ["cc", "pr"])
@pytest.mark.parametrize("p", [4])
def test_killed_worker_recovers_to_bit_identical_run(
    tmp_path, ckpt_graph, ckpt_dgraphs, assert_runs_identical, app, p
):
    dgraph = ckpt_dgraphs[p]
    golden = BSPEngine().run(dgraph, APPS.create(app, ckpt_graph))
    kill_at = 1
    assert golden.num_supersteps > kill_at, "crash point must be mid-run"

    backend = _KillWorkerOnce(kill_at)
    engine = BSPEngine(
        backend=backend,
        checkpoint_dir=str(tmp_path / f"rec-{app}-{p}"),
        checkpoint_every=1,
        checkpoint_keep=None,
        max_recoveries=1,
    )
    recovered = engine.run(dgraph, APPS.create(app, ckpt_graph))
    assert backend.killed, "the injection never fired"
    assert_runs_identical(recovered, golden)


@pytest.mark.parametrize("app", ["cc", "pr"])
def test_two_workers_lost_in_one_stage_recover_in_one_batch(
    tmp_path, monkeypatch, ckpt_graph, ckpt_dgraphs, assert_runs_identical, app
):
    """Both replacements come up in one ``recover_workers()`` — one
    recovery off the budget, one batch through ``launch`` — and the run
    is still bit-identical to the uninterrupted one."""
    dgraph = ckpt_dgraphs[4]
    golden = BSPEngine().run(dgraph, APPS.create(app, ckpt_graph))
    backend = _KillWorkerOnce(1, victims=(1, 3))
    replaced = []
    real = CommandSession.recover_workers

    def recording(session):
        replaced.append(real(session))
        return replaced[-1]

    monkeypatch.setattr(CommandSession, "recover_workers", recording)
    recovered = BSPEngine(
        backend=backend,
        checkpoint_dir=str(tmp_path / f"rec-two-{app}"),
        checkpoint_every=1,
        checkpoint_keep=None,
        max_recoveries=1,
    ).run(dgraph, APPS.create(app, ckpt_graph))
    assert replaced == [[1, 3]]
    assert_runs_identical(recovered, golden)


def test_recovery_budget_exhausts_to_the_typed_error(
    tmp_path, ckpt_graph, ckpt_dgraphs
):
    """A second loss with max_recoveries=1 re-raises WorkerLostError."""
    backend = _KillWorkerOnce(1, once=False)  # every replay dies again
    engine = BSPEngine(
        backend=backend,
        checkpoint_dir=str(tmp_path / "rec-exhaust"),
        checkpoint_every=1,
        checkpoint_keep=None,
        max_recoveries=1,
    )
    with pytest.raises(WorkerLostError, match="died unexpectedly") as excinfo:
        engine.run(ckpt_dgraphs[4], APPS.create("cc", ckpt_graph))
    assert excinfo.value.worker_id == 3


def test_no_recovery_budget_keeps_worker_death_fail_fast(
    tmp_path, ckpt_graph, ckpt_dgraphs
):
    """Default max_recoveries=0: same loud failure as every other
    backend, snapshots intact for a manual resume."""
    backend = _KillWorkerOnce(1)
    ckpt = tmp_path / "rec-failfast"
    engine = BSPEngine(
        backend=backend,
        checkpoint_dir=str(ckpt),
        checkpoint_every=1,
        checkpoint_keep=None,
    )
    with pytest.raises(BackendError, match="died unexpectedly|worker pool is down"):
        engine.run(ckpt_dgraphs[4], APPS.create("cc", ckpt_graph))
    assert list_snapshots(str(ckpt)), "no snapshot survived the crash"


def test_manual_resume_after_socket_crash_is_bit_identical(
    tmp_path, ckpt_graph, ckpt_dgraphs, assert_runs_identical
):
    """The socket analogue of the process-backend exchange-crash test."""
    dgraph = ckpt_dgraphs[2]
    golden = BSPEngine().run(dgraph, APPS.create("cc", ckpt_graph))
    backend = _KillWorkerOnce(1)
    ckpt = tmp_path / "rec-resume"
    engine = BSPEngine(
        backend=backend,
        checkpoint_dir=str(ckpt),
        checkpoint_every=1,
        checkpoint_keep=None,
    )
    with pytest.raises(BackendError, match="died unexpectedly|worker pool is down"):
        engine.run(dgraph, APPS.create("cc", ckpt_graph))

    resumed = BSPEngine(backend=SocketBackend()).run(
        dgraph, APPS.create("cc", ckpt_graph), resume_from=str(ckpt)
    )
    assert_runs_identical(resumed, golden)


def test_external_endpoint_sessions_refuse_recovery(
    ckpt_graph, ckpt_dgraphs, external_workers
):
    """The coordinator cannot respawn a worker it did not launch."""
    program = APPS.create("cc", ckpt_graph)
    with SocketBackend().session(ckpt_dgraphs[2], program) as session:
        assert session.supports_recovery
    # The same pool shape over workers somebody else started: the engine
    # must not even try (it gates on supports_recovery), and a direct
    # call refuses explicitly.
    backend = SocketBackend(workers=external_workers(2))
    with backend.session(ckpt_dgraphs[2], program) as session:
        assert not session.supports_recovery
        with pytest.raises(BackendError, match="cannot recover"):
            session.recover_workers()


def _snapshot_checksums(ckpt_dir):
    """{snapshot dir: payload sha256s} from the manifests."""
    out = {}
    for entry in sorted(os.listdir(ckpt_dir)):
        manifest = os.path.join(ckpt_dir, entry, "manifest.json")
        if not os.path.isfile(manifest):
            continue
        with open(manifest) as fh:
            data = json.load(fh)
        out[entry] = {name: info["sha256"] for name, info in data["files"].items()}
    assert out, f"no snapshots under {ckpt_dir}"
    return out


@pytest.mark.parametrize("app", ["cc", "pr"])
def test_socket_checkpoints_are_byte_identical_to_serial(
    tmp_path, ckpt_graph, ckpt_dgraphs, app
):
    """Snapshot payload SHA-256s must match the serial reference exactly
    — state that round-tripped the wire is the same state."""
    dgraph = ckpt_dgraphs[2]
    for backend in ("serial", "socket"):
        BSPEngine(
            backend=backend,
            checkpoint_dir=str(tmp_path / f"ck-{backend}"),
            checkpoint_every=1,
            checkpoint_keep=None,
        ).run(dgraph, APPS.create(app, ckpt_graph))
    assert _snapshot_checksums(tmp_path / "ck-serial") == _snapshot_checksums(
        tmp_path / "ck-socket"
    )


def test_recovered_values_match_final_gather(tmp_path, ckpt_graph, ckpt_dgraphs):
    """Cross-check: sha256 of the recovered run's gathered values equals
    the golden run's — catches divergence past the checkpoint layer."""
    dgraph = ckpt_dgraphs[4]
    golden = BSPEngine().run(dgraph, APPS.create("pr", ckpt_graph))
    backend = _KillWorkerOnce(1)
    recovered = BSPEngine(
        backend=backend,
        checkpoint_dir=str(tmp_path / "rec-hash"),
        checkpoint_every=1,
        max_recoveries=1,
    ).run(dgraph, APPS.create("pr", ckpt_graph))
    assert backend.killed
    digest = lambda run: hashlib.sha256(
        np.ascontiguousarray(run.values).tobytes()
    ).hexdigest()
    assert digest(recovered) == digest(golden)


class _TearNewestThenKill(_KillWorkerOnce):
    """Flip a byte in the newest snapshot's payload just before the kill."""

    def __init__(self, kill_at_superstep: int, ckpt_dir: str):
        super().__init__(kill_at_superstep)
        self._ckpt_dir = ckpt_dir
        self.torn = None

    def session(self, dgraph, program):
        session = super().session(dgraph, program)
        kill = session.exchange_stage

        def tear_then_kill(superstep: int = 0):
            if superstep == self._kill_at and self.torn is None:
                self.torn = list_snapshots(self._ckpt_dir)[-1]
                payload = os.path.join(self.torn, "payload.bin")
                raw = bytearray(open(payload, "rb").read())
                raw[len(raw) // 2] ^= 0xFF
                open(payload, "wb").write(bytes(raw))
            return kill(superstep)

        session.exchange_stage = tear_then_kill
        return session


def test_recovery_falls_back_past_a_torn_newest_snapshot(
    tmp_path, monkeypatch, ckpt_graph, ckpt_dgraphs, assert_runs_identical
):
    """recovery x torn newest: the snapshot damaged by the crash itself is
    skipped, the next-newest is pushed, and the run is still bit-identical."""
    dgraph = ckpt_dgraphs[4]
    golden = BSPEngine().run(dgraph, APPS.create("pr", ckpt_graph))
    kill_at = 2
    assert golden.num_supersteps > kill_at, "crash point must be mid-run"
    ckpt = str(tmp_path / "rec-torn")
    backend = _TearNewestThenKill(kill_at, ckpt)
    rewound_to = []
    real = BSPEngine._recovery_snapshot

    def recording(self, *args):
        snap = real(self, *args)
        rewound_to.append(snap and os.path.basename(snap.directory))
        return snap

    monkeypatch.setattr(BSPEngine, "_recovery_snapshot", recording)
    recovered = BSPEngine(
        backend=backend,
        checkpoint_dir=ckpt,
        checkpoint_every=1,
        checkpoint_keep=None,
        max_recoveries=1,
    ).run(dgraph, APPS.create("pr", ckpt_graph))
    assert backend.killed and os.path.basename(backend.torn) == "step-000002"
    assert rewound_to == ["step-000001"]
    assert_runs_identical(recovered, golden)
