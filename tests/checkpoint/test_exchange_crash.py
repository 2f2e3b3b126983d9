"""Crash injection inside the worker-side exchange stage.

The exchange stage now runs in the process backend's children, so a
worker can die *mid-exchange* — after the compute barrier, with changed
masks and partials already published but the pull phases incomplete.
The contract is unchanged from every other crash point: the coordinator
must fail loudly (:class:`~repro.runtime.BackendError`), never publish
a half-exchanged result, and the snapshots written at earlier superstep
boundaries must resume to a run bit-identical to the golden
uninterrupted one.

The injection wraps the process backend so that at a chosen superstep a
SIGKILL lands on one worker child right as the exchange stage begins —
the in-process analogue of the ``test_sigkill_integration`` subprocess
test, precise enough to target the exchange stage specifically.  The
backend runs a superstep as one command per child, so the kill comes
from inside it: the pool forks with the last child's ``exchange_up``
wrapped, and that child kills itself on entering it at the chosen
superstep, past the compute barrier, while its siblings pull.
"""

import itertools
import os
import signal

import numpy as np
import pytest

from repro.bsp import BSPEngine
from repro.checkpoint import list_snapshots
from repro.pipeline import APPS
from repro.runtime import Backend, BackendError, ProcessBackend
from repro.runtime.shard import WorkerShard


class _KillDuringExchange(Backend):
    """Process backend that SIGKILLs one child as exchange N starts."""

    name = "process"

    def __init__(self, kill_at_superstep: int):
        self._inner = ProcessBackend()
        self._kill_at = kill_at_superstep

    def session(self, dgraph, program):
        real_exchange_up = WorkerShard.exchange_up
        victim, kill_at = dgraph.num_workers - 1, self._kill_at
        calls = itertools.count()  # each child counts its own supersteps

        def exchange_up_with_kill(shard, payload=None):
            if shard.worker_id == victim and next(calls) == kill_at:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_exchange_up(shard, payload)

        # The children fork inside the session call and keep the wrapper.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(WorkerShard, "exchange_up", exchange_up_with_kill)
            return self._inner.session(dgraph, program)


@pytest.mark.parametrize("app", ["cc", "pr"])
@pytest.mark.parametrize("p", [2, 4])
def test_sigkill_during_exchange_then_resume_is_bit_identical(
    tmp_path, ckpt_graph, ckpt_dgraphs, assert_runs_identical, app, p
):
    dgraph = ckpt_dgraphs[p]
    golden = BSPEngine().run(dgraph, APPS.create(app, ckpt_graph))
    kill_at = 1
    assert golden.num_supersteps > kill_at, "crash point must be mid-run"

    ckpt = tmp_path / f"ck-{app}-{p}"
    engine = BSPEngine(
        backend=_KillDuringExchange(kill_at),
        checkpoint_dir=str(ckpt),
        checkpoint_every=1,
        checkpoint_keep=None,
    )
    with pytest.raises(BackendError, match="died unexpectedly|worker pool is down"):
        engine.run(dgraph, APPS.create(app, ckpt_graph))

    # Only boundaries strictly before the killed exchange were written.
    snapshots = list_snapshots(str(ckpt))
    assert snapshots, "no snapshot survived the mid-exchange crash"
    boundaries = [int(os.path.basename(path).split("-")[1]) for path in snapshots]
    assert max(boundaries) == kill_at

    resumed = BSPEngine().run(
        dgraph, APPS.create(app, ckpt_graph), resume_from=str(ckpt)
    )
    assert resumed.resumed_from == kill_at
    assert_runs_identical(resumed, golden)


def test_killed_exchange_worker_does_not_poison_later_sessions(
    ckpt_graph, ckpt_dgraphs
):
    """After a mid-exchange kill, a fresh session on the same backend works."""
    dgraph = ckpt_dgraphs[2]
    backend = _KillDuringExchange(kill_at_superstep=0)
    with pytest.raises(BackendError):
        BSPEngine(backend=backend).run(dgraph, APPS.create("cc", ckpt_graph))
    # The wrapper kills at superstep 0 of *every* session, so run the
    # retry on a plain process backend: the point is that the crashed
    # session's teardown left shared memory and children cleaned up.
    run = BSPEngine(backend="process").run(dgraph, APPS.create("cc", ckpt_graph))
    ref = BSPEngine().run(dgraph, APPS.create("cc", ckpt_graph))
    assert np.array_equal(run.values, ref.values)
