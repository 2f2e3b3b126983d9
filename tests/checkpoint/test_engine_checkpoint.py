"""Engine-level checkpoint semantics: cadence, retention, fingerprints.

The crash matrix (``test_crash_matrix.py``) proves resume equivalence;
this module pins down the configuration surface around it — when
snapshots appear, how many survive, and that every flavour of
mismatched resume is rejected instead of silently corrupting results.
"""

import os

import numpy as np
import pytest

from repro.bsp import BSPEngine, CostModel, build_distributed_graph
from repro.checkpoint import (
    CheckpointError,
    list_snapshots,
    load_snapshot,
)
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.pipeline import APPS

PR = "pr?pagerank_iters=8"


def _boundaries(root):
    return [int(os.path.basename(s).split("-")[1]) for s in list_snapshots(root)]


def test_cadence_plus_final_done_snapshot(ckpt_graph, ckpt_dgraphs, tmp_path):
    root = str(tmp_path)
    run = BSPEngine(checkpoint_dir=root, checkpoint_every=3, checkpoint_keep=None).run(
        ckpt_dgraphs[2], APPS.create(PR, ckpt_graph)
    )
    assert run.num_supersteps == 8
    # Due boundaries {3, 6} plus the forced final (done) snapshot at 8.
    assert _boundaries(root) == [3, 6, 8]
    finals = [load_snapshot(s).done for s in list_snapshots(root)]
    assert finals == [False, False, True]


def test_retention_default_keeps_two(ckpt_graph, ckpt_dgraphs, tmp_path):
    root = str(tmp_path)
    BSPEngine(checkpoint_dir=root, checkpoint_every=1).run(
        ckpt_dgraphs[2], APPS.create(PR, ckpt_graph)
    )
    assert _boundaries(root) == [7, 8]


def test_fresh_run_has_no_resume_provenance(ckpt_graph, ckpt_dgraphs, tmp_path):
    run = BSPEngine(checkpoint_dir=str(tmp_path)).run(
        ckpt_dgraphs[2], APPS.create("cc", ckpt_graph)
    )
    assert run.resumed_from is None


def test_resume_of_finished_run_replays_nothing(
    ckpt_graph, ckpt_dgraphs, tmp_path, assert_runs_identical
):
    root = str(tmp_path)
    golden = BSPEngine(checkpoint_dir=root, checkpoint_every=2).run(
        ckpt_dgraphs[4], APPS.create(PR, ckpt_graph)
    )
    resumed = BSPEngine().run(
        ckpt_dgraphs[4], APPS.create(PR, ckpt_graph), resume_from=root
    )
    assert_runs_identical(resumed, golden)
    assert resumed.resumed_from == golden.num_supersteps


def test_resumed_run_continues_checkpointing(
    ckpt_graph, ckpt_dgraphs, tmp_path, assert_runs_identical
):
    """Resume with a writer configured keeps snapshotting into the root."""
    root = str(tmp_path)
    golden = BSPEngine(
        checkpoint_dir=root, checkpoint_every=1, checkpoint_keep=None
    ).run(ckpt_dgraphs[2], APPS.create(PR, ckpt_graph))
    early = list_snapshots(root)[0]
    resumed = BSPEngine(
        checkpoint_dir=root, checkpoint_every=1, checkpoint_keep=None
    ).run(ckpt_dgraphs[2], APPS.create(PR, ckpt_graph), resume_from=early)
    assert_runs_identical(resumed, golden)
    assert _boundaries(root) == list(range(1, golden.num_supersteps + 1))


def test_bad_checkpoint_config_fails_at_construction(tmp_path):
    with pytest.raises(CheckpointError, match="checkpoint_every"):
        BSPEngine(checkpoint_dir=str(tmp_path), checkpoint_every=0)
    with pytest.raises(CheckpointError, match="checkpoint_keep"):
        BSPEngine(checkpoint_dir=str(tmp_path), checkpoint_keep=-1)


# ----------------------------------------------------------------------
# Stale-fingerprint rejection: every axis of run identity
# ----------------------------------------------------------------------


@pytest.fixture()
def pr_checkpoint(ckpt_graph, ckpt_dgraphs, tmp_path):
    root = str(tmp_path)
    BSPEngine(checkpoint_dir=root).run(ckpt_dgraphs[2], APPS.create(PR, ckpt_graph))
    return root


def test_rejects_different_app(pr_checkpoint, ckpt_graph, ckpt_dgraphs):
    with pytest.raises(CheckpointError, match="fingerprint"):
        BSPEngine().run(
            ckpt_dgraphs[2], APPS.create("cc", ckpt_graph), resume_from=pr_checkpoint
        )


def test_rejects_different_program_params(pr_checkpoint, ckpt_graph, ckpt_dgraphs):
    with pytest.raises(CheckpointError, match="fingerprint"):
        BSPEngine().run(
            ckpt_dgraphs[2],
            APPS.create("pr?pagerank_iters=4", ckpt_graph),
            resume_from=pr_checkpoint,
        )


def test_rejects_different_worker_count(pr_checkpoint, ckpt_graph, ckpt_dgraphs):
    with pytest.raises(CheckpointError, match="fingerprint"):
        BSPEngine().run(
            ckpt_dgraphs[4], APPS.create(PR, ckpt_graph), resume_from=pr_checkpoint
        )


def test_rejects_different_graph(pr_checkpoint, ckpt_graph):
    other = powerlaw_graph(220, eta=2.2, min_degree=2, seed=14, name="ckpt-pl")
    dg = build_distributed_graph(EBVPartitioner().partition(other, 2))
    with pytest.raises(CheckpointError, match="fingerprint"):
        BSPEngine().run(dg, APPS.create(PR, other), resume_from=pr_checkpoint)


def test_rejects_different_partition_layout(pr_checkpoint, ckpt_graph):
    from repro.partition import DBHPartitioner

    dg = build_distributed_graph(DBHPartitioner().partition(ckpt_graph, 2))
    with pytest.raises(CheckpointError, match="fingerprint"):
        BSPEngine().run(dg, APPS.create(PR, ckpt_graph), resume_from=pr_checkpoint)


def test_rejects_different_cost_model(pr_checkpoint, ckpt_graph, ckpt_dgraphs):
    engine = BSPEngine(cost_model=CostModel(seconds_per_message=123.0))
    with pytest.raises(CheckpointError, match="fingerprint"):
        engine.run(
            ckpt_dgraphs[2], APPS.create(PR, ckpt_graph), resume_from=pr_checkpoint
        )


def test_rejects_different_max_supersteps(pr_checkpoint, ckpt_graph, ckpt_dgraphs):
    with pytest.raises(CheckpointError, match="fingerprint"):
        BSPEngine(max_supersteps=7).run(
            ckpt_dgraphs[2], APPS.create(PR, ckpt_graph), resume_from=pr_checkpoint
        )


def test_corrupted_snapshot_rejected_through_engine(
    pr_checkpoint, ckpt_graph, ckpt_dgraphs
):
    snap = list_snapshots(pr_checkpoint)[-1]
    state = os.path.join(snap, "payload.bin")
    raw = bytearray(open(state, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    open(state, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError, match="[Cc]hecksum"):
        BSPEngine().run(
            ckpt_dgraphs[2], APPS.create(PR, ckpt_graph), resume_from=snap
        )


@pytest.mark.parametrize("backend", ["serial", "thread", "process", "socket"])
def test_restore_state_validates_before_touching_anything(
    backend, pr_checkpoint, ckpt_graph, ckpt_dgraphs
):
    """A kind/shape mismatch fails atomically (no half-restored arrays),
    the same way on every backend, and leaves the session usable."""
    from repro.runtime import create_backend

    snap = load_snapshot(pr_checkpoint)
    with create_backend(backend).session(
        ckpt_dgraphs[2], APPS.create("cc", ckpt_graph)
    ) as session:
        session.compute_stage(0)
        before = [v.copy() for v in session.pull_state()["values"]]
        with pytest.raises(CheckpointError, match="array kinds"):
            session.push_state(snap.arrays)  # pr arrays, cc session
        for got, want in zip(session.pull_state()["values"], before):
            assert np.array_equal(got, want)
        session.exchange_stage(0)


def test_fresh_run_clears_stale_snapshots_from_previous_run(
    ckpt_graph, ckpt_dgraphs, tmp_path, assert_runs_identical
):
    """Reusing a checkpoint dir for a new run must not mix the two runs."""
    root = str(tmp_path)
    BSPEngine(checkpoint_dir=root).run(ckpt_dgraphs[2], APPS.create(PR, ckpt_graph))
    stale = set(list_snapshots(root))
    # Fresh run with a *different* program into the same directory.
    golden = BSPEngine().run(ckpt_dgraphs[2], APPS.create("cc", ckpt_graph))
    BSPEngine(checkpoint_dir=root, checkpoint_every=1, checkpoint_keep=None).run(
        ckpt_dgraphs[2], APPS.create("cc", ckpt_graph)
    )
    assert not stale & set(list_snapshots(root)), "stale snapshots survived"
    # And the root now resumes the NEW run, not the old one.
    resumed = BSPEngine().run(
        ckpt_dgraphs[2], APPS.create("cc", ckpt_graph), resume_from=root
    )
    assert_runs_identical(resumed, golden)


def test_root_resume_falls_back_past_a_damaged_newest_snapshot(
    ckpt_graph, ckpt_dgraphs, tmp_path, assert_runs_identical
):
    """A snapshot torn by the crash itself must not make the run unresumable."""
    root = str(tmp_path)
    golden = BSPEngine(
        checkpoint_dir=root, checkpoint_every=1, checkpoint_keep=None
    ).run(ckpt_dgraphs[2], APPS.create(PR, ckpt_graph))
    newest = list_snapshots(root)[-1]
    state = os.path.join(newest, "payload.bin")
    raw = bytearray(open(state, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    open(state, "wb").write(bytes(raw))
    resumed = BSPEngine().run(
        ckpt_dgraphs[2], APPS.create(PR, ckpt_graph), resume_from=root
    )
    assert_runs_identical(resumed, golden)
    assert resumed.resumed_from == golden.num_supersteps - 1
    # Naming the damaged snapshot explicitly stays a hard error.
    with pytest.raises(CheckpointError, match="[Cc]hecksum"):
        BSPEngine().run(
            ckpt_dgraphs[2], APPS.create(PR, ckpt_graph), resume_from=newest
        )


# ----------------------------------------------------------------------
# mutate x checkpoint: a pre-mutation snapshot never resumes the new graph
# ----------------------------------------------------------------------


@pytest.mark.parametrize("target", ["root", "step"])
def test_pre_mutation_checkpoint_is_refused_by_fingerprint(tmp_path, target):
    from repro.mutate import MutationBatch, apply_mutations
    from repro.partition import StreamingEBVPartitioner

    graph = powerlaw_graph(220, eta=2.2, min_degree=2, directed=True, seed=17, name="ckpt-dir")
    base = StreamingEBVPartitioner().partition(graph, 2)
    root = str(tmp_path)
    BSPEngine(checkpoint_dir=root, checkpoint_every=2).run(
        build_distributed_graph(base), APPS.create(PR, graph)
    )
    batch = MutationBatch()
    batch.delete(int(graph.src[0]), int(graph.dst[0]))
    batch.insert(0, graph.num_vertices - 1).insert(3, graph.num_vertices + 2)
    mutated = apply_mutations(base, batch)
    assert mutated.mode == "incremental"

    resume_from = root if target == "root" else list_snapshots(root)[0]
    with pytest.raises(CheckpointError, match="fingerprint") as excinfo:
        BSPEngine().run(
            build_distributed_graph(mutated.partition),
            APPS.create(PR, mutated.graph),
            resume_from=resume_from,
        )
    sections = str(excinfo.value).split("mismatched sections: ")[1].split(".")[0].split(", ")
    assert {"graph", "partition"} <= set(sections)
