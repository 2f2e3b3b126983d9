"""Resume-equivalence across the full APPS registry × every backend.

Snapshots written by one backend must resume bit-identically on *any*
backend: the snapshot captures engine-side state arrays, and every
backend — including the process backend, whose persistent children
share the state's pages with the coordinator — observes the
restored values exactly as it observes exchange-stage writes.  The
sweep resumes serial-written snapshots on all three backends at crash
points {1, mid, last}, and separately proves the reverse direction:
snapshots written *by* a process-backend run resume on the serial
reference.
"""

import os

import pytest

from repro.bsp import BSPEngine
from repro.checkpoint import list_snapshots
from repro.pipeline import APPS

PARTS = (2, 4)
BACKENDS = ("serial", "thread", "process")


def _app_spec(name: str) -> str:
    """Registry name -> spec (pagerank capped to keep the sweep fast)."""
    return "pr?pagerank_iters=6" if name == "pr" else name


@pytest.fixture(scope="module")
def goldens(ckpt_graph, ckpt_dgraphs, tmp_path_factory):
    """Serial golden + serial-written every-boundary snapshots per (app, p)."""
    out = {}
    for name in APPS.names():
        app = _app_spec(name)
        for p in PARTS:
            golden = BSPEngine().run(ckpt_dgraphs[p], APPS.create(app, ckpt_graph))
            root = str(tmp_path_factory.mktemp("backend-resume"))
            BSPEngine(
                checkpoint_dir=root, checkpoint_every=1, checkpoint_keep=None
            ).run(ckpt_dgraphs[p], APPS.create(app, ckpt_graph))
            out[(name, p)] = (golden, root)
    return out


def _crash_points(root, num_supersteps):
    """Snapshot dirs for boundaries {1, mid, last} (deduplicated)."""
    snaps = {
        int(os.path.basename(s).split("-")[1]): s for s in list_snapshots(root)
    }
    picks = sorted({1, max(1, num_supersteps // 2), num_supersteps})
    return [snaps[k] for k in picks]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("p", PARTS)
@pytest.mark.parametrize("name", APPS.names())
def test_resume_on_every_backend_matches_serial_golden(
    name, p, backend, goldens, ckpt_graph, ckpt_dgraphs, assert_runs_identical
):
    golden, root = goldens[(name, p)]
    for snap in _crash_points(root, golden.num_supersteps):
        resumed = BSPEngine(backend=backend).run(
            ckpt_dgraphs[p], APPS.create(_app_spec(name), ckpt_graph), resume_from=snap
        )
        assert resumed.backend == backend
        assert_runs_identical(resumed, golden)


@pytest.mark.parametrize("name", ("cc", "pr"))
def test_process_written_snapshots_resume_on_serial(
    name, goldens, ckpt_graph, ckpt_dgraphs, tmp_path, assert_runs_identical
):
    """The shared-memory session state checkpoints and restores exactly."""
    golden, _ = goldens[(name, 2)]
    root = str(tmp_path / "process-written")
    BSPEngine(
        backend="process", checkpoint_dir=root, checkpoint_every=1,
        checkpoint_keep=None,
    ).run(ckpt_dgraphs[2], APPS.create(_app_spec(name), ckpt_graph))
    for snap in _crash_points(root, golden.num_supersteps):
        resumed = BSPEngine().run(
            ckpt_dgraphs[2], APPS.create(_app_spec(name), ckpt_graph), resume_from=snap
        )
        assert resumed.backend == "serial"
        assert_runs_identical(resumed, golden)
