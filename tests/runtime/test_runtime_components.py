"""Unit tests for the runtime package: sessions, shared pages, failure paths."""

import mmap
import multiprocessing
import os

import numpy as np
import pytest

from repro.bsp import BSPEngine, build_distributed_graph
from repro.bsp.program import MINIMIZE, ComputeResult, SubgraphProgram
from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.runtime import (
    BACKEND_ALIASES,
    BACKEND_TYPES,
    BackendError,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    create_backend,
    worker_arrays,
)
from repro.runtime.process import _shared_copy


@pytest.fixture(scope="module")
def dgraph():
    graph = powerlaw_graph(200, eta=2.2, min_degree=2, seed=5, name="pl-rt")
    return build_distributed_graph(EBVPartitioner().partition(graph, 2))


class CrashingProgram(SubgraphProgram):
    """Minimize-mode program whose compute always raises."""

    mode = MINIMIZE
    name = "crash"

    def initial_values(self, local):
        return np.zeros(local.num_vertices)

    def compute(self, local, values, active, superstep=0):
        raise RuntimeError("boom in worker")


class TestCreateBackend:
    def test_canonical_names(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        assert isinstance(create_backend("THREAD"), ThreadBackend)
        assert isinstance(create_backend("process"), ProcessBackend)

    def test_unknown_name_lists_available(self):
        with pytest.raises(
            ValueError, match="unknown backend 'gpu'.*process, serial, socket, thread"
        ):
            create_backend("gpu")

    @pytest.mark.parametrize("name", sorted(BACKEND_TYPES) + sorted(BACKEND_ALIASES))
    def test_engine_and_registry_agree_on_every_name(self, name):
        from repro.pipeline.registries import BACKENDS

        backend = BSPEngine(backend=name)._resolve_backend()
        assert isinstance(backend, type(BACKENDS.create(name)))

    def test_engine_rejects_non_backend_object(self, dgraph):
        engine = BSPEngine(backend=object())
        with pytest.raises(TypeError, match="backend must be"):
            engine.run(dgraph, CrashingProgram())


class TestValidation:
    def test_thread_backend_rejects_bad_pool_size(self):
        with pytest.raises(ValueError, match="max_workers"):
            ThreadBackend(max_workers=0)

    def test_process_start_method_is_an_unknown_option(self):
        """``process`` always forks: there is no start method to choose."""
        from repro.pipeline.registries import BACKENDS

        with pytest.raises(TypeError, match="unexpected keyword argument 'start_method'"):
            BACKENDS.create("process?start_method=fork")

    def test_process_backend_without_fork_names_socket(self, monkeypatch):
        import multiprocessing

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        with pytest.raises(ValueError, match="use the socket backend"):
            ProcessBackend()

    def test_allocate_state_rejects_unknown_mode(self, dgraph):
        program = CrashingProgram()
        program.mode = "gossip"
        with pytest.raises(ValueError, match="unknown program mode"):
            worker_arrays(dgraph.locals[0], program)


class TestWorkerFailure:
    @pytest.mark.parametrize("backend_name", ["serial", "thread"])
    def test_in_process_backends_propagate_compute_errors(self, dgraph, backend_name):
        engine = BSPEngine(backend=backend_name)
        with pytest.raises(RuntimeError, match="boom in worker"):
            engine.run(dgraph, CrashingProgram())

    def test_process_backend_reports_child_traceback(self, dgraph):
        engine = BSPEngine(backend="process")
        with pytest.raises(BackendError, match="boom in worker"):
            engine.run(dgraph, CrashingProgram())

    def test_process_pool_survives_for_next_run(self, dgraph):
        """A crashed session must not poison subsequent sessions."""
        backend = ProcessBackend()
        engine = BSPEngine(backend=backend)
        with pytest.raises(BackendError):
            engine.run(dgraph, CrashingProgram())
        from repro.apps import ConnectedComponents

        run = engine.run(dgraph, ConnectedComponents())
        ref = BSPEngine().run(dgraph, ConnectedComponents())
        assert np.array_equal(run.values, ref.values)


class TestSessionLifecycle:
    def test_failed_allocation_starts_no_workers(self, dgraph):
        """A mid-allocation failure raises before the pool forks and
        leaves nothing behind: no child, no ``/dev/shm`` entry."""

        class SecondWorkerFails(CrashingProgram):
            def initial_values(self, local):
                if local.worker_id > 0:
                    raise MemoryError("no room for worker 1")
                return np.zeros(local.num_vertices)

        children = set(multiprocessing.active_children())
        entries = set(os.listdir("/dev/shm"))
        with pytest.raises(MemoryError):
            ProcessBackend().session(dgraph, SecondWorkerFails())
        assert set(multiprocessing.active_children()) == children
        assert set(os.listdir("/dev/shm")) == entries

    def test_session_close_is_idempotent(self, dgraph):
        from repro.apps import ConnectedComponents

        session = ProcessBackend().session(dgraph, ConnectedComponents())
        session.compute_stage()
        session.close()
        session.close()

    def test_closed_pool_raises_backend_error(self, dgraph):
        from repro.apps import ConnectedComponents

        session = ProcessBackend().session(dgraph, ConnectedComponents())
        session.close()
        with pytest.raises(BackendError, match="closed"):
            session.compute_stage()


def _write_through(view: np.ndarray) -> None:
    view[1, 2] = -7.5


class TestSharedArrays:
    def test_round_trip_and_mutation_visibility(self):
        """A forked child's write lands in the coordinator's view."""
        template = np.arange(12, dtype=np.float64).reshape(3, 4)
        view = _shared_copy(template)
        assert np.array_equal(view, template)
        assert view.ctypes.data % mmap.PAGESIZE == 0
        child = multiprocessing.get_context("fork").Process(target=_write_through, args=(view,))
        child.start()
        child.join(30)
        assert child.exitcode == 0
        assert view[1, 2] == -7.5
        assert template[1, 2] == 6.0

    def test_empty_array_is_backed_by_one_byte_block(self):
        view = _shared_copy(np.empty(0, dtype=np.int64))
        assert view.shape == (0,)
        assert view.dtype == np.int64
        assert len(view.base) == 1
