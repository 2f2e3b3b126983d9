"""Unit tests for the runtime package: sessions, shm, failure paths."""

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
from repro.runtime.shm import (
    attach_shared_array,
    create_shared_array,
    destroy_shared_array,
)


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

    def test_process_backend_rejects_unknown_start_method(self):
        with pytest.raises(ValueError, match="start_method"):
            ProcessBackend(start_method="teleport")

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
    def test_failed_allocation_unlinks_partial_shared_memory(self, dgraph):
        """Blocks created before a mid-allocation failure must not leak."""
        import glob

        class SecondWorkerFails(CrashingProgram):
            def initial_values(self, local):
                if local.worker_id > 0:
                    raise MemoryError("no room for worker 1")
                return np.zeros(local.num_vertices)

        before = set(glob.glob("/dev/shm/psm_*"))
        with pytest.raises(MemoryError):
            ProcessBackend().session(dgraph, SecondWorkerFails())
        assert set(glob.glob("/dev/shm/psm_*")) == before

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


class TestSharedArrays:
    def test_round_trip_and_mutation_visibility(self):
        template = np.arange(12, dtype=np.float64).reshape(3, 4)
        shm, parent_view, spec = create_shared_array(template)
        try:
            peer_shm, peer_view = attach_shared_array(spec)
            try:
                assert np.array_equal(peer_view, template)
                parent_view[1, 2] = -7.5
                assert peer_view[1, 2] == -7.5
            finally:
                peer_shm.close()
        finally:
            destroy_shared_array(shm)

    def test_empty_array_is_backed_by_one_byte_block(self):
        shm, view, spec = create_shared_array(np.empty(0, dtype=np.int64))
        try:
            assert view.shape == (0,)
            assert spec.shape == (0,)
        finally:
            destroy_shared_array(shm)

    def test_destroy_tolerates_double_free(self):
        shm, _, _ = create_shared_array(np.zeros(4))
        destroy_shared_array(shm)
        destroy_shared_array(shm)
