"""Thread-pool backend: one persistent pool, workers share the arrays.

Both superstep stages run on a
:class:`concurrent.futures.ThreadPoolExecutor` that lives for the whole
session (no per-superstep pool churn).  All workers operate on the same
heap arrays, so the exchange stage needs no copying at all: each worker
pulls its inbound replica updates straight out of the other workers'
arrays (see :mod:`repro.runtime.worker` for why the sharded phases are
race-free), with a barrier between the up and down phases enforced by
collecting every up future before submitting the first down task.
Parallelism comes from numpy releasing the GIL inside its bulk kernels;
on pure-Python-heavy programs the GIL limits the achievable speedup —
the process backend exists for exactly that case.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..bsp.distributed import DistributedGraph
from ..bsp.program import SubgraphProgram
from .base import Backend, BackendSession, LocalSession

__all__ = ["ThreadBackend"]


class ThreadBackend(Backend):
    """Shared-memory threads; parallel inside numpy's GIL-free kernels.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to one thread per BSP worker.
    """

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and (
            not isinstance(max_workers, int) or max_workers < 1
        ):
            raise ValueError(f"max_workers must be a positive integer, got {max_workers!r}")
        self.max_workers = max_workers

    def session(
        self, dgraph: DistributedGraph, program: SubgraphProgram
    ) -> BackendSession:
        pool_size = dgraph.num_workers if self.max_workers is None else self.max_workers
        pool = ThreadPoolExecutor(max_workers=max(1, pool_size), thread_name_prefix="repro-bsp")
        return LocalSession(self.name, dgraph, program, pool)
