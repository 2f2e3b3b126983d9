"""The serial reference backend: both superstep stages, inline.

Runs every worker's computation stage, then every worker's exchange
phases, sequentially in the calling process — worker 0 through p-1, up
phase before down phase.  This is the ground truth the parallel
backends are tested against (the bit-identity oracle), and the baseline
the perf ledger's ``runtime.*_speedup_vs_serial`` rows measure against.
"""

from __future__ import annotations

from ..bsp.distributed import DistributedGraph
from ..bsp.program import SubgraphProgram
from .base import (
    Backend,
    BackendSession,
    ComputeStageResult,
    ExchangeResult,
    SharedArraySession,
    finish_compute_stage,
    finish_exchange_stage,
)

__all__ = ["SerialBackend"]


class _SerialSession(SharedArraySession):
    backend_name = "serial"

    def compute_stage(self, superstep: int = 0) -> ComputeStageResult:
        return finish_compute_stage(
            self.recorder, superstep, [shard.compute(superstep) for shard in self._shards]
        )

    def exchange_stage(self, superstep: int = 0) -> ExchangeResult:
        ups = [shard.exchange_up() for shard in self._shards]
        # The sequential loop is itself the up/down barrier: every
        # worker's up phase has run before the first down phase starts.
        downs = [shard.exchange_down() for shard in self._shards]
        return finish_exchange_stage(self.recorder, superstep, ups, downs)


class SerialBackend(Backend):
    """Sequential execution in the calling process (the reference)."""

    name = "serial"

    def session(
        self, dgraph: DistributedGraph, program: SubgraphProgram
    ) -> BackendSession:
        return _SerialSession(dgraph, program)
