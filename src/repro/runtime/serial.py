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
from .base import Backend, BackendSession, LocalSession

__all__ = ["SerialBackend"]


class SerialBackend(Backend):
    """Sequential execution in the calling process (the reference)."""

    name = "serial"

    def session(
        self, dgraph: DistributedGraph, program: SubgraphProgram
    ) -> BackendSession:
        return LocalSession(self.name, dgraph, program)
