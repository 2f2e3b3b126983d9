"""PageRank in the subgraph-centric model (accumulate mode).

PageRank cannot converge inside one subgraph — every iteration needs the
global rank vector — so each superstep performs exactly one power
iteration: workers accumulate partial in-neighbor sums along their local
edges, mirrors push nonzero partials to masters, masters apply the
damping formula and broadcast new ranks.

Dangling vertices (no out-edges) simply leak their mass, i.e. we iterate
``r' = (1-d)/N + d · Σ_{u→v} r_u / outdeg(u)`` without dangling
redistribution.  The sequential reference in
:mod:`repro.apps.reference` implements the identical recurrence, so
distributed-vs-sequential comparisons are exact; on graphs without
dangling vertices (any undirected graph) this also matches networkx.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path
from typing import Callable

import numpy as np

from ..bsp.distributed import LocalSubgraph
from ..bsp.program import ACCUMULATE, ComputeResult, SubgraphProgram
from ..ckernel import load_library

__all__ = ["PageRank"]

KERNEL_SOURCE = Path(__file__).with_name("pagerank_kernel.c")


class PageRank(SubgraphProgram):
    """Damped PageRank, one power iteration per superstep.

    Parameters
    ----------
    num_vertices:
        Global ``|V|`` (needed for the teleport term on every worker).
    damping:
        The usual d = 0.85.
    max_iters:
        Hard iteration cap (the paper's PR runs a fixed budget).
    tol:
        L1 convergence threshold on the global rank change.
    """

    mode = ACCUMULATE
    dtype = np.float64
    name = "PR"

    def __init__(
        self,
        num_vertices: int,
        damping: float = 0.85,
        max_iters: int = 20,
        tol: float = 1e-10,
    ):
        if not 0 < damping < 1:
            raise ValueError("damping must be in (0, 1)")
        self.num_vertices = int(num_vertices)
        self.damping = float(damping)
        self.max_iters = int(max_iters)
        self.tol = float(tol)
        _kernel()  # loaded here, before a process pool forks

    def initial_values(self, local: LocalSubgraph) -> np.ndarray:
        """Uniform initial rank 1/N."""
        return np.full(local.num_vertices, 1.0 / self.num_vertices)

    def compute(
        self, local: LocalSubgraph, values: np.ndarray, active, superstep: int = 0
    ) -> ComputeResult:
        """Accumulate rank/outdeg along local edges into partial sums.

        One division per local vertex, then the C kernel's edge pass
        (:func:`_scatter`): it adds the shares in edge order starting
        from 0.0, exactly as ``np.add.at`` on a zeroed buffer does, so
        the partials are the same to the bit.
        """
        fanout, dangling = local.out_fanout()
        share = values / fanout
        if dangling is not None:
            share[dangling] = 0.0
        partials = _scatter(local, share)
        work = float(local.num_edges + local.num_vertices)
        # Mirrors only ship nonzero partials (a zero adds nothing at the
        # master); masters always apply.
        return ComputeResult(changed=partials != 0.0, work_units=work, partials=partials)

    def apply(
        self, local: LocalSubgraph, values: np.ndarray, sums: np.ndarray
    ) -> np.ndarray:
        """``r' = (1-d)/N + d · combined_sum`` at every master."""
        return (1.0 - self.damping) / self.num_vertices + self.damping * sums

    def has_converged(self, superstep: int, global_delta: float) -> bool:
        """Stop at the iteration cap or when the L1 change is tiny."""
        return superstep + 1 >= self.max_iters or global_delta < self.tol


def _scatter(local: LocalSubgraph, share: np.ndarray) -> np.ndarray:
    """``np.bincount(local.dst, weights=share[local.src], minlength=n)``,
    bit for bit, by ``pagerank_kernel.c``; the edge arrays are checked
    once per subgraph (:meth:`~LocalSubgraph.checked_edges`), ``share``
    on every call."""
    src, dst = local.checked_edges()
    n = local.num_vertices
    if share.shape != (n,) or share.dtype != np.float64 or not share.flags.c_contiguous:
        raise ValueError(f"share must be a C-contiguous float64 array of {n} entries")
    partials = np.empty(n)
    _kernel()(n, src.shape[0], src.ctypes.data, dst.ctypes.data, share.ctypes.data,
              partials.ctypes.data)
    return partials


@functools.lru_cache(maxsize=None)
def _kernel() -> Callable[..., None]:
    """The kernel's ``pagerank_scatter``, loaded once per process."""
    fn = load_library(KERNEL_SOURCE, "PageRank").pagerank_scatter
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [i64, i64, ptr, ptr, ptr, ptr]
    fn.restype = None
    return fn
