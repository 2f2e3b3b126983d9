"""Distributed GNN feature propagation (SGC-style) — future-work app.

Section VII: "we plan to apply EBV to distributed graph neural networks
(GNN) for processing large graphs."  The communication-bound kernel of
distributed GNN inference is exactly the sparse feature propagation
``X ← Â X`` repeated K times (SGC, k-hop aggregation); the dense
per-vertex transforms are embarrassingly local.  This program runs that
kernel on the BSP engine with *vector* vertex values, so partition
quality translates directly into GNN communication volume — the
experiment the paper proposes.

Aggregation is mean-over-in-neighbors with a self-loop mix:

    X_v^{t+1} = (1 − mix) · X_v^t + mix · Σ_{u→v} X_u^t / outdeg(u)

One hop per superstep (like PageRank); replicas exchange feature rows,
so each message carries one d-dimensional row (counted as one message,
matching the paper's message-count metric).
"""

from __future__ import annotations

import numpy as np

from ..bsp.distributed import LocalSubgraph
from ..bsp.program import ACCUMULATE, ComputeResult, SubgraphProgram
from ..graph import Graph

__all__ = [
    "FeaturePropagation",
    "deterministic_features",
    "feature_propagation_reference",
]


def deterministic_features(graph: Graph, dims: int = 8, seed: int = 0) -> np.ndarray:
    """Seeded standard-normal ``(|V|, dims)`` feature matrix.

    Lets feature propagation be launched from a name-only spec (CLI,
    pipeline JSON) where no caller-supplied feature matrix exists, while
    keeping runs reproducible.
    """
    rng = np.random.default_rng(seed)
    return rng.normal(size=(graph.num_vertices, int(dims)))


class FeaturePropagation(SubgraphProgram):
    """K-hop mean feature aggregation with vector vertex values.

    Parameters
    ----------
    features:
        Global ``(|V|, d)`` feature matrix; each worker slices its rows.
    hops:
        Number of propagation rounds (supersteps).
    mix:
        Self-mixing coefficient in (0, 1]; 1.0 is pure neighbor mean.
    """

    mode = ACCUMULATE
    dtype = np.float64
    name = "FeatProp"

    def __init__(self, features: np.ndarray, hops: int = 2, mix: float = 0.5):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a (|V|, d) matrix")
        if hops < 1:
            raise ValueError("hops must be >= 1")
        if not 0 < mix <= 1:
            raise ValueError("mix must be in (0, 1]")
        self.features = features
        self.hops = int(hops)
        self.mix = float(mix)

    def initial_values(self, local: LocalSubgraph) -> np.ndarray:
        """Each worker holds the feature rows of its local vertices."""
        return self.features[local.global_ids].copy()

    def compute(
        self, local: LocalSubgraph, values: np.ndarray, active, superstep: int = 0
    ) -> ComputeResult:
        """Partial = Σ over local in-edges of X[src]/outdeg(src)."""
        partials = np.zeros_like(values)
        src, dst = local.src, local.dst
        work = float(src.size + local.num_vertices)
        if src.size:
            share = values / local.out_fanout()[0][:, None]
            # np.add.at stays: np.bincount takes 1-D weights only.
            np.add.at(partials, dst, share[src])
        send = np.abs(partials).sum(axis=1) > 0.0
        return ComputeResult(changed=send, work_units=work, partials=partials)

    def apply(self, local: LocalSubgraph, values: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """Mix the aggregated neighborhood into the current features."""
        return (1.0 - self.mix) * values + self.mix * sums

    def has_converged(self, superstep: int, global_delta: float) -> bool:
        """Fixed hop budget, like a GNN's layer count."""
        return superstep + 1 >= self.hops


def feature_propagation_reference(
    graph: Graph, features: np.ndarray, hops: int = 2, mix: float = 0.5
) -> np.ndarray:
    """Sequential K-hop propagation matching :class:`FeaturePropagation`."""
    x = np.asarray(features, dtype=np.float64).copy()
    outdeg = graph.out_degrees().astype(np.float64)
    safe = np.maximum(outdeg, 1.0)
    for _ in range(hops):
        sums = np.zeros_like(x)
        contrib = x[graph.src] / safe[graph.src][:, None]
        np.add.at(sums, graph.dst, contrib)
        x = (1.0 - mix) * x + mix * sums
    return x
