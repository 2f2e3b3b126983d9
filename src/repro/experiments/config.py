"""Shared experiment configuration.

The paper's evaluation matrix (Section V-A): four graphs, six partition
algorithms inside the subgraph-centric framework, plus Galois and
Blogel; Tables III–V partition USARoad/LiveJournal/Friendster/Twitter
into 12/12/32/32 subgraphs; Figure 2 sweeps 4–24 workers on LiveJournal
and 24–48 on Twitter/Friendster; Figure 3 sweeps 4–24 on USARoad.

We keep the paper's worker counts and shrink the *graphs* (DESIGN.md
§3).  ``scale`` multiplies stand-in sizes; the ``REPRO_SCALE`` and
``REPRO_QUICK`` environment variables let CI and the benchmark harness
trade fidelity for speed without touching code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List

from ..bsp import CostModel
from ..graph import Graph, paper_graph_suite
from ..frameworks import (
    BlogelFramework,
    Framework,
    SubgraphCentricFramework,
    VertexCentricFramework,
)

__all__ = [
    "ExperimentConfig",
    "default_config",
    "PAPER_METHOD_SPECS",
    "POWER_LAW_GRAPHS",
    "ROAD_GRAPH",
]

#: (display name, registry spec) for the paper's six partition algorithms;
#: instances are created through :data:`repro.pipeline.registries.PARTITIONERS`
#: so experiment sweeps use exactly the same factories as the CLI.
PAPER_METHOD_SPECS = (
    ("EBV", "ebv"),
    ("Ginger", "ginger"),
    ("DBH", "dbh"),
    ("CVC", "cvc"),
    ("NE", "ne"),
    ("METIS", "metis"),
)

POWER_LAW_GRAPHS = ("livejournal", "twitter", "friendster")
ROAD_GRAPH = "usa-road"


@dataclass
class ExperimentConfig:
    """Everything an experiment driver needs, in one place."""

    scale: float = 1.0
    seed: int = 7
    pagerank_iters: int = 20
    cost_model: CostModel = field(default_factory=CostModel)
    #: Table III–V subgraph counts per graph (paper: 12/12/32/32).
    table_workers: Dict[str, int] = field(
        default_factory=lambda: {
            "usa-road": 12,
            "livejournal": 12,
            "friendster": 32,
            "twitter": 32,
        }
    )
    #: Figure 2/3 worker sweeps per graph.
    figure_workers: Dict[str, List[int]] = field(
        default_factory=lambda: {
            "usa-road": [4, 8, 12, 16, 20, 24],
            "livejournal": [4, 8, 12, 16, 20, 24],
            "friendster": [24, 32, 40, 48],
            "twitter": [24, 32, 40, 48],
        }
    )
    _graphs: Dict[str, Graph] = field(default_factory=dict, repr=False)
    _frameworks: List[Framework] = field(default_factory=list, repr=False)

    def graphs(self) -> Dict[str, Graph]:
        """The four dataset stand-ins (generated once, then cached)."""
        if not self._graphs:
            self._graphs = paper_graph_suite(scale=self.scale, seed=self.seed)
        return self._graphs

    def partitioners(self):
        """Fresh instances of the paper's six partition algorithms."""
        # Imported lazily: repro.pipeline resolves after the experiments
        # package during ``import repro``, and registry lookups only
        # happen at sweep time anyway.
        from ..pipeline.registries import PARTITIONERS

        return {
            display: PARTITIONERS.create(spec)
            for display, spec in PAPER_METHOD_SPECS
        }

    def frameworks(self) -> List[Framework]:
        """The eight systems of Figures 2–3 (six partitioners + 2 externals),
        built once, then cached: each system caches its partition per
        (graph, p), so every panel of a sweep shares it."""
        if not self._frameworks:
            options = dict(cost_model=self.cost_model, pagerank_iters=self.pagerank_iters)
            self._frameworks = [
                *(SubgraphCentricFramework(p, **options) for p in self.partitioners().values()),
                VertexCentricFramework(**options),
                BlogelFramework(**options),
            ]
        return self._frameworks


def default_config() -> ExperimentConfig:
    """Config honoring ``REPRO_SCALE`` (float) and ``REPRO_QUICK`` (0/1).

    Quick mode shrinks graphs and sweeps so the whole benchmark suite
    finishes in a couple of minutes; the full mode matches DESIGN.md.
    """
    scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    config = ExperimentConfig(scale=scale)
    if os.environ.get("REPRO_QUICK", "0") == "1":
        config.scale = min(scale, 0.25)
        config.figure_workers = {
            "usa-road": [4, 8, 16],
            "livejournal": [4, 8, 16],
            "friendster": [8, 16, 32],
            "twitter": [8, 16, 32],
        }
        config.pagerank_iters = 10
    return config
