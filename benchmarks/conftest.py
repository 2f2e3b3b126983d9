"""Benchmark harness configuration.

Every benchmark regenerates one paper artifact (table or figure),
prints it, and archives the rendered text under ``benchmarks/out/`` so
EXPERIMENTS.md can quote it.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — stand-in graph scale (default 0.5; the full
  DESIGN.md configuration is 1.0).
* ``REPRO_BENCH_FULL=1`` — use the paper's full worker sweeps for
  Figures 2–3 instead of the reduced default grid.
"""

import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.tables345 import run_tables345

OUT_DIR = Path(__file__).parent / "out"


def _bench_config() -> ExperimentConfig:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
    cfg = ExperimentConfig(scale=scale)
    if os.environ.get("REPRO_BENCH_FULL", "0") != "1":
        cfg.figure_workers = {
            "usa-road": [4, 8, 16],
            "livejournal": [4, 8, 16],
            "friendster": [8, 16, 32],
            "twitter": [8, 16, 32],
        }
        cfg.pagerank_iters = 10
    return cfg


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return _bench_config()


@pytest.fixture(scope="session")
def tables345_data(config):
    """Tables III/IV/V share one set of partition + CC runs."""
    return run_tables345(config)


@pytest.fixture(scope="session")
def artifact_sink():
    """Write a rendered artifact to benchmarks/out/<name>.txt and echo it."""

    def save(name: str, text: str) -> None:
        path = OUT_DIR / f"{name}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
        print()
        print(text)

    return save
