#!/usr/bin/env python
"""Out-of-core streaming benchmark: peak memory and throughput vs in-memory.

Measures the ISSUE-4 acceptance property — partitioning from disk with
:func:`repro.stream.stream_partition` keeps peak memory bounded by
O(chunk + partitioner state), not O(|E|) — by running three scenarios
over the *same* generated edge set:

* ``inmem``       — ``read_edge_list`` then ``StreamingEBVPartitioner``
                    on the fully-loaded graph (the O(|E|) baseline);
* ``stream-text`` — out-of-core over the edge-list text file;
* ``stream-npy``  — out-of-core over the memory-mapped ``.npy`` array.

Each scenario executes in a **fresh subprocess** (this script re-invokes
itself with ``--scenario``), so both its ``tracemalloc`` traced peak
(deterministic, counts numpy + python allocations after interpreter
startup) and its OS peak RSS are isolated per scenario.  Results are
written to ``BENCH_stream.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_stream.py              # full suite
    PYTHONPATH=src python benchmarks/bench_stream.py --quick      # CI smoke
    PYTHONPATH=src python benchmarks/bench_stream.py --quick --check-memory 2.0

``--check-memory X`` exits nonzero unless the in-memory baseline's
traced peak is at least ``X``× every streaming scenario's traced peak —
the CI ``stream-smoke`` job runs it so a change that silently
materializes the edge list inside the "streaming" path fails the build.
The streaming assignments are additionally required to be byte-identical
to the in-memory partition (always enforced; ``--no-check-identical``
to skip).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

#: (mode, generator kwargs, parts, partitioner window, reader chunk).
#: The quick config is the CI acceptance graph: a ~400k-edge file
#: partitioned with an artificially small reader chunk.  Sized so the
#: in-memory baseline (int64 edge arrays since the block reader) is
#: >= 3x the streaming peaks, 1.5x clear of CI's ``--check-memory 2.0``.
CONFIGS = {
    "quick": dict(
        gen=dict(kind="powerlaw", vertices=39_000, min_degree=3, seed=42),
        parts=8, window=4096, reader_chunk=1024,
    ),
    "full": dict(
        gen=dict(kind="powerlaw", vertices=40_000, min_degree=3, seed=42),
        parts=16, window=4096, reader_chunk=4096,
    ),
}

SCENARIOS = ("inmem", "stream-text", "stream-npy")


def _run_scenario(scenario: str, workdir: str, parts: int, window: int,
                  reader_chunk: int) -> dict:
    """Child-process body: run one scenario under tracemalloc."""
    import tracemalloc

    from repro.graph import read_edge_list
    from repro.partition import StreamingEBVPartitioner
    from repro.stream import NpyEdgeStream, TextEdgeListStream, stream_partition

    text_path = os.path.join(workdir, "graph.txt")
    npy_path = os.path.join(workdir, "graph.npy")
    partitioner = StreamingEBVPartitioner(chunk_size=window)

    tracemalloc.start()
    t0 = time.perf_counter()
    if scenario == "inmem":
        graph = read_edge_list(text_path)
        result = partitioner.partition(graph, parts)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        num_edges = graph.num_edges
        result.edge_parts.tofile(os.path.join(workdir, "inmem_parts.bin"))
    else:
        if scenario == "stream-text":
            stream = TextEdgeListStream(text_path, chunk_size=reader_chunk)
            spill = os.path.join(workdir, "spill-text")
        else:
            stream = NpyEdgeStream(npy_path, chunk_size=reader_chunk)
            spill = os.path.join(workdir, "spill-npy")
        spilled = stream_partition(stream, partitioner, parts, spill, overwrite=True)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        num_edges = spilled.num_edges
    tracemalloc.stop()

    import resource

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KB elsewhere
        peak_rss_kb //= 1024
    return {
        "scenario": scenario,
        "seconds": seconds,
        "traced_peak_bytes": int(peak),
        "peak_rss_kb": peak_rss_kb,
        "num_edges": int(num_edges),
        "edges_per_second": num_edges / seconds if seconds > 0 else float("inf"),
    }


def _spawn_scenario(scenario: str, workdir: str, parts: int, window: int,
                    reader_chunk: int) -> dict:
    """Run one scenario in a fresh interpreter; parse its JSON report."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--scenario", scenario, "--workdir", workdir,
            "--parts", str(parts), "--window", str(window),
            "--reader-chunk", str(reader_chunk),
        ],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"scenario {scenario} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="~100k-edge graph for CI smoke runs")
    parser.add_argument("--out", type=Path, default=Path("BENCH_stream.json"))
    parser.add_argument("--workdir", default=None,
                        help="where to place the generated inputs and spills "
                        "(default: a fresh temp dir)")
    parser.add_argument("--check-memory", type=float, default=None, metavar="X",
                        help="exit 1 unless the in-memory traced peak is >= X "
                        "times every streaming scenario's traced peak")
    parser.add_argument("--no-check-identical", action="store_true",
                        help="skip the streaming==in-memory assignment check")
    # child-process mode
    parser.add_argument("--scenario", choices=SCENARIOS, help=argparse.SUPPRESS)
    parser.add_argument("--parts", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--window", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--reader-chunk", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.scenario:
        print(json.dumps(_run_scenario(
            args.scenario, args.workdir, args.parts, args.window,
            args.reader_chunk,
        )))
        return 0

    from repro.graph import generate_graph, write_edge_list
    from repro.stream import save_edge_npy

    config = CONFIGS["quick" if args.quick else "full"]
    if args.workdir is None:
        import tempfile

        tmp = tempfile.TemporaryDirectory(prefix="bench-stream-")
        workdir = tmp.name
    else:
        workdir = args.workdir
        os.makedirs(workdir, exist_ok=True)

    graph = generate_graph(**config["gen"])
    write_edge_list(graph, os.path.join(workdir, "graph.txt"))
    save_edge_npy(os.path.join(workdir, "graph.npy"), graph)
    print(f"graph: |V|={graph.num_vertices} |E|={graph.num_edges} "
          f"parts={config['parts']} window={config['window']} "
          f"reader_chunk={config['reader_chunk']}")

    records = {}
    for scenario in SCENARIOS:
        rec = _spawn_scenario(
            scenario, workdir, config["parts"], config["window"],
            config["reader_chunk"],
        )
        records[scenario] = rec
        print(f"{scenario:12s} {rec['seconds']:7.2f}s "
              f"traced_peak={rec['traced_peak_bytes'] / 1e6:7.2f}MB "
              f"peak_rss={rec['peak_rss_kb'] / 1024:7.1f}MB "
              f"{rec['edges_per_second']:9.0f} edges/s")

    identical = None
    if not args.no_check_identical:
        inmem = np.fromfile(os.path.join(workdir, "inmem_parts.bin"),
                            dtype=np.int64)
        identical = all(
            np.array_equal(
                inmem,
                np.fromfile(
                    os.path.join(workdir, f"spill-{tag}", "edge_parts.bin"),
                    dtype=np.int64,
                ),
            )
            for tag in ("text", "npy")
        )

    baseline = records["inmem"]["traced_peak_bytes"]
    ratios = {
        s: baseline / records[s]["traced_peak_bytes"]
        for s in ("stream-text", "stream-npy")
    }
    payload = {
        "benchmark": "bench_stream",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "graph": {
            **config["gen"],
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        },
        "parts": config["parts"],
        "window": config["window"],
        "reader_chunk": config["reader_chunk"],
        "results": records,
        "memory_ratio_vs_inmem": ratios,
        "streaming_identical_to_inmem": identical,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    for s, ratio in ratios.items():
        print(f"memory ratio inmem/{s}: {ratio:.2f}x")

    if identical is False:
        print("FAIL: streaming assignments differ from the in-memory "
              "partition", file=sys.stderr)
        return 1
    if args.check_memory is not None:
        slack = [s for s, r in ratios.items() if r < args.check_memory]
        if slack:
            for s in slack:
                print(f"FAIL: inmem traced peak is only {ratios[s]:.2f}x of "
                      f"{s} (required {args.check_memory:.2f}x)",
                      file=sys.stderr)
            return 1
        print(f"memory check passed (>= {args.check_memory:.2f}x everywhere)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
