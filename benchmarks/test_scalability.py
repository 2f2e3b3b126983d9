"""Bench A7 — partitioning-cost scaling in |E| and p.

EBV's cost is O(|E|·p) (one evaluation-function scan per edge): this
bench measures wall time across graph sizes and part counts and checks
the growth is at most mildly super-linear, i.e. the implementation has
no hidden quadratic term — the property that lets the paper call EBV
"highly scalable".

The tables are wall-clock and differ on every run, so they are written
to the git-ignored ``benchmarks/out/timings/``; the committed
``benchmarks/out/scalability_*.txt`` are one reference transcript and
are not rewritten.
"""

import time

from repro.graph import powerlaw_graph
from repro.partition import EBVPartitioner
from repro.tables import render_table


def test_scaling_in_edges(benchmark, artifact_sink):
    sizes = (1_000, 2_000, 4_000, 8_000)

    def sweep():
        rows = []
        for n in sizes:
            g = powerlaw_graph(n, eta=2.1, min_degree=4, seed=1)
            t0 = time.perf_counter()
            EBVPartitioner().partition(g, 8)
            dt = time.perf_counter() - t0
            rows.append((n, g.num_edges, dt))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = render_table(
        ["V", "E", "seconds"],
        [(n, m, f"{dt:.3f}") for n, m, dt in rows],
        title="Ablation A7 — EBV partition time vs graph size (p=8)",
    )
    artifact_sink("timings/scalability_edges", text)

    # Time per edge must stay within 4x of the smallest size's rate
    # (linear-ish scaling; generous bound for interpreter noise).
    rates = [dt / m for _, m, dt in rows]
    assert max(rates) < 4 * max(min(rates), 1e-9)


def test_scaling_in_parts(benchmark, artifact_sink):
    g = powerlaw_graph(4_000, eta=2.1, min_degree=4, seed=2)
    parts = (2, 4, 8, 16, 32)

    def sweep():
        rows = []
        for p in parts:
            t0 = time.perf_counter()
            EBVPartitioner().partition(g, p)
            rows.append((p, time.perf_counter() - t0))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = render_table(
        ["p", "seconds"],
        [(p, f"{dt:.3f}") for p, dt in rows],
        title=f"Ablation A7 — EBV partition time vs p (|E|={g.num_edges})",
    )
    artifact_sink("timings/scalability_parts", text)

    times = dict(rows)
    # Doubling p from 2 to 32 must not blow past the O(E·p) envelope by
    # much: per-edge work is one p-length argmin, so a 16x p increase
    # should cost well under 16x wall time (numpy amortizes the scan).
    assert times[32] < 16 * max(times[2], 1e-9)
