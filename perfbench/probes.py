"""Probes for the layers a workload's own ops never reach.

Every per-layer metric is printed by every workload.  Where a
workload's ops do not pass through a layer -- SpGEMM runs no SpMV
kernels, only the serving workload serves -- its traced pass ends by
measuring that layer once on the workload's own matrix:

* SpMV kernels: layer replays of ``A @ x``;
* ``apps.pagerank``: PageRank with the matrix as the adjacency;
* serving: one closed-loop block of every client against the matrix;
* SpGEMM: the matrix times an ER operand (d=2) with as many rows as the
  matrix has columns, once fresh, once replayed, once with a second
  fresh operand.

A probe's figures describe the layer on that matrix; the layer table in
``README.md`` says on which workload each layer matters.  Every probe
result is checked like an op's.
"""

from __future__ import annotations

import asyncio

import numpy as np

from common import LayerTable, SpMVReplay, Tracer, csr, matches_scipy, replay_spgemm

PROBE_REPLAYS = 5
PROBE_REQUESTS = 2

SPMV_KERNEL_METRICS = (
    "plan.symbolic_ms",
    "step1.ms",
    "step1.records",
    "step2.merge_ms",
    "step2.scatter_ms",
    "step2.records_merged",
)


def fill_missing_layers(tracer: Tracer, table: LayerTable, matrix, gate) -> None:
    """Probe, on ``matrix``, every layer group with no samples yet."""
    counts = table.metrics()[1]

    def missing(prefix: str) -> bool:
        return not any(n for name, n in counts.items() if name.startswith(prefix))

    with tracer.span("probe"):
        if not any(counts[name] for name in SPMV_KERNEL_METRICS):
            probe_spmv(tracer, table, matrix, gate)
        if missing("pagerank."):
            probe_pagerank(tracer, table, matrix, gate)
        if missing("serving."):
            asyncio.run(probe_serving(tracer, table, matrix, gate))
        if missing("spgemm."):
            probe_spgemm(tracer, table, matrix, gate)


def _vectors(matrix, count: int) -> list:
    rng = np.random.default_rng(matrix.nnz)
    return [rng.random(matrix.n_cols) for _ in range(count)]


def probe_spmv(tracer: Tracer, table: LayerTable, matrix, gate) -> None:
    """SpMV kernel layers of ``matrix @ x``; the other SpMV-path metrics
    stay with the workload's own ops."""
    from repro.api import create_engine

    probe_table = LayerTable()
    replay, engine = SpMVReplay(tracer, probe_table), create_engine()
    for x in _vectors(matrix, PROBE_REPLAYS):
        y, _, _ = replay.run(matrix, x)
        gate.check(np.array_equal(gate.tamper(y), engine.run(matrix, x).y), "probe replay differs from engine.run")
    for name in SPMV_KERNEL_METRICS:
        table.extend(name, probe_table.samples[name])


def probe_pagerank(tracer: Tracer, table: LayerTable, adjacency, gate) -> None:
    from repro.api import EngineOptions
    from repro.apps.pagerank import pagerank, stochastic_matrix
    from wl_pagerank import DAMPING, TOL, scipy_pagerank

    with tracer.span("pagerank.stochastic_matrix") as rec:
        stochastic_matrix(adjacency)
    transition_s = rec[3] - rec[2]
    with tracer.span("pagerank.solve") as rec:
        result = pagerank(adjacency, EngineOptions(), damping=DAMPING, tol=TOL)
    ranks = gate.tamper(result.ranks)
    gate.check(
        bool(np.max(np.abs(ranks - scipy_pagerank(adjacency, result.iterations))) <= 1e-12),
        "probe PageRank differs from scipy",
    )
    table.add("pagerank.iterations", result.iterations)
    table.add("pagerank.transition_ms", transition_s * 1e3)
    table.add("pagerank.iteration_ms", (rec[3] - rec[2] - transition_s) / result.iterations * 1e3)


async def probe_serving(tracer: Tracer, table: LayerTable, matrix, gate) -> None:
    from repro.api import create_engine
    from repro.serving import SpMVServer
    from wl_serve import CLIENTS, closed_loop, record_serving_block, record_serving_latency

    engine = create_engine()
    pool = _vectors(matrix, CLIENTS)
    expected = [engine.run(matrix, x).y for x in pool]
    server = SpMVServer()
    try:
        with tracer.span("server.register") as rec:
            fp = server.register(matrix)
        table.add("serving.register_ms", (rec[3] - rec[2]) * 1e3)
        with tracer.span("serving.block"):
            block = await closed_loop(server, fp, pool, PROBE_REQUESTS, 0)
    finally:
        await server.shutdown()
    for j, y in block["replies"]:
        gate.check(np.array_equal(gate.tamper(y), expected[j]), "probe served y differs from engine.run")
    k = max(1, round(float(np.mean(block["batch"]))))
    X = np.stack(pool[:k], axis=1)
    with tracer.span("engine.run_many", f"k={k}") as rec:
        engine.run_many(matrix, X)
    record_serving_block(table, block, rec[3] - rec[2])
    record_serving_latency(table, block["latency"])


def probe_spgemm(tracer: Tracer, table: LayerTable, a, gate) -> None:
    from repro.api import create_engine
    from repro.core.plan import Workspace
    from repro.generators import erdos_renyi_graph

    replay_engine, run_engine, workspace = create_engine(), create_engine(), Workspace()
    replay_engine.plan(a)
    b0, b1 = (erdos_renyi_graph(a.n_cols, 2, seed=a.nnz + i) for i in range(2))
    for b, kind in ((b0, "fresh"), (b0, "warm"), (b1, "fresh")):
        c, took, _, splan, _ = replay_spgemm(
            tracer, replay_engine, workspace, a, b, "build" if kind == "fresh" else "lookup"
        )
        with tracer.span("engine.spgemm", kind) as rec:
            whole = run_engine.spgemm(a, b).c
        gate.check(
            np.array_equal(gate.tamper(c.vals), whole.vals)
            and matches_scipy(whole.rows, whole.cols, whole.vals, csr(a) @ csr(b)),
            "probe SpGEMM differs from engine.spgemm or scipy",
        )
        if kind == "fresh":
            table.add("spgemm.plan_build_ms", took["plan.spgemm_plan"] * 1e3)
        table.add("spgemm.products_ms", took["backend.spgemm_products"] * 1e3)
        table.add("spgemm.merge_ms", took["backend.spgemm_merge"] * 1e3)
        table.add(f"spgemm.{kind}_ms", (rec[3] - rec[2]) * 1e3)
        table.add("spgemm.partial_records", splan.total_records)
        table.add("spgemm.output_nnz", splan.n_merged)
