"""``serve-er10k``: closed-loop serving of one ER 10k matrix against scipy.

An in-process ``SpMVServer`` (default ``BatchPolicy``) holds one
registered ER 10k d=3 matrix.  32 coroutine clients (= ``max_batch``)
each send their next single-vector ``submit`` only after their reply
arrives.  Serving blocks alternate with blocks of single-vector scipy
``A @ x`` on the same matrix, which normalise the block next to them.
Kernels are small here, so admission, queueing, batch formation,
validation and telemetry's fixed cost dominate.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from common import MIN_OPS, SETUP_REPEATS, Gate, LayerTable, SpMVReplay, Tracer, csr, traced_spmv_iteration
from probes import fill_missing_layers
from stats import median, quartiles, tail

CLIENTS = 32
POOL = 64
#: Requests each client sends per serving block: four full batches, about
#: 0.1 s, so the scipy block next to it sees the same host state.
BLOCK_REQUESTS = 4
TRACE_BLOCK_REQUESTS = 12
SCIPY_BLOCK = 40
REPLAYS_PER_OP = 8


async def closed_loop(server, fp: str, pool: list, requests: int, start: int) -> dict:
    """``CLIENTS`` clients each send ``requests`` single-vector submits,
    the next only after the previous reply.

    Returns:
        Per-request latency, queue wait and batch size, the shed count,
        the block's wall time, and ``(pool index, y)`` per reply.
    """
    from repro.faults.errors import OverloadedError

    block = {"latency": [], "queued": [], "batch": [], "shed": 0, "replies": []}

    async def client(cid: int) -> None:
        for sent in range(requests):
            j = (start + cid + CLIENTS * sent) % len(pool)
            t0 = time.perf_counter()
            try:
                result = await server.submit(fp, pool[j])
            except OverloadedError:
                block["shed"] += 1
                continue
            block["latency"].append(time.perf_counter() - t0)
            block["queued"].append(result.queued_s)
            block["batch"].append(result.batch_size)
            block["replies"].append((j, result.y))

    t0 = time.perf_counter()
    await asyncio.gather(*(client(c) for c in range(CLIENTS)))
    block["wall"] = time.perf_counter() - t0
    block["done"] = len(block["replies"])
    return block


def record_serving_block(table: LayerTable, block: dict, execute_s: float) -> None:
    """Serving metrics of one block; ``execute_s`` is ``run_many`` at its k."""
    table.add("serving.queued_ms", median(block["queued"]) * 1e3)
    table.add("serving.batch_mean", float(np.mean(block["batch"])))
    table.add("serving.execute_ms", execute_s * 1e3)
    table.add("serving.overhead_ms", (median(block["latency"]) - median(block["queued"]) - execute_s) * 1e3)
    table.add("serving.shed", block["shed"])


def record_serving_latency(table: LayerTable, latencies: list) -> float:
    """Median and tail of the same request latencies; returns the tail's percentile."""
    tail_s, tail_pct = tail(latencies)
    table.set("serving.latency_median_ms", median(latencies) * 1e3, len(latencies))
    table.set("serving.latency_tail_ms", tail_s * 1e3, len(latencies))
    return tail_pct


class ServeWorkload:
    name = "serve-er10k"

    def __init__(self, seed: int, toy: bool, gate: Gate):
        from repro.api import create_engine
        from repro.generators import erdos_renyi_graph

        self.gate = gate
        self.matrix = erdos_renyi_graph(1_000 if toy else 10_000, 3, seed=seed)
        self.x_bytes = self.matrix.n_cols * 8
        rng = np.random.default_rng(seed)
        self.pool = [rng.random(self.matrix.n_cols) for _ in range(POOL)]
        engine = create_engine()
        self.expected = [engine.run(self.matrix, x).y for x in self.pool]
        self.scipy_matrix = csr(self.matrix)
        for x, y in zip(self.pool, self.expected):
            gate.check(np.allclose(self.scipy_matrix @ x, y, rtol=1e-12, atol=0.0), "engine.run differs from scipy")

    def _check(self, j: int, y: np.ndarray) -> None:
        self.gate.check(np.array_equal(self.gate.tamper(y), self.expected[j]), "served y differs from engine.run")

    async def _serve(self, server, fp: str, requests: int, start: int) -> dict:
        """One closed-loop block; replies are checked after its wall time."""
        block = await closed_loop(server, fp, self.pool, requests, start)
        for j, y in block["replies"]:
            self._check(j, y)
        for _ in range(block["shed"]):
            self.gate.check(False, "request shed")
        return block

    def _scipy_block(self, start: int) -> list:
        """Seconds of each of ``SCIPY_BLOCK`` single-vector scipy products."""
        times = []
        for i in range(SCIPY_BLOCK):
            x = self.pool[(start + i) % POOL]
            t0 = time.perf_counter()
            self.scipy_matrix @ x
            times.append(time.perf_counter() - t0)
        return times

    async def _setup_once(self) -> float:
        """Fresh server to first correct reply: construction, register, serve."""
        from repro.serving import SpMVServer

        t0 = time.perf_counter()
        server = SpMVServer()
        fp = server.register(self.matrix)
        result = await server.submit(fp, self.pool[0])
        took = time.perf_counter() - t0
        self._check(0, result.y)
        await server.shutdown()
        return took

    def measure(self, seconds: float) -> tuple:
        return asyncio.run(self._measure(seconds))

    async def _measure(self, seconds: float) -> tuple:
        from repro.serving import SpMVServer

        setups = [await self._setup_once() for _ in range(SETUP_REPEATS)]
        server = SpMVServer()
        fp = server.register(self.matrix)
        try:
            await self._serve(server, fp, BLOCK_REQUESTS, 0)  # warm lane, thread and plan
            ratios, scipy_us, shed, done = [], [], 0, 0
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline or len(ratios) < MIN_OPS:
                if len(ratios) % 2 == 0:
                    block = await self._serve(server, fp, BLOCK_REQUESTS, len(ratios))
                    scipy_block = self._scipy_block(len(ratios))
                else:
                    scipy_block = self._scipy_block(len(ratios))
                    block = await self._serve(server, fp, BLOCK_REQUESTS, len(ratios))
                normaliser = median(scipy_block)
                ratios.append(block["wall"] / block["done"] / normaliser)
                scipy_us.append(normaliser * 1e6)
                shed += block["shed"]
                done += block["done"]
        finally:
            await server.shutdown()
        return {"setup_s": median(setups), "op_ratio": median(ratios)}, {
            "setup_samples_s": setups,
            "blocks": len(ratios),
            "op_ratio_quartiles": quartiles(ratios),
            "requests": done,
            "shed": shed,
            "normaliser_scipy_spmv_us": median(scipy_us),
        }

    def trace(self, seconds: float, tracer: Tracer, table: LayerTable) -> dict:
        info = asyncio.run(self._trace(seconds, tracer, table))
        fill_missing_layers(tracer, table, self.matrix, self.gate)
        return info

    async def _trace(self, seconds: float, tracer: Tracer, table: LayerTable) -> dict:
        """Traced pass: per op, a registration on a fresh server, a
        serving block, ``run_many`` at the block's mean batch width,
        scipy single-vector products, and layer replays next to whole
        runs on fresh engines."""
        from repro.api import create_engine
        from repro.serving import SpMVServer

        server = SpMVServer()
        fp = server.register(self.matrix)
        batch_engine = create_engine()
        latencies = []
        try:
            await self._serve(server, fp, BLOCK_REQUESTS, 0)
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline or tracer.op == 0:
                op = tracer.op
                with tracer.span("op"):
                    fresh = SpMVServer()
                    with tracer.span("server.register") as rec:
                        fresh.register(self.matrix)
                    table.add("serving.register_ms", (rec[3] - rec[2]) * 1e3)
                    await fresh.shutdown()
                    with tracer.span("serving.block"):
                        block = await self._serve(server, fp, TRACE_BLOCK_REQUESTS, op)
                    k = max(1, round(float(np.mean(block["batch"]))))
                    X = np.stack([self.pool[(op + j) % POOL] for j in range(k)], axis=1)
                    with tracer.span("engine.run_many", f"k={k}") as rec:
                        Y = batch_engine.run_many(self.matrix, X).y
                    execute_s = rec[3] - rec[2]
                    self.gate.check(
                        all(
                            np.array_equal(self.gate.tamper(Y[:, j]), self.expected[(op + j) % POOL])
                            for j in range(k)
                        ),
                        "run_many column differs from engine.run",
                    )
                    table.extend("baseline.scipy_op_ms", (t * 1e3 for t in self._scipy_block(op)))
                    replay = SpMVReplay(tracer, table)
                    run_on, run_off = create_engine(), create_engine(telemetry=False)
                    for i in range(REPLAYS_PER_OP):
                        j = (op + i) % POOL
                        y = traced_spmv_iteration(
                            replay, run_on, run_off, self.matrix, self.pool[j], i % 2 == 0, self.gate, table
                        )
                        self._check(j, y)
                    record_serving_block(table, block, execute_s)
                    latencies.extend(block["latency"])
                tracer.op += 1
        finally:
            await server.shutdown()
        tail_pct = record_serving_latency(table, latencies)
        return {"ops": tracer.op, "latency_tail_pct": tail_pct}
