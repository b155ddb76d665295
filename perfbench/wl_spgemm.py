"""``spgemm-er50k``: ``engine.spgemm`` against scipy ``A @ B``.

One op is a cycle of four products with A = ER 50k d=4.  Three replay
the same B0; the fourth uses a B whose structure has never been seen,
so its SpGEMM plan is built cold.  The scipy side does the same four
products, including the COO -> CSR conversion of each fresh B.  The mix
of replays and fresh operands means a change that speeds replays by
making plan builds dearer shows up.
"""

from __future__ import annotations

import time

import numpy as np

from common import MIN_OPS, SETUP_REPEATS, Gate, LayerTable, Tracer, csr, matches_scipy, replay_spgemm, timed
from probes import fill_missing_layers
from stats import median, quartiles

WARM_PER_CYCLE = 3


class SpGEMMWorkload:
    name = "spgemm-er50k"

    def __init__(self, seed: int, toy: bool, gate: Gate):
        from repro.api import create_engine

        self.gate = gate
        self.seed = seed
        self.n = 2_000 if toy else 50_000
        self.x_bytes = self.n * 8
        self.a = self._graph(0)
        self.b0 = self._graph(1)
        self.a_csr, self.b0_csr = csr(self.a), csr(self.b0)
        self.fresh_count = 0
        self.c0 = create_engine().spgemm(self.a, self.b0).c
        self._check_scipy(self.c0, self.a_csr @ self.b0_csr, "reference product")

    def _graph(self, stream: int):
        from repro.generators import erdos_renyi_graph

        seed = int(np.random.SeedSequence([self.seed, stream]).generate_state(1)[0])
        return erdos_renyi_graph(self.n, 4, seed=seed)

    def fresh_b(self):
        """A right operand with a structure no earlier product has used."""
        self.fresh_count += 1
        return self._graph(1 + self.fresh_count)

    def _check_scipy(self, c, reference, what: str) -> bool:
        return self.gate.check(
            matches_scipy(c.rows, c.cols, self.gate.tamper(c.vals), reference),
            f"{what}: differs from scipy A @ B",
        )

    def _check_warm(self, c) -> bool:
        return self.gate.check(
            np.array_equal(c.rows, self.c0.rows)
            and np.array_equal(c.cols, self.c0.cols)
            and np.array_equal(self.gate.tamper(c.vals), self.c0.vals),
            "warm replay differs from the first product",
        )

    def _scipy_product(self, b, fresh: bool):
        b_csr = csr(b) if fresh else self.b0_csr
        return self.a_csr @ b_csr

    def _setup_once(self) -> float:
        """Fresh engine to first correct product (plans for A and B0)."""
        from repro.api import create_engine

        t0 = time.perf_counter()
        c = create_engine().spgemm(self.a, self.b0).c
        took = time.perf_counter() - t0
        self._check_warm(c)
        return took

    def measure(self, seconds: float) -> tuple:
        from repro.api import create_engine

        setups = [self._setup_once() for _ in range(SETUP_REPEATS)]
        engine = create_engine()
        self._check_warm(engine.spgemm(self.a, self.b0).c)
        ratios, scipy_ms = [], []
        deadline = time.perf_counter() + seconds
        cycle = 0
        while time.perf_counter() < deadline or len(ratios) < MIN_OPS:
            operands = [(self.b0, False)] * WARM_PER_CYCLE + [(self.fresh_b(), True)]
            engine_times, scipy_times = [], []
            for i, (b, fresh) in enumerate(operands):
                # Each product is paired with its scipy twin, and the
                # order within the pair alternates from product to product.
                if (cycle * len(operands) + i) % 2 == 0:
                    result, engine_s = timed(engine.spgemm, self.a, b)
                    reference, scipy_s = timed(self._scipy_product, b, fresh)
                else:
                    reference, scipy_s = timed(self._scipy_product, b, fresh)
                    result, engine_s = timed(engine.spgemm, self.a, b)
                if fresh:
                    self._check_scipy(result.c, reference, "fresh product")
                else:
                    self._check_warm(result.c)
                engine_times.append(engine_s)
                scipy_times.append(scipy_s)
            ratios.append(sum(engine_times) / sum(scipy_times))
            scipy_ms.append(sum(scipy_times) * 1e3)
            cycle += 1
        return {"setup_s": median(setups), "op_ratio": median(ratios)}, {
            "setup_samples_s": setups,
            "cycles": cycle,
            "op_ratio_quartiles": quartiles(ratios),
            "normaliser_scipy_cycle_ms": median(scipy_ms),
            "output_nnz": int(self.c0.nnz),
        }

    def trace(self, seconds: float, tracer: Tracer, table: LayerTable) -> dict:
        """Traced pass: per cycle, a cold plan build for A, then every
        product replayed layer by layer next to two whole
        ``engine.spgemm`` calls (telemetry on and off) and scipy."""
        from repro.api import create_engine
        from repro.core.plan import Workspace

        replay_engine, run_on, run_off = create_engine(), create_engine(), create_engine(telemetry=False)
        workspace = Workspace()
        for engine in (replay_engine, run_on, run_off):
            engine.spgemm(self.a, self.b0)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or tracer.op == 0:
            operands = [(self.b0, "warm")] * WARM_PER_CYCLE + [(self.fresh_b(), "fresh")]
            cold_engine = create_engine()
            with tracer.span("op"):
                with tracer.span("engine.plan", "build") as rec:
                    plan = cold_engine.plan(self.a)
                table.add("plan.build_ms", (rec[3] - rec[2]) * 1e3)
                table.add("plan.intermediate_records", plan.intermediate_records)
                table.add("plan.stripes", len(plan.stripes))
                scipy_s = 0.0
                for i, (b, kind) in enumerate(operands):
                    whole = {}

                    def run(engine, label):
                        with tracer.span("engine.spgemm", f"{kind},{label}") as rec:
                            whole[label] = engine.spgemm(self.a, b).c
                        return rec[3] - rec[2]

                    plan_kind = "build" if kind == "fresh" else "lookup"
                    if i % 2 == 0:
                        c, took, replay_s, splan, nbytes = replay_spgemm(tracer, replay_engine, workspace, self.a, b, plan_kind)
                        on_s, off_s = run(run_on, "telemetry=on"), run(run_off, "telemetry=off")
                    else:
                        off_s, on_s = run(run_off, "telemetry=off"), run(run_on, "telemetry=on")
                        c, took, replay_s, splan, nbytes = replay_spgemm(tracer, replay_engine, workspace, self.a, b, plan_kind)
                    with tracer.span("scipy.op", kind) as rec:
                        reference = self._scipy_product(b, kind == "fresh")
                    scipy_s += rec[3] - rec[2]
                    c_on = whole["telemetry=on"]
                    self.gate.check(
                        np.array_equal(self.gate.tamper(c.vals), c_on.vals)
                        and np.array_equal(whole["telemetry=off"].vals, c_on.vals),
                        "layer replay differs from engine.spgemm",
                    )
                    if kind == "fresh":
                        self._check_scipy(c_on, reference, "fresh product")
                    else:
                        self._check_warm(c_on)
                    covered = sum(took.values())
                    table.add("validation.validate_us", took["validate_matrix"] * 1e6)
                    table.add("plan.lookup_us", took["engine.plan"] * 1e6)
                    if kind == "fresh":
                        table.add("spgemm.plan_build_ms", took["plan.spgemm_plan"] * 1e3)
                    table.add("spgemm.products_ms", took["backend.spgemm_products"] * 1e3)
                    table.add("spgemm.merge_ms", took["backend.spgemm_merge"] * 1e3)
                    table.add("engine.report_us", took["result.assemble"] * 1e6)
                    table.add("traffic.bytes_computed", nbytes)
                    table.add("spgemm.partial_records", splan.total_records)
                    table.add("spgemm.output_nnz", splan.n_merged)
                    table.add(f"spgemm.{kind}_ms", on_s * 1e3)
                    table.add_iteration(tracer.op, on_s, off_s, covered, replay_s)
                table.add("baseline.scipy_op_ms", scipy_s * 1e3)
            tracer.op += 1
        fill_missing_layers(tracer, table, self.a, self.gate)
        return {"ops": tracer.op}
