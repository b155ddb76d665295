"""``pagerank-rmat17``: PageRank on a power-law RMAT graph against scipy.

One op is ``apps.pagerank.pagerank(rmat_graph(17, 8), EngineOptions())``
at tol 1e-8 (about 76 iterations).  The scipy side builds the CSR
transition matrix from the same edge list and runs the same number of
power iterations.  This is the paper's iterative workload: warm step-1 /
step-2 kernels on a skewed row distribution, one cold plan build per
solve.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from common import MIN_OPS, SETUP_REPEATS, Gate, LayerTable, SpMVReplay, Tracer, timed, traced_spmv_iteration
from probes import fill_missing_layers
from stats import median, quartiles

DAMPING = 0.85
TOL = 1e-8
VALUE_TOL = 1e-12


def scipy_pagerank(graph, iterations: int) -> np.ndarray:
    """Transition build plus ``iterations`` power iterations in scipy."""
    rows, cols, n = graph.rows, graph.cols, graph.n_rows
    out_degree = np.bincount(rows, minlength=n).astype(np.float64)
    inverse = np.zeros(n)
    np.divide(1.0, out_degree, out=inverse, where=out_degree > 0)
    transition = sp.csr_matrix((inverse[rows], (cols, rows)), shape=(n, n))
    ranks = np.full(n, 1.0 / n)
    for _ in range(iterations):
        ranks = DAMPING * (transition @ ranks) + (1.0 - DAMPING) / n
    return ranks


class PageRankWorkload:
    name = "pagerank-rmat17"

    def __init__(self, seed: int, toy: bool, gate: Gate):
        from repro.generators import rmat_graph

        self.gate = gate
        self.graph = rmat_graph(10 if toy else 17, 8, seed=seed)
        self.n = self.graph.n_rows
        self.x_bytes = self.n * 8
        # The reference solve fixes the iteration count both sides run
        # and the ranks every later solve must reproduce bit for bit.
        reference = self._solve()
        self.iterations = reference.iterations
        self.ranks = reference.ranks.copy()
        self._check_scipy(self.ranks, self.scipy_solve(self.iterations), "reference solve")
        self.one_step = self.scipy_solve(1)

    def _solve(self, max_iterations: int = 100):
        from repro.api import EngineOptions
        from repro.apps.pagerank import pagerank

        return pagerank(
            self.graph, EngineOptions(), damping=DAMPING, tol=TOL, max_iterations=max_iterations
        )

    def scipy_solve(self, iterations: int) -> np.ndarray:
        return scipy_pagerank(self.graph, iterations)

    def _check_scipy(self, ranks, scipy_ranks, what: str) -> bool:
        return self.gate.check(
            bool(np.max(np.abs(ranks - scipy_ranks)) <= VALUE_TOL),
            f"{what}: ranks differ from scipy by more than {VALUE_TOL}",
        )

    def _check_solve(self, result, scipy_ranks) -> None:
        ranks = self.gate.tamper(result.ranks)
        self.gate.check(
            result.iterations == self.iterations and np.array_equal(ranks, self.ranks),
            "ranks not identical across solves",
        )
        self._check_scipy(ranks, scipy_ranks, "solve")

    def measure(self, seconds: float) -> tuple:
        """End-to-end pass: set-up, then engine/scipy solve pairs."""
        setups = []
        for _ in range(SETUP_REPEATS):
            result, took = timed(self._solve, 1)
            self._check_scipy(self.gate.tamper(result.ranks), self.one_step, "one-iteration solve")
            setups.append(took)
        ratios, scipy_ms = [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(ratios) < MIN_OPS:
            # A solve is several times longer than its scipy twin, so the
            # twin runs on both sides of it and their mean normalises it.
            scipy_ranks, before_s = timed(self.scipy_solve, self.iterations)
            result, engine_s = timed(self._solve)
            _, after_s = timed(self.scipy_solve, self.iterations)
            self._check_solve(result, scipy_ranks)
            scipy_s = (before_s + after_s) / 2
            ratios.append(engine_s / scipy_s)
            scipy_ms.append(scipy_s * 1e3)
        return {"setup_s": median(setups), "op_ratio": median(ratios)}, {
            "setup_samples_s": setups,
            "ops": len(ratios),
            "op_ratio_quartiles": quartiles(ratios),
            "iterations": self.iterations,
            "normaliser_scipy_solve_ms": median(scipy_ms),
        }

    def trace(self, seconds: float, tracer: Tracer, table: LayerTable) -> dict:
        """Traced pass: per solve, time the transition build, the solve
        and scipy, then replay every iteration layer by layer next to
        two whole engine runs on the same iterate."""
        from repro.api import create_engine
        from repro.apps.pagerank import stochastic_matrix

        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or tracer.op == 0:
            with tracer.span("op"):
                with tracer.span("pagerank.stochastic_matrix") as rec:
                    transition = stochastic_matrix(self.graph)
                transition_s = rec[3] - rec[2]
                with tracer.span("pagerank.solve") as rec:
                    result = self._solve()
                solve_s = rec[3] - rec[2]
                with tracer.span("scipy.op") as rec:
                    scipy_ranks = self.scipy_solve(self.iterations)
                self._check_solve(result, scipy_ranks)
                table.add("baseline.scipy_op_ms", (rec[3] - rec[2]) * 1e3)
                table.add("pagerank.transition_ms", transition_s * 1e3)
                table.add("pagerank.iterations", result.iterations)
                table.add("pagerank.iteration_ms", (solve_s - transition_s) / result.iterations * 1e3)
                replay = SpMVReplay(tracer, table)
                run_on, run_off = create_engine(), create_engine(telemetry=False)
                x = np.full(self.n, 1.0 / self.n)
                for it in range(self.iterations):
                    y = traced_spmv_iteration(
                        replay, run_on, run_off, transition, x, it % 2 == 0, self.gate, table
                    )
                    x = DAMPING * y + (1.0 - DAMPING) / self.n
                self.gate.check(np.array_equal(x, self.ranks), "replayed iterate differs from the solve")
            tracer.op += 1
        fill_missing_layers(tracer, table, transition, self.gate)
        return {"ops": tracer.op}
