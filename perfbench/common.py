"""Pieces every workload shares: the correctness gate, the span recorder,
the SpMV layer replay and the per-layer metric table.

The engine is always reached through its public surface with default
options (``create_engine()`` / ``EngineOptions()``); the layer replay
calls the same public functions the engine's ``run`` calls, in the same
order, with the benchmark's own spans around each call.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from stats import median

#: Fresh set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Ops measured even when ``--seconds`` runs out first (toy runs).
MIN_OPS = 3

#: Per-layer metrics printed by ``--trace 1``: name -> unit.  A layer a
#: workload does not exercise reports 0 with a sample count of 0.
PER_LAYER_UNITS = {
    "validation.validate_us": "us",
    "plan.build_ms": "ms",
    "plan.symbolic_ms": "ms",
    "plan.lookup_us": "us",
    "plan.intermediate_records": "count",
    "plan.stripes": "count",
    "step1.ms": "ms",
    "step1.records": "count",
    "traffic.bytes_computed": "B",
    "step2.merge_ms": "ms",
    "step2.scatter_ms": "ms",
    "step2.records_merged": "count",
    "engine.run_ms": "ms",
    "engine.report_us": "us",
    "engine.unattributed_ms": "ms",
    "telemetry.overhead_us": "us",
    "pagerank.iterations": "count",
    "pagerank.transition_ms": "ms",
    "pagerank.iteration_ms": "ms",
    "serving.register_ms": "ms",
    "serving.queued_ms": "ms",
    "serving.batch_mean": "count",
    "serving.execute_ms": "ms",
    "serving.overhead_ms": "ms",
    "serving.shed": "count",
    "serving.latency_median_ms": "ms",
    "serving.latency_tail_ms": "ms",
    "spgemm.plan_build_ms": "ms",
    "spgemm.products_ms": "ms",
    "spgemm.merge_ms": "ms",
    "spgemm.warm_ms": "ms",
    "spgemm.fresh_ms": "ms",
    "spgemm.partial_records": "count",
    "spgemm.output_nnz": "count",
    "baseline.scipy_op_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Span names of the layer calls a replay makes (children of ``replay``).
SPMV_LAYER_SPANS = (
    "validate_inputs",
    "engine.plan",
    "plan.step2_symbolic",
    "Step1Engine.run_planned",
    "backend.merge_accumulate_plan",
    "backend.scatter_dense_plan",
    "plan.report",
)


class Gate:
    """Counts checked results; any failed check makes the run incorrect.

    With ``perturb`` set, :meth:`tamper` corrupts every engine result
    before it is checked, so the self-test can prove the gate bites.
    """

    def __init__(self, perturb: bool = False):
        self.perturb = perturb
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def tamper(self, values: np.ndarray) -> np.ndarray:
        if not self.perturb or values.size == 0:
            return values
        values = np.array(values, dtype=np.float64, copy=True)
        values.flat[0] += 1e-9 + abs(values.flat[0]) * 1e-6
        return values

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = what
        return ok


def csr(matrix) -> sp.csr_matrix:
    """scipy CSR of a repro RM-COO matrix (COO -> CSR conversion)."""
    return sp.csr_matrix(
        (matrix.vals, (matrix.rows, matrix.cols)), shape=(matrix.n_rows, matrix.n_cols)
    )


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans: name, kind, start, end, parent index, op id."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = 0

    @contextmanager
    def span(self, name: str, kind: str = ""):
        record = [name, kind, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def children_sum(self, index: int) -> float:
        """Seconds covered by the direct children of span ``index``."""
        return sum(r[3] - r[2] for r in self.spans[index + 1 :] if r[4] == index)

    def self_times(self) -> dict:
        """Median self time (ms) and count per span name."""
        covered = [0.0] * len(self.spans)
        for r in self.spans:
            if r[4] >= 0:
                covered[r[4]] += r[3] - r[2]
        by_name = {}
        for i, r in enumerate(self.spans):
            key = f"{r[0]}[{r[1]}]" if r[1] else r[0]
            by_name.setdefault(key, []).append(r[3] - r[2] - covered[i])
        return {
            key: {"n": len(v), "self_ms": round(median(v) * 1e3, 6)}
            for key, v in sorted(by_name.items())
        }

    def records(self) -> list:
        return [
            {"name": r[0], "kind": r[1], "start": r[2], "end": r[3], "parent": r[4], "op": r[5]}
            for r in self.spans
        ]


class LayerTable:
    """Per-layer samples, reduced to one median per metric at the end."""

    def __init__(self):
        self.samples = {name: [] for name in PER_LAYER_UNITS}
        self._reduced = {}
        self._unattributed = {}

    def add_iteration(self, op: int, on_s: float, off_s: float, covered_s: float, replay_s: float) -> None:
        """One replay next to whole runs with telemetry on and off.

        The replay carries no telemetry, so the telemetry-off run minus
        the replay's layer spans is the remainder nobody accounts for,
        and on minus off is telemetry's cost.
        """
        remainder_ms = (off_s - covered_s) * 1e3
        self.add("engine.run_ms", on_s * 1e3)
        self.add("engine.unattributed_ms", remainder_ms)
        self.add("telemetry.overhead_us", (on_s - off_s) * 1e6)
        self.add("trace.overhead_pct", 100.0 * (replay_s - covered_s) / off_s)
        self._unattributed.setdefault(op, []).append(remainder_ms)

    def unattributed_per_op(self) -> list:
        """Median unattributed remainder (ms) of each op, in op order."""
        return [round(median(v), 6) for _, v in sorted(self._unattributed.items())]

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(float(value))

    def extend(self, name: str, values) -> None:
        self.samples[name].extend(float(v) for v in values)

    def set(self, name: str, value: float, samples: int) -> None:
        """Record a statistic already reduced over ``samples`` samples."""
        self._reduced[name] = (float(value), samples)

    def metrics(self) -> tuple:
        """``(metrics, sample_counts)`` in the printed format."""
        metrics, counts = {}, {}
        for name, unit in PER_LAYER_UNITS.items():
            values = self.samples[name]
            value, counts[name] = self._reduced.get(
                name, (median(values) if values else 0.0, len(values))
            )
            metrics[name] = {"value": value, "unit": unit}
        return metrics, counts


class SpMVReplay:
    """Replays ``TwoStepEngine.run`` layer by layer on one fresh engine.

    ``engine`` is used only for its plan cache, configuration and
    backend; step 1 goes through a public ``Step1Engine`` over the same
    backend, with this replay's own workspace.
    """

    def __init__(self, tracer: Tracer, table: LayerTable):
        from repro.api import create_engine
        from repro.core.plan import Workspace
        from repro.core.step1 import Step1Engine

        self.tracer = tracer
        self.table = table
        self.engine = create_engine()
        self.step1 = Step1Engine(self.engine.config, backend=self.engine.backend)
        self.workspace = Workspace()
        self.cold = True
        self._bytes = None

    def run(self, matrix, x: np.ndarray) -> tuple:
        """One traced replay.

        Returns:
            ``(y, seconds covered by the layer spans, replay span seconds)``.
        """
        from repro.faults.validation import validate_inputs

        tracer, engine, backend = self.tracer, self.engine, self.engine.backend
        kind = "build" if self.cold else "lookup"
        index = len(tracer.spans)
        with tracer.span("replay") as root:
            with tracer.span("validate_inputs"):
                xv, _ = validate_inputs(matrix, x)
            with tracer.span("engine.plan", kind):
                plan = engine.plan(matrix)
            with tracer.span("plan.step2_symbolic", kind):
                symbolic = plan.step2_symbolic(engine.config.n_cores)
            with tracer.span("Step1Engine.run_planned"):
                lists = self.step1.run_planned(plan, xv, workspace=self.workspace)
            with tracer.span("backend.merge_accumulate_plan"):
                merged = backend.merge_accumulate_plan(symbolic, lists, workspace=self.workspace)
            with tracer.span("backend.scatter_dense_plan"):
                y = backend.scatter_dense_plan(symbolic, merged)
            with tracer.span("plan.report"):
                plan.traffic_ledger(engine.config)
                plan.step1_stats()
                plan.step2_stats()
        covered = tracer.children_sum(index)
        self._record(plan, symbolic, lists, merged, xv, y, index)
        self.cold = False
        return y, covered, root[3] - root[2]

    def _record(self, plan, symbolic, lists, merged, x, y, index) -> None:
        spans = self.tracer.spans[index + 1 : index + 1 + len(SPMV_LAYER_SPANS)]
        took = {r[0]: r[3] - r[2] for r in spans}
        t = self.table
        t.add("validation.validate_us", took["validate_inputs"] * 1e6)
        if self.cold:
            t.add("plan.build_ms", took["engine.plan"] * 1e3)
            t.add("plan.symbolic_ms", took["plan.step2_symbolic"] * 1e3)
        else:
            t.add("plan.lookup_us", took["engine.plan"] * 1e6)
        t.add("step1.ms", took["Step1Engine.run_planned"] * 1e3)
        t.add("step2.merge_ms", took["backend.merge_accumulate_plan"] * 1e3)
        t.add("step2.scatter_ms", took["backend.scatter_dense_plan"] * 1e3)
        t.add("engine.report_us", took["plan.report"] * 1e6)
        if self._bytes is None:
            # Bytes of every array crossing the three kernel boundaries.
            step1 = x.nbytes + sum(
                s.cols.nbytes + s.vals.nbytes + s.run_ids.nbytes + s.out_indices.nbytes
                for s in plan.stripes
            ) + sum(i.nbytes + v.nbytes for i, v in lists)
            merge = (
                sum(v.nbytes for _, v in lists)
                + symbolic.order.nbytes
                + symbolic.run_ids.nbytes
                + merged.nbytes
            )
            scatter = symbolic.merged_keys.nbytes + merged.nbytes + y.nbytes
            self._bytes = step1 + merge + scatter
            t.add("plan.intermediate_records", plan.intermediate_records)
            t.add("plan.stripes", len(plan.stripes))
            t.add("step1.records", sum(s.nnz for s in plan.stripes))
            t.add("step2.records_merged", symbolic.n_merged)
        t.add("traffic.bytes_computed", self._bytes)


def traced_spmv_iteration(replay: SpMVReplay, run_on, run_off, matrix, x, flip: bool, gate, table):
    """One interleaved iteration: the layer replay and two whole runs.

    ``run_on`` is a default engine and ``run_off`` the same with
    telemetry off (see :meth:`LayerTable.add_iteration`).  ``flip``
    alternates the order so neither side always runs second.

    Returns:
        The default engine's result vector.
    """
    tracer = replay.tracer
    out = {}

    def whole(engine, kind):
        with tracer.span("engine.run", kind) as rec:
            out[kind] = engine.run(matrix, x).y
        return rec[3] - rec[2]

    if flip:
        y_rep, covered, replay_s = replay.run(matrix, x)
        on_s, off_s = whole(run_on, "telemetry=on"), whole(run_off, "telemetry=off")
    else:
        off_s, on_s = whole(run_off, "telemetry=off"), whole(run_on, "telemetry=on")
        y_rep, covered, replay_s = replay.run(matrix, x)
    y_on = out["telemetry=on"]
    gate.check(
        np.array_equal(gate.tamper(y_rep), y_on) and np.array_equal(out["telemetry=off"], y_on),
        "layer replay differs from engine.run",
    )
    table.add_iteration(tracer.op, on_s, off_s, covered, replay_s)
    return y_on


def replay_spgemm(tracer: Tracer, engine, workspace, a, b, kind: str) -> tuple:
    """``engine.spgemm(a, b)`` replayed through its public layer calls.

    ``kind`` labels the ``plan.spgemm_plan`` span: ``build`` when ``b``
    is new to ``engine``, ``lookup`` otherwise.

    Returns:
        ``(c, seconds per layer span, replay span seconds, splan,
        bytes crossing the product and merge boundaries)``.
    """
    from repro.faults.validation import validate_matrix
    from repro.formats.coo import COOMatrix

    backend = engine.backend
    index = len(tracer.spans)
    with tracer.span("replay") as root:
        with tracer.span("validate_matrix"):
            validate_matrix(a)
            validate_matrix(b)
        with tracer.span("engine.plan", "lookup"):
            plan = engine.plan(a)
        with tracer.span("plan.spgemm_plan", kind):
            splan = plan.spgemm_plan(b)
        with tracer.span("backend.spgemm_products"):
            products = backend.spgemm_products(splan, b.vals, workspace=workspace)
        with tracer.span("backend.spgemm_merge"):
            merged = backend.spgemm_merge(splan, products, workspace=workspace)
        with tracer.span("result.assemble"):
            c = COOMatrix(
                a.n_rows, b.n_cols, splan.out_rows, splan.out_cols, np.asarray(merged, dtype=np.float64)
            )
    took = {r[0]: r[3] - r[2] for r in tracer.spans[index + 1 :] if r[4] == index}
    nbytes = (
        splan.gather_b.nbytes + splan.a_scale.nbytes + b.vals.nbytes + 2 * products.nbytes
        + splan.order.nbytes + splan.run_ids.nbytes + merged.nbytes
    )
    return c, took, root[3] - root[2], splan, nbytes


def matches_scipy(rows, cols, vals, reference) -> bool:
    """A product in RM-COO equals scipy's CSR ``reference`` in structure
    and within 1e-12 in values."""
    reference.sort_indices()
    ref_rows = np.repeat(np.arange(reference.shape[0]), np.diff(reference.indptr))
    return (
        np.array_equal(rows, ref_rows)
        and np.array_equal(cols, reference.indices)
        and bool(np.max(np.abs(vals - reference.data), initial=0.0) <= 1e-12)
    )
