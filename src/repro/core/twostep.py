"""The Two-Step SpMV engine (paper section 2).

Orchestrates 1-D column blocking, step 1 (partial SpMV per stripe), the
DRAM round trip of the intermediate vectors, and step 2 (PRaP multi-way
merge), producing the dense result plus a byte-accurate
:class:`~repro.memory.traffic.TrafficLedger` and cycle statistics.

The engine is *functional* -- the returned vector is bit-comparable to the
dense reference ``A @ x + y`` (up to float associativity) -- while the
instrumentation mirrors exactly what the accelerator would move off-chip,
including per-stripe format selection (CSR vs RM-COO for hypersparse
stripes) and optional VLDI compression of vector and matrix meta-data.

Matrix-side preparation (blocking, run structure, format choice, VLDI
bit counts, HDN tables, both steps' cycle statistics) is captured once
per matrix in an :class:`~repro.core.plan.ExecutionPlan` and cached, so
iterative callers pay only for the value datapath after the first run.
``run_many`` executes a whole block of right-hand sides against one plan,
sharing every gather-index computation and merge permutation across the
batch.

The inner kernels (stripe accumulation, merge, injection, VLDI size
accounting) are dispatched through an execution backend
(:mod:`repro.backends`): ``reference`` replays records one at a time,
``vectorized`` runs whole-array NumPy kernels, ``parallel`` shards the
vectorized kernels over a worker pool.  All produce bit-identical
results and byte-identical ledgers; only wall-clock speed differs.  On
the default configuration (vectorized backend, fused step 2, no
interleave check) both steps run instead as one compiled row-major
pass over the plan (:meth:`VectorizedBackend.row_replay`), which
performs the same additions in the same order.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.api import SpGEMMResult, SpMVResult
from repro.backends import ExecutionBackend, VectorizedBackend, resolve_backend
from repro.core.config import TwoStepConfig
from repro.core.plan import (
    ExecutionPlan,
    SpGEMMPlan,
    Workspace,
    build_plan,
    config_fingerprint,
    resolve_fused_step2,
)
from repro.core.step1 import IntermediateVector, Step1Engine, Step1Stats
from repro.core.step2 import Step2Engine, Step2Stats
from repro.faults.errors import ConfigurationError
from repro.faults.report import FaultReport, collect_faults
from repro.faults.validation import (
    resolve_strict_validate,
    validate_inputs,
    validate_matrix,
)
from repro.formats.coo import COOMatrix
from repro.formats.hypersparse import StripeFormat
from repro.memory.traffic import TrafficLedger
from repro.telemetry import (
    MetricsRegistry,
    TelemetryReport,
    metric_inc,
    resolve_telemetry,
    span,
    telemetry_scope,
    telemetry_session,
)


@dataclass
class TwoStepReport:
    """Everything measured during one Two-Step SpMV execution."""

    traffic: TrafficLedger
    step1: Step1Stats
    step2: Step2Stats
    n_stripes: int = 0
    intermediate_records: int = 0
    stripe_formats: list[StripeFormat] = field(default_factory=list)
    hdn_filter_bytes: int = 0
    backend: str = ""
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_build_s: float = 0.0
    batch_size: int = 1
    fused_step2: bool = False

    @property
    def total_cycles(self) -> float:
        """Step-1 plus step-2 cycles (sequential phases in plain Two-Step)."""
        return self.step1.cycles + self.step2.cycles

    def to_dict(self) -> dict:
        """Machine-readable form for benchmark output and logging.

        Enum members become their names and the ledger is flattened to its
        counters plus derived totals, so the dict round-trips through JSON.
        """
        traffic = asdict(self.traffic)
        traffic["payload_bytes"] = self.traffic.payload_bytes
        traffic["total_bytes"] = self.traffic.total_bytes
        return {
            "backend": self.backend,
            "n_stripes": self.n_stripes,
            "intermediate_records": self.intermediate_records,
            "stripe_formats": [fmt.name for fmt in self.stripe_formats],
            "hdn_filter_bytes": self.hdn_filter_bytes,
            "total_cycles": self.total_cycles,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "plan_build_s": self.plan_build_s,
            "batch_size": self.batch_size,
            "fused_step2": self.fused_step2,
            "step1": asdict(self.step1),
            "step2": asdict(self.step2),
            "traffic": traffic,
        }


@dataclass
class SpGEMMReport:
    """Everything measured during one engine SpGEMM execution."""

    backend: str = ""
    n_blocks: int = 0
    partial_records: int = 0
    output_records: int = 0
    compression: float = 1.0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    batch_size: int = 1

    def to_dict(self) -> dict:
        """Machine-readable form for benchmark output and logging."""
        return {
            "backend": self.backend,
            "n_blocks": self.n_blocks,
            "partial_records": self.partial_records,
            "output_records": self.output_records,
            "compression": self.compression,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "batch_size": self.batch_size,
        }


class TwoStepEngine:
    """Functional, instrumented Two-Step SpMV.

    Satisfies the :class:`repro.api.SpMVEngine` protocol.  The engine
    keeps an LRU cache of execution plans (capacity
    ``config.plan_cache``), so calling ``run`` repeatedly on the same
    matrix -- the shape of every iterative solver -- re-derives nothing
    matrix-sided after the first call.
    """

    def __init__(
        self,
        config: TwoStepConfig,
        backend: str | ExecutionBackend | None = None,
    ):
        """
        Args:
            config: Engine configuration.
            backend: Optional execution-backend override; defaults to
                ``config.backend`` (then ``REPRO_BACKEND``, then the
                package default).
        """
        self.config = config
        self.backend = resolve_backend(
            backend or config.backend,
            n_jobs=config.n_jobs,
            pool_kind=config.parallel_pool,
            max_retries=config.max_retries,
            task_timeout=config.task_timeout,
            min_parallel_nnz=config.min_parallel_nnz,
        )
        self._step1 = Step1Engine(config, backend=self.backend)
        self._step2 = Step2Engine(config, backend=self.backend)
        self._plans: OrderedDict[tuple, ExecutionPlan] = OrderedDict()
        # Tuned-profile auto-selection (config.tuning): the store of
        # persisted per-matrix profiles, child engines built from applied
        # profiles (keyed by their config fingerprint, sharing this
        # engine's lifetime metrics), and a bounded memo of per-matrix
        # decisions so the warm path costs one dict probe.
        self._tuner = None
        if config.tuning not in (None, "off"):
            from repro.autotune.profile import resolve_profile_store

            self._tuner = resolve_profile_store(config.tuning)
        self._tuned_engines: dict[str, "TwoStepEngine"] = {}
        self._tuned_decisions: OrderedDict[int, tuple] = OrderedDict()
        self._tuned_lock = threading.Lock()
        # One lock guards the plan cache AND its counters: engines are
        # shared across solver threads, and a torn hits/misses pair (or a
        # cache trimmed past capacity) is exactly the race the lock kills.
        self._plan_lock = threading.Lock()
        self._plan_hits = 0
        self._plan_misses = 0
        self._plan_build_s = 0.0
        self._lifetime_metrics = MetricsRegistry()
        # Per-thread scratch buffers for the fused path: solver threads
        # share engines, but a workspace is single-threaded state.
        self._workspaces = threading.local()

    def _workspace(self) -> Workspace:
        """This thread's reusable scratch-buffer workspace."""
        workspace = getattr(self._workspaces, "value", None)
        if workspace is None:
            workspace = Workspace()
            self._workspaces.value = workspace
        return workspace

    def plan(self, matrix: COOMatrix) -> ExecutionPlan:
        """The (cached) execution plan for ``matrix`` under this config.

        Plans are keyed by matrix identity plus the configuration
        fingerprint; the cached plan holds a strong reference to the
        matrix and lookup re-checks ``plan.matrix is matrix``, so a
        recycled ``id`` can never alias a different matrix.

        Args:
            matrix: Sparse matrix in RM-COO.

        Returns:
            The matrix's :class:`~repro.core.plan.ExecutionPlan`.
        """
        key = (id(matrix), config_fingerprint(self.config))
        with self._plan_lock:
            cached = self._plans.get(key)
            if cached is not None and cached.matrix is matrix:
                self._plans.move_to_end(key)
                self._plan_hits += 1
                metric_inc(
                    "spmv_plan_cache_events_total",
                    labels={"outcome": "hit"},
                    help="Plan-cache lookups by outcome",
                )
                return cached
            self._plan_misses += 1
            metric_inc(
                "spmv_plan_cache_events_total",
                labels={"outcome": "miss"},
                help="Plan-cache lookups by outcome",
            )
            with span("plan.build", matrix_id=id(matrix)):
                plan = build_plan(matrix, self.config, self.backend)
            self._plan_build_s += plan.build_s
            if self.config.plan_cache > 0:
                self._plans[key] = plan
                self._plans.move_to_end(key)
                while len(self._plans) > self.config.plan_cache:
                    self._plans.popitem(last=False)
            return plan

    @property
    def plan_cache_stats(self) -> dict:
        """Cache counters: hits, misses, currently cached plans, build seconds."""
        with self._plan_lock:
            return {
                "hits": self._plan_hits,
                "misses": self._plan_misses,
                "size": len(self._plans),
                "build_s": self._plan_build_s,
            }

    def clear_plan_cache(self) -> None:
        """Drop every cached plan (counters are kept)."""
        with self._plan_lock:
            self._plans.clear()

    def forget(self, matrix: COOMatrix) -> int:
        """Drop the cached plan(s) for one matrix; returns how many.

        The serving layer's registry calls this when it evicts a matrix
        under LRU pressure, so the engine's plan cache cannot pin an
        unregistered matrix (and its symbolic structures) in memory.
        """
        with self._plan_lock:
            stale = [
                key
                for key, plan in self._plans.items()
                if plan.matrix is matrix
            ]
            for key in stale:
                del self._plans[key]
        dropped = len(stale)
        with self._tuned_lock:
            entry = self._tuned_decisions.get(id(matrix))
            if entry is not None and entry[0] is matrix:
                del self._tuned_decisions[id(matrix)]
        for child in self._tuned_engines.values():
            dropped += child.forget(matrix)
        return dropped

    #: Per-matrix tuning decisions memoized (LRU); trimming only drops
    #: the memo -- the next run re-consults the store.
    _TUNED_DECISION_CAPACITY = 64

    def _tuned_delegate(self, matrix: COOMatrix) -> "TwoStepEngine | None":
        """The tuned child engine ``matrix``'s runs delegate to, or None.

        Warm path (matrix already decided): one dict probe plus an
        identity re-check -- no fingerprinting, no store I/O.  Cold path
        (first contact): fingerprint the matrix under a ``plan.tune``
        span, consult the store, and -- on a hit -- build (or reuse) a
        child engine from the profile-applied config.  The child shares
        this engine's lifetime metrics registry, so
        ``spmv_tuned_profile_*`` and the child's run counters surface on
        the parent's ``metrics()``.
        """
        if self._tuner is None:
            return None
        entry = self._tuned_decisions.get(id(matrix))
        if entry is not None and entry[0] is matrix:
            if entry[1] is not None:
                self._lifetime_metrics.inc(
                    "spmv_tuned_profile_applied_total",
                    help="Runs delegated to a tuned-profile engine",
                )
            return entry[1]
        with self._tuned_lock:
            entry = self._tuned_decisions.get(id(matrix))
            if entry is None or entry[0] is not matrix:
                entry = self._tune_decision(matrix)
                self._tuned_decisions[id(matrix)] = entry
                self._tuned_decisions.move_to_end(id(matrix))
                while len(self._tuned_decisions) > self._TUNED_DECISION_CAPACITY:
                    self._tuned_decisions.popitem(last=False)
        if entry[1] is not None:
            self._lifetime_metrics.inc(
                "spmv_tuned_profile_applied_total",
                help="Runs delegated to a tuned-profile engine",
            )
        return entry[1]

    def _tune_decision(self, matrix: COOMatrix) -> tuple:
        """``(matrix, delegate_or_None, profile_or_None)`` from the store."""
        from repro.autotune.profile import matrix_fingerprint, note_profile_applied

        with span("plan.tune", matrix_id=id(matrix)):
            fingerprint = matrix_fingerprint(matrix)
            profile = self._tuner.lookup(fingerprint)
        if profile is None:
            self._lifetime_metrics.inc(
                "spmv_tuned_profile_misses_total",
                help="Tuned-profile store lookups that found nothing",
            )
            return (matrix, None, None)
        self._lifetime_metrics.inc(
            "spmv_tuned_profile_hits_total",
            help="Tuned-profile store lookups that found a profile",
        )
        tuned_config = profile.apply(self.config)
        key = config_fingerprint(tuned_config)
        child = self._tuned_engines.get(key)
        if child is None:
            child = TwoStepEngine(tuned_config)
            child._lifetime_metrics = self._lifetime_metrics
            self._tuned_engines[key] = child
        note_profile_applied(profile)
        return (matrix, child, profile)

    def tuning_profile(self, matrix: COOMatrix):
        """The :class:`~repro.autotune.profile.TuningProfile` applied to
        ``matrix``'s runs, or None (no store, miss, or not yet run)."""
        entry = self._tuned_decisions.get(id(matrix))
        if entry is not None and entry[0] is matrix:
            return entry[2]
        return None

    def tuning_stats(self) -> dict:
        """Tuning state for stats surfaces (serving ``/stats``, CLI)."""
        counters = {
            name: self._lifetime_metrics.total(f"spmv_tuned_profile_{name}_total")
            for name in ("hits", "misses", "applied")
        }
        with self._tuned_lock:
            tuned = sum(
                1 for entry in self._tuned_decisions.values() if entry[1] is not None
            )
            decided = len(self._tuned_decisions)
        return {
            "mode": self.config.tuning or "off",
            "store": self._tuner.describe() if self._tuner is not None else None,
            "matrices_decided": decided,
            "matrices_tuned": tuned,
            **counters,
        }

    def run(
        self,
        matrix: COOMatrix,
        x: np.ndarray,
        y: np.ndarray | None = None,
        verify: bool = False,
    ) -> SpMVResult:
        """Execute ``y = A x + y``.

        Args:
            matrix: Sparse matrix in RM-COO.
            x: Dense source vector (length ``n_cols``).
            y: Optional dense accumuland (length ``n_rows``).
            verify: When True, check the result against the dense
                reference and record the outcome in the returned
                :class:`~repro.api.SpMVResult`.  The dense product is
                cached per ``(matrix, x)``, so verifying every iteration
                of a fixed-point solver costs one dense SpMV, not N.

        Returns:
            :class:`~repro.api.SpMVResult`; unpacks as ``(result, report)``.
            ``result.faults`` records any retries, worker respawns or
            sequential fallbacks the supervised backends performed.

        Raises:
            InvalidMatrixError: The matrix violates the input contract.
            InvalidVectorError: ``x`` or ``y`` violates the contract.
            ShardFailedError: A parallel shard failed even after the
                sequential fallback (the run cannot be completed).
        """
        delegate = self._tuned_delegate(matrix)
        if delegate is not None:
            return delegate.run(matrix, x, y=y, verify=verify)
        start = time.perf_counter()
        strict = resolve_strict_validate(self.config.strict_validate)
        x, y = validate_inputs(matrix, x, y=y, strict=strict)
        faults = FaultReport(validated=True, strict_validate=strict)
        fused = resolve_fused_step2(self.config.fused_step2)
        session = self._open_session()
        with telemetry_scope(session):
            with span("spmv.run", backend=self.backend.name, batch=1):
                with collect_faults(faults):
                    plan = self.plan(matrix)
                    result = self._row_replay(plan, x, y, fused)
                    kernels = "c"
                    if result is None:
                        result = self._staged(plan, x, y, fused)
                        kernels = self._staged_tier()
        report = self._report(plan, batch=1, fused=fused)
        verified = None
        if verify:
            base = reference_spmv_cached(matrix, x)
            reference = base if y is None else base + np.asarray(y, dtype=np.float64)
            verified = bool(np.allclose(result, reference))
        faults.elapsed_s = time.perf_counter() - start
        wall = time.perf_counter() - start
        return SpMVResult(
            y=result,
            report=report,
            verified=verified,
            wall_time_s=wall,
            faults=faults,
            telemetry=self._publish_telemetry(session, plan, report, wall, kernels),
        )

    def run_many(
        self,
        matrix: COOMatrix,
        X: np.ndarray,
        Y: np.ndarray | None = None,
        verify: bool = False,
    ) -> SpMVResult:
        """Execute ``Y = A X + Y`` for a block of right-hand sides.

        One execution plan, one set of gather indices and one merge
        permutation serve every column; only the value datapath scales
        with the batch.  Column ``j`` of the result is bit-identical to
        ``run(matrix, X[:, j], y=Y[:, j])``.

        Args:
            matrix: Sparse matrix in RM-COO.
            X: Dense source block, shape ``(n_cols, k)``.  A 1-D vector
                of length ``n_cols`` is accepted as a batch of one and
                normalized to ``(n_cols, 1)``; transposed blocks and
                wrong-length 1-D operands raise a
                :class:`~repro.faults.errors.ConfigurationError` naming
                the expected layout.
            Y: Optional dense accumuland block, shape ``(n_rows, k)``
                (1-D of length ``n_rows`` normalized likewise).
            verify: Check every column against the (cached) dense
                reference.

        Returns:
            :class:`~repro.api.SpMVResult` whose ``y`` has shape
            ``(n_rows, k)``; the report's traffic ledger charges the
            matrix and intermediate-index streams once for the whole
            batch.
        """
        delegate = self._tuned_delegate(matrix)
        if delegate is not None:
            return delegate.run_many(matrix, X, Y=Y, verify=verify)
        start = time.perf_counter()
        strict = resolve_strict_validate(self.config.strict_validate)
        X, Y = validate_inputs(matrix, X, y=Y, strict=strict, batch=True)
        k = X.shape[1]
        faults = FaultReport(validated=True, strict_validate=strict)
        fused = resolve_fused_step2(self.config.fused_step2)
        session = self._open_session()
        with telemetry_scope(session):
            with span("spmv.run", backend=self.backend.name, batch=k):
                with collect_faults(faults):
                    plan = self.plan(matrix)
                    result = self._row_replay(plan, X, Y, fused)
                    kernels = "c"
                    if result is None:
                        result = self._staged_batch(plan, X, Y, fused)
                        kernels = self._staged_tier()
        report = self._report(plan, batch=max(k, 1), fused=fused)
        verified = None
        if verify:
            verified = True
            for j in range(k):
                base = reference_spmv_cached(matrix, X[:, j])
                reference = base if Y is None else base + Y[:, j]
                verified = verified and bool(np.allclose(result[:, j], reference))
        faults.elapsed_s = time.perf_counter() - start
        wall = time.perf_counter() - start
        return SpMVResult(
            y=result,
            report=report,
            verified=verified,
            wall_time_s=wall,
            faults=faults,
            telemetry=self._publish_telemetry(session, plan, report, wall, kernels),
        )

    def _row_replay(self, plan: ExecutionPlan, X, Y, fused: bool):
        """Both stages as the backend's compiled row-major pass, or None.

        Applies to the vectorized backend with fused step 2 and no
        store-queue interleave check; it needs neither the step-2
        symbolic structure nor the workspace.  None also when the
        kernel cannot be compiled on this host.
        """
        if (
            not fused
            or self.config.check_interleave
            or self.backend.name != VectorizedBackend.name
        ):
            return None
        return self.backend.row_replay(plan, X, Y)

    def _staged_tier(self) -> str:
        """The kernel tier label of every path but the row replay."""
        if self.backend.name == VectorizedBackend.name:
            return "numpy"
        return self.backend.kernel_tier

    def _staged(self, plan: ExecutionPlan, x, y, fused: bool) -> np.ndarray:
        """``run``'s NumPy stages: step 1 per stripe, then the merge."""
        symbolic = plan.step2_symbolic(self.config.n_cores) if fused else None
        workspace = self._workspace() if fused else None
        with span("step1", n_stripes=len(plan.stripes)):
            lists = self._step1.run_planned(plan, x, workspace=workspace)
        with span("step2", n_lists=len(lists)):
            if fused:
                return self._step2.run_lists_plan(
                    symbolic, lists, y=y, workspace=workspace
                )
            return self._step2.run_lists(lists, plan.n_rows, y=y)

    def _staged_batch(self, plan: ExecutionPlan, X, Y, fused: bool) -> np.ndarray:
        """``run_many``'s NumPy stages over a ``(n_cols, k)`` block."""
        k = X.shape[1]
        symbolic = plan.step2_symbolic(self.config.n_cores) if fused else None
        workspace = self._workspace() if fused else None
        with span("step1", n_stripes=len(plan.stripes)):
            lists = self._step1.run_planned_batch(plan, X)
        with span("step2", n_lists=len(lists)):
            if fused:
                return self._step2.run_batch_plan(
                    symbolic, lists, k, Y=Y, workspace=workspace
                )
            return self._step2.run_batch(lists, plan.n_rows, k, Y=Y)

    def spgemm(
        self,
        a: COOMatrix,
        b: COOMatrix,
        verify: bool = False,
    ) -> SpGEMMResult:
        """Execute ``C = A @ B`` on the multi-way merge substrate.

        Rides the same machinery as SpMV: ``A``'s cached
        :class:`~repro.core.plan.ExecutionPlan` supplies the column
        blocking, and a :class:`~repro.core.plan.SpGEMMPlan` (cached on
        the plan per right operand) supplies the symbolic structure.
        On the vectorized backend with the C kernel loaded, that plan is
        a slot map built by one compiled symbolic pass and each product
        is one compiled pass over it (span ``spgemm.replay``); elsewhere
        the backend's partial products and stable merge run over the
        staged structure.  Warm replays are argsort-free.  Results are
        bit-identical across both paths, every backend and the row-wise
        Gustavson :func:`repro.core.spgemm.spgemm`: all feed each output
        cell its contributions in ascending inner-index order and
        accumulate them with the same sequential stream-order addition,
        seeded with the first.

        Args:
            a: Left operand (``m x k``) in RM-COO.
            b: Right operand (``k x n``) in RM-COO.
            verify: When True, check ``C`` against the dense product
                (small matrices only) and record the outcome.

        Returns:
            :class:`~repro.api.SpGEMMResult`; unpacks as ``(c, report)``.

        Raises:
            ConfigurationError: Inner dimensions differ.
            InvalidMatrixError: An operand violates the input contract.
            ShardFailedError: A parallel shard failed even after the
                sequential fallback.
        """
        start = time.perf_counter()
        strict = resolve_strict_validate(self.config.strict_validate)
        validate_matrix(a, strict=strict)
        validate_matrix(b, strict=strict)
        if a.n_cols != b.n_rows:
            raise ConfigurationError(
                f"spgemm inner dimensions differ: A is {a.n_rows}x{a.n_cols}, "
                f"B is {b.n_rows}x{b.n_cols}"
            )
        faults = FaultReport(validated=True, strict_validate=strict)
        session = self._open_session()
        with telemetry_scope(session):
            with span("spgemm.run", backend=self.backend.name):
                with collect_faults(faults):
                    plan = self.plan(a)
                    kernel = self.backend.spgemm_kernel()
                    splan = plan.spgemm_plan(b, kernel=kernel)
                    if kernel is not None and splan.slot_map is not None:
                        with span(
                            "spgemm.replay",
                            records=splan.total_records,
                            n_merged=splan.n_merged,
                        ):
                            merged = kernel.spgemm(splan.slot_map, b.vals, splan.n_merged)
                        kernels = "c"
                    else:
                        merged = self._staged_spgemm(splan, b)
                        kernels = self._staged_tier()
        c = COOMatrix(
            a.n_rows,
            b.n_cols,
            splan.out_rows,
            splan.out_cols,
            np.asarray(merged, dtype=np.float64),
        )
        cache = self.plan_cache_stats
        report = SpGEMMReport(
            backend=self.backend.name,
            n_blocks=splan.n_blocks,
            partial_records=splan.total_records,
            output_records=splan.n_merged,
            compression=splan.compression,
            plan_cache_hits=cache["hits"],
            plan_cache_misses=cache["misses"],
        )
        verified = None
        if verify:
            dense = a.to_dense() @ b.to_dense()
            verified = bool(np.allclose(c.to_dense(), dense))
        faults.elapsed_s = time.perf_counter() - start
        wall = time.perf_counter() - start
        return SpGEMMResult(
            c=c,
            report=report,
            verified=verified,
            wall_time_s=wall,
            faults=faults,
            telemetry=self._publish_spgemm_telemetry(session, report, wall, kernels),
        )

    def _staged_spgemm(self, splan: SpGEMMPlan, b: COOMatrix) -> np.ndarray:
        """``spgemm``'s backend stages: partial products, then the merge."""
        workspace = self._workspace()
        with span("spgemm.products", records=splan.total_records):
            products = self.backend.spgemm_products(splan, b.vals, workspace=workspace)
        with span("spgemm.merge", n_merged=splan.n_merged):
            return self.backend.spgemm_merge(splan, products, workspace=workspace)

    def run_spgemm_many(
        self,
        a: COOMatrix,
        bs,
        verify: bool = False,
    ) -> list:
        """Execute ``C_i = A @ B_i`` for a sequence of right operands.

        ``A`` is planned once (subsequent lookups are plan-cache hits)
        and each ``B_i``'s SpGEMM symbolic structure is cached on the
        plan, so repeated batches over the same operands replay the pure
        value datapath.

        Args:
            a: Shared left operand in RM-COO.
            bs: Iterable of right operands.
            verify: Check every product against the dense reference.

        Returns:
            One :class:`~repro.api.SpGEMMResult` per right operand, in
            input order.
        """
        return [self.spgemm(a, b, verify=verify) for b in bs]

    def _publish_spgemm_telemetry(
        self, session, report: SpGEMMReport, wall_s: float, kernels: str
    ) -> TelemetryReport | None:
        """Snapshot one SpGEMM run's telemetry into the lifetime registry."""
        if session is None:
            return None
        metrics = session.metrics
        metrics.observe(
            "spgemm_run_seconds", wall_s, help="Wall-clock seconds per SpGEMM run"
        )
        metrics.inc(
            "spgemm_partial_records_total",
            report.partial_records,
            help="SpGEMM partial-product records expanded",
        )
        metrics.inc(
            "spgemm_output_records_total",
            report.output_records,
            help="SpGEMM output records after merge accumulation",
        )
        metrics.inc(
            "spgemm_backend_runs_total",
            labels={"backend": self.backend.name, "kernels": kernels},
            help="SpGEMM runs, by requested backend and executing kernel tier",
        )
        telemetry = TelemetryReport(
            spans=session.tracer.finished(), metrics=metrics
        )
        self._lifetime_metrics.merge(metrics)
        return telemetry

    def _report(
        self, plan: ExecutionPlan, batch: int, fused: bool = False
    ) -> TwoStepReport:
        """Assemble a report from the plan's precomputed templates."""
        cache = self.plan_cache_stats
        return TwoStepReport(
            fused_step2=fused,
            traffic=plan.traffic_ledger(self.config, batch=batch),
            step1=plan.step1_stats(),
            step2=plan.step2_stats(),
            n_stripes=len(plan.stripes),
            intermediate_records=plan.intermediate_records,
            stripe_formats=list(plan.stripe_formats),
            hdn_filter_bytes=plan.hdn_filter_bytes,
            backend=self.backend.name,
            plan_cache_hits=cache["hits"],
            plan_cache_misses=cache["misses"],
            plan_build_s=cache["build_s"],
            batch_size=batch,
        )

    def _open_session(self):
        """A fresh telemetry session, or None when telemetry is off."""
        if not resolve_telemetry(self.config.telemetry):
            return None
        return telemetry_session()

    def _publish_telemetry(
        self,
        session,
        plan: ExecutionPlan,
        report: TwoStepReport,
        wall_s: float,
        kernels: str,
    ) -> TelemetryReport | None:
        """Snapshot one run's telemetry and fold it into the lifetime registry.

        Derived metrics (per-stream bytes, shard imbalance, VLDI density)
        come from the already-final report/plan, so publishing them can
        never perturb the measured execution.
        """
        if session is None:
            return None
        metrics = session.metrics
        for stream, nbytes in report.traffic.breakdown().items():
            metrics.inc(
                "spmv_stream_bytes_total",
                nbytes,
                labels={"stream": stream},
                help="Off-chip bytes moved, by traffic stream",
            )
        per_stripe = report.step1.per_stripe_nnz
        if per_stripe:
            mean = sum(per_stripe) / len(per_stripe)
            metrics.set(
                "spmv_shard_imbalance_ratio",
                (max(per_stripe) / mean) if mean else 0.0,
                help="Max/mean intermediate records across stripes",
            )
        if plan.intermediate_records:
            total_bits = sum(sp.iv_index_bits for sp in plan.stripes)
            metrics.set(
                "spmv_vldi_bits_per_index",
                total_bits / plan.intermediate_records,
                help="Encoded bits per intermediate index (VLDI or fixed)",
            )
        metrics.observe(
            "spmv_run_seconds", wall_s, help="Wall-clock seconds per engine run"
        )
        metrics.inc(
            "spmv_backend_runs_total",
            labels={"backend": self.backend.name, "kernels": kernels},
            help="Engine runs, by requested backend and executing kernel tier",
        )
        telemetry = TelemetryReport(
            spans=session.tracer.finished(), metrics=metrics
        )
        self._lifetime_metrics.merge(metrics)
        return telemetry

    def metrics(self) -> MetricsRegistry:
        """Engine-lifetime metrics: every telemetry-enabled run merged."""
        return self._lifetime_metrics


def reference_spmv(
    matrix: COOMatrix, x: np.ndarray, y: np.ndarray | None = None
) -> np.ndarray:
    """Dense ground-truth ``y = A x + y`` for verification."""
    return matrix.spmv(x, y)


#: Cached dense references, keyed by matrix identity + source-vector bytes.
_REFERENCE_CACHE: OrderedDict[tuple, tuple] = OrderedDict()
_REFERENCE_CACHE_CAPACITY = 16


def reference_spmv_cached(matrix: COOMatrix, x: np.ndarray) -> np.ndarray:
    """Dense ``A @ x``, cached per ``(matrix, x)``.

    ``verify=True`` inside an iterative solver would otherwise recompute
    the same dense product every iteration.  Entries pin the matrix and
    a copy of ``x``, and a hit requires both identity of the matrix and
    equality of the vector, so hash collisions and recycled ids are
    harmless.  The returned array is marked read-only; add ``y`` with an
    out-of-place ``+``.

    Args:
        matrix: Sparse matrix in RM-COO.
        x: Dense source vector.

    Returns:
        Read-only dense ``float64`` product ``A @ x``.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    key = (id(matrix), hash(x.tobytes()))
    entry = _REFERENCE_CACHE.get(key)
    if entry is not None:
        cached_matrix, cached_x, base = entry
        if cached_matrix is matrix and np.array_equal(cached_x, x):
            _REFERENCE_CACHE.move_to_end(key)
            return base
    base = matrix.spmv(x)
    base.flags.writeable = False
    _REFERENCE_CACHE[key] = (matrix, x.copy(), base)
    _REFERENCE_CACHE.move_to_end(key)
    while len(_REFERENCE_CACHE) > _REFERENCE_CACHE_CAPACITY:
        _REFERENCE_CACHE.popitem(last=False)
    return base


def clear_reference_cache() -> None:
    """Empty the dense-reference cache (mainly for tests)."""
    _REFERENCE_CACHE.clear()
