"""Compiled native-kernel backend: JIT-fused plan-replay loops.

The warm plan-replay pipeline is a pure gather / accumulate / scatter
datapath over precomputed index structure (:class:`~repro.core.plan.
StripePlan` run offsets, the :class:`~repro.core.plan.Step2Symbolic`
merge permutation and scatter map).  This backend fuses each of those
kernels into a single ``@njit(cache=True)`` loop -- no per-call NumPy
dispatch, no intermediate ``products``/``ordered`` materialization --
with optional ``prange`` run-range parallelism for in-node scaling
(the software analogue of the paper's per-core merge partitioning, and
of the register-resident merge loops of "Binary Row Merging", see
PAPERS.md).

**Numba is an optional dependency.**  Detection is lazy and cached:

* available -- kernels compile on first use (per process, shared across
  backend instances), timed under a ``plan.jit_compile`` span with one
  ``spmv_native_compile_total`` increment per kernel, so cold-start
  cost is observable and excluded from steady-state claims.
* unavailable -- the backend degrades to the inherited
  :class:`~repro.backends.vectorized.VectorizedBackend` kernels with a
  single :class:`RuntimeWarning` per process (results stay correct and
  bit-identical; only speed is lost).  Requesting strict native
  execution (``NativeBackend(require=True)`` or
  ``REPRO_NATIVE_REQUIRE=1``) raises a
  :class:`~repro.faults.errors.ConfigurationError` instead.

**Bit-identity.**  Every fused loop replays the exact left-associated
stream-order addition of the NumPy kernels -- runs are contiguous, each
output element is seeded with its run's first record and accumulated
sequentially from there (so a run of ``-0.0`` stays ``-0.0``), and
``prange`` only distributes *whole runs* across threads, so no
reduction is ever re-associated (re-associating reductions are rejected
here exactly as ``reduceat`` was in the batched segment-sum kernel).
Numba compiles with ``fastmath`` off, so the generated code performs
IEEE-754 double adds in program order.  The differential suite
(``tests/test_native_backend.py``) enforces bit-identity against the
reference oracle across dtypes, ``p``, interleave modes, worker counts
and batch widths.
"""

from __future__ import annotations

import os
import threading
import time
import warnings

import numpy as np

from repro.backends.base import SparseVector
from repro.backends.vectorized import VectorizedBackend
from repro.telemetry.session import metric_inc, span

#: Strict-mode switch: a truthy value turns the missing-Numba fallback
#: into a :class:`~repro.faults.errors.ConfigurationError`.
NATIVE_REQUIRE_ENV_VAR = "REPRO_NATIVE_REQUIRE"

#: A truthy value makes the backend behave as if Numba were not
#: installed (fallback path), regardless of the actual environment --
#: the CI lever that keeps the fallback exercised, not skipped.
NATIVE_DISABLE_ENV_VAR = "REPRO_NATIVE_DISABLE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Cached probe result: ``None`` = not probed, ``False`` = unavailable,
#: otherwise the imported module.
_NUMBA_STATE = None

#: Compiled-kernel cache, keyed by the ``parallel`` flag; dispatchers
#: are process-wide so every backend instance shares one compilation.
_KERNELS: dict = {}
_KERNEL_LOCK = threading.Lock()

#: Wall-clock seconds spent compiling, keyed like :data:`_KERNELS`.
_COMPILE_S: dict = {}


def _import_numba():
    """Import hook, separated so tests can simulate a missing Numba."""
    import numba

    return numba


def _env_truthy(var: str) -> bool:
    return os.environ.get(var, "").strip().lower() in _TRUTHY


def numba_module():
    """The ``numba`` module, or None -- probed once per process."""
    global _NUMBA_STATE
    if _NUMBA_STATE is None:
        try:
            _NUMBA_STATE = _import_numba()
        except Exception:
            _NUMBA_STATE = False
    return _NUMBA_STATE or None


def numba_available() -> bool:
    """True when JIT kernels can run (Numba importable and not disabled)."""
    if _env_truthy(NATIVE_DISABLE_ENV_VAR):
        return False
    return numba_module() is not None


def reset_native_state() -> None:
    """Forget the probe result, warning latch and cached backend instances.

    Test hook: import-failure simulations monkeypatch
    :func:`_import_numba` and need the module-level caches cleared so
    the next :class:`NativeBackend` re-probes.
    """
    global _NUMBA_STATE
    _NUMBA_STATE = None
    NativeBackend._warned = False
    from repro import backends

    for key in [k for k in backends._INSTANCES if k and k[0] == NativeBackend.name]:
        del backends._INSTANCES[key]


def _build_kernels(numba, parallel: bool) -> dict:
    """Compile the fused plan-replay kernels (one set per process).

    Every loop accumulates each output run sequentially, seeded with its
    first record -- the same adds, in the same order and association, as
    the NumPy kernels (:func:`~repro.core.segsum.run_sum` and the
    segment sums) -- and parallelism only ever splits *between* runs, so
    outputs are bit-identical to them at any thread count.
    """
    njit = numba.njit
    prange = numba.prange if parallel else range

    # Runs are never empty.  Each is seeded with its first element, as
    # the adder chain and the merge root do: seeding with 0.0 would turn
    # a run of -0.0 into +0.0.

    @njit(cache=True, parallel=parallel)
    def stripe_spmv(cols, vals, x, run_starts, out):
        # Fused gather * multiply * run-segment sum: the vectorized
        # backend's `products` intermediate never exists.
        for r in prange(run_starts.size - 1):
            lo = run_starts[r]
            acc = vals[lo] * x[cols[lo]]
            for j in range(lo + 1, run_starts[r + 1]):
                acc += vals[j] * x[cols[j]]
            out[r] = acc

    @njit(cache=True, parallel=parallel)
    def stripe_spmv_batch(cols, vals, segments, run_starts, out):
        k = segments.shape[1]
        for r in prange(run_starts.size - 1):
            lo = run_starts[r]
            for c in range(k):
                acc = vals[lo] * segments[cols[lo], c]
                for j in range(lo + 1, run_starts[r + 1]):
                    acc += vals[j] * segments[cols[j], c]
                out[r, c] = acc

    @njit(cache=True, parallel=parallel)
    def merge_plan(values, order, run_starts, out):
        # Fused permutation gather + run-segment sum over the raw
        # concatenated value stream: `ordered` is never materialized.
        for r in prange(run_starts.size - 1):
            lo = run_starts[r]
            acc = values[order[lo]]
            for j in range(lo + 1, run_starts[r + 1]):
                acc += values[order[j]]
            out[r] = acc

    @njit(cache=True, parallel=parallel)
    def merge_plan_batch(values, order, run_starts, out):
        k = values.shape[1]
        for r in prange(run_starts.size - 1):
            lo = run_starts[r]
            for c in range(k):
                acc = values[order[lo], c]
                for j in range(lo + 1, run_starts[r + 1]):
                    acc += values[order[j], c]
                out[r, c] = acc

    @njit(cache=True, parallel=parallel)
    def gather_multiply(src, gather, scale, out):
        # SpGEMM partial products: elementwise, so parallel iterations
        # never interact and bit-identity is trivial.
        for i in prange(gather.size):
            out[i] = src[gather[i]] * scale[i]

    @njit(cache=True, parallel=parallel)
    def scatter(keys, values, out):
        # Keys are distinct, so parallel iterations never collide.
        for i in prange(keys.size):
            out[keys[i]] = values[i]

    @njit(cache=True, parallel=parallel)
    def inject(positions, sel, merged_vals, out):
        for i in prange(positions.size):
            out[positions[i]] = merged_vals[sel[i]]

    return {
        "stripe_spmv": stripe_spmv,
        "stripe_spmv_batch": stripe_spmv_batch,
        "merge_plan": merge_plan,
        "merge_plan_batch": merge_plan_batch,
        "gather_multiply": gather_multiply,
        "scatter": scatter,
        "inject": inject,
    }


def _warmup(kernels: dict) -> None:
    """Force compilation of every kernel on minimal typed inputs."""
    idx = np.zeros(1, dtype=np.int64)
    val = np.zeros(1, dtype=np.float64)
    val2 = np.zeros((1, 1), dtype=np.float64)
    starts = np.array([0, 1], dtype=np.int64)
    kernels["stripe_spmv"](idx, val, val.copy(), starts, val.copy())
    kernels["stripe_spmv_batch"](idx, val, val2, starts, val2.copy())
    kernels["merge_plan"](val, idx, starts, val.copy())
    kernels["merge_plan_batch"](val2, idx, starts, val2.copy())
    kernels["gather_multiply"](val, idx, val.copy(), val.copy())
    kernels["scatter"](idx, val, val.copy())
    kernels["inject"](idx, idx, val, val.copy())


class NativeBackend(VectorizedBackend):
    """JIT-compiled plan-replay kernels with graceful NumPy fallback.

    Inherits every kernel from :class:`VectorizedBackend` and overrides
    the warm plan-replay entry points with fused native loops when
    Numba is importable; otherwise it *is* the vectorized backend under
    another name (plus a one-time warning), so requesting ``native``
    never breaks a deployment.
    """

    name = "native"

    #: Process-wide warn-once latch for the missing-Numba fallback.
    _warned = False

    def __init__(self, n_jobs: int | None = None, require: bool | None = None):
        """
        Args:
            n_jobs: Threads for ``prange`` kernels; None resolves
                ``REPRO_JOBS`` then the CPU count.  1 compiles serial
                kernels (no threading layer involved at all).
            require: Raise :class:`~repro.faults.errors.
                ConfigurationError` instead of falling back when Numba
                is unavailable; None defers to ``REPRO_NATIVE_REQUIRE``,
                then False.
        """
        from repro.parallel.pool import default_jobs

        self.n_jobs = int(n_jobs) if n_jobs is not None else default_jobs()
        if self.n_jobs <= 0:
            from repro.faults.errors import ConfigurationError

            raise ConfigurationError("n_jobs must be positive")
        if require is None:
            require = _env_truthy(NATIVE_REQUIRE_ENV_VAR)
        self.jit_enabled = numba_available()
        if not self.jit_enabled:
            if require:
                from repro.faults.errors import ConfigurationError

                raise ConfigurationError(
                    "backend='native' requires Numba, which is not installed "
                    "(or is disabled via REPRO_NATIVE_DISABLE); install numba "
                    "or drop REPRO_NATIVE_REQUIRE to fall back to the "
                    "bit-identical vectorized kernels"
                )
            if not NativeBackend._warned:
                warnings.warn(
                    "backend='native' requested but Numba is unavailable; "
                    "falling back to the bit-identical vectorized NumPy "
                    "kernels (install numba for JIT-fused execution)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                NativeBackend._warned = True
        self._kernels = None

    # ------------------------------------------------------------------
    # Compilation management
    # ------------------------------------------------------------------

    @property
    def kernel_tier(self) -> str:
        """Which kernels actually execute: ``native-jit`` or the fallback."""
        return "native-jit" if self.jit_enabled else "numpy-fallback"

    @property
    def compile_s(self) -> float:
        """Wall-clock seconds this process spent compiling the kernels."""
        return float(_COMPILE_S.get(self.n_jobs > 1, 0.0))

    @property
    def compiled_kernels(self) -> int:
        """Number of fused kernels compiled for this backend's mode."""
        kernels = _KERNELS.get(self.n_jobs > 1)
        return len(kernels) if kernels else 0

    def _ensure_kernels(self):
        """The compiled kernel set, or None on the fallback path.

        Compilation happens once per process and ``parallel`` mode; the
        first caller pays it under a ``plan.jit_compile`` span (one
        ``spmv_native_compile_total`` increment per kernel) so the
        cold-start cost is attributed, amortized and excluded from
        steady-state measurements.
        """
        if not self.jit_enabled:
            return None
        if self._kernels is not None:
            return self._kernels
        parallel = self.n_jobs > 1
        with _KERNEL_LOCK:
            kernels = _KERNELS.get(parallel)
            if kernels is None:
                numba = numba_module()
                with span("plan.jit_compile", parallel=parallel, n_jobs=self.n_jobs):
                    start = time.perf_counter()
                    kernels = _build_kernels(numba, parallel)
                    _warmup(kernels)
                    _COMPILE_S[parallel] = time.perf_counter() - start
                for kernel_name in kernels:
                    metric_inc(
                        "spmv_native_compile_total",
                        labels={"kernel": kernel_name},
                        help="Native kernels JIT-compiled this process",
                    )
                _KERNELS[parallel] = kernels
        self._kernels = kernels
        return kernels

    def _set_threads(self) -> None:
        """Pin the prange thread count to ``n_jobs`` (best effort)."""
        if self.n_jobs <= 1:
            return
        numba = numba_module()
        try:
            limit = numba.config.NUMBA_NUM_THREADS
            numba.set_num_threads(max(1, min(self.n_jobs, limit)))
        except Exception:
            pass  # threading layer unavailable: kernels still run

    # ------------------------------------------------------------------
    # Fused plan-replay kernels
    # ------------------------------------------------------------------

    def stripe_spmv_plan(
        self, stripe, x_segment: np.ndarray, workspace=None
    ) -> SparseVector:
        kernels = self._ensure_kernels()
        if kernels is None or stripe.run_starts is None:
            return super().stripe_spmv_plan(stripe, x_segment, workspace=workspace)
        if stripe.vals.size == 0:
            return stripe.out_indices, np.empty(0, dtype=np.float64)
        x = np.ascontiguousarray(x_segment, dtype=np.float64)
        out = np.empty(stripe.n_runs, dtype=np.float64)
        self._set_threads()
        kernels["stripe_spmv"](stripe.cols, stripe.vals, x, stripe.run_starts, out)
        return stripe.out_indices, out

    def stripe_spmv_plan_batch(self, stripe, segments: np.ndarray) -> SparseVector:
        kernels = self._ensure_kernels()
        if kernels is None or stripe.run_starts is None:
            return super().stripe_spmv_plan_batch(stripe, segments)
        k = segments.shape[1]
        if stripe.vals.size == 0 or k == 0:
            return stripe.out_indices, np.zeros((stripe.n_runs, k), dtype=np.float64)
        block = np.ascontiguousarray(segments, dtype=np.float64)
        out = np.empty((stripe.n_runs, k), dtype=np.float64)
        self._set_threads()
        kernels["stripe_spmv_batch"](
            stripe.cols, stripe.vals, block, stripe.run_starts, out
        )
        return stripe.out_indices, out

    def merge_accumulate_plan(
        self, symbolic, lists: list, workspace=None
    ) -> np.ndarray:
        kernels = self._ensure_kernels()
        if kernels is None or symbolic.run_starts is None:
            return super().merge_accumulate_plan(symbolic, lists, workspace=workspace)
        if symbolic.total_records == 0:
            return np.zeros(symbolic.n_merged, dtype=np.float64)
        values = [np.asarray(v, dtype=np.float64) for _, v in lists]
        if workspace is not None:
            concat = workspace.buffer("merge.concat", symbolic.total_records)
            np.concatenate(values, out=concat)
        else:
            concat = np.concatenate(values)
        out = np.empty(symbolic.n_merged, dtype=np.float64)
        self._set_threads()
        # The permutation gather happens inside the loop: the sorted
        # stream is never materialized (the vectorized path's `ordered`
        # buffer does not exist here).
        kernels["merge_plan"](concat, symbolic.order, symbolic.run_starts, out)
        return out

    def merge_accumulate_plan_batch(
        self, symbolic, lists: list, k: int, workspace=None
    ) -> np.ndarray:
        kernels = self._ensure_kernels()
        if kernels is None or symbolic.run_starts is None:
            return super().merge_accumulate_plan_batch(
                symbolic, lists, k, workspace=workspace
            )
        if k == 0 or symbolic.total_records == 0:
            return np.zeros((symbolic.n_merged, k), dtype=np.float64)
        values = [np.asarray(v, dtype=np.float64) for _, v in lists]
        if workspace is not None:
            flat = workspace.buffer("merge.concat_batch", symbolic.total_records * k)
            concat = flat.reshape(symbolic.total_records, k)
            np.concatenate(values, axis=0, out=concat)
        else:
            concat = np.concatenate(values, axis=0)
        out = np.empty((symbolic.n_merged, k), dtype=np.float64)
        self._set_threads()
        kernels["merge_plan_batch"](concat, symbolic.order, symbolic.run_starts, out)
        return out

    def inject_classes_plan(self, symbolic, merged_vals, workspace=None) -> list:
        kernels = self._ensure_kernels()
        if kernels is None:
            return super().inject_classes_plan(
                symbolic, merged_vals, workspace=workspace
            )
        merged_vals = np.ascontiguousarray(merged_vals, dtype=np.float64)
        self._set_threads()
        streams = []
        for radix in range(symbolic.p):
            with span(f"inject.class[{radix}]"):
                dense = np.zeros(symbolic.class_keys[radix].size, dtype=np.float64)
                kernels["inject"](
                    symbolic.class_positions[radix],
                    symbolic.class_sel[radix],
                    merged_vals,
                    dense,
                )
            streams.append(dense)
        return streams

    def scatter_dense_plan(self, symbolic, merged_vals) -> np.ndarray:
        kernels = self._ensure_kernels()
        if kernels is None:
            return super().scatter_dense_plan(symbolic, merged_vals)
        out = np.zeros(symbolic.n_out, dtype=np.float64)
        merged_vals = np.ascontiguousarray(merged_vals, dtype=np.float64)
        self._set_threads()
        kernels["scatter"](symbolic.merged_keys, merged_vals, out)
        return out

    # ------------------------------------------------------------------
    # SpGEMM: the partial-product expansion compiles to a fused
    # gather-multiply loop and the merge reuses the fused merge_plan
    # kernel (permutation gather composed in-loop over the plan's
    # run_starts offsets) -- both with the same run-granular prange
    # distribution, so outputs stay bit-identical to the NumPy kernels.
    # ------------------------------------------------------------------

    def spgemm_kernel(self):
        """None: SpGEMM runs the JIT (or NumPy fallback) stages."""
        return None

    def spgemm_products(self, splan, b_vals, workspace=None) -> np.ndarray:
        kernels = self._ensure_kernels()
        if kernels is None:
            return super().spgemm_products(splan, b_vals, workspace=workspace)
        if splan.total_records == 0:
            return np.empty(0, dtype=np.float64)
        out = np.empty(splan.total_records, dtype=np.float64)
        self._set_threads()
        kernels["gather_multiply"](
            np.ascontiguousarray(b_vals, dtype=np.float64),
            splan.gather_b,
            splan.a_scale,
            out,
        )
        return out

    def spgemm_merge(self, splan, products, workspace=None) -> np.ndarray:
        kernels = self._ensure_kernels()
        if kernels is None:
            return super().spgemm_merge(splan, products, workspace=workspace)
        if splan.total_records == 0:
            return np.zeros(splan.n_merged, dtype=np.float64)
        out = np.empty(splan.n_merged, dtype=np.float64)
        self._set_threads()
        kernels["merge_plan"](
            np.ascontiguousarray(products, dtype=np.float64),
            splan.order,
            splan.run_starts,
            out,
        )
        return out


__all__ = [
    "NATIVE_DISABLE_ENV_VAR",
    "NATIVE_REQUIRE_ENV_VAR",
    "NativeBackend",
    "numba_available",
    "reset_native_state",
]
