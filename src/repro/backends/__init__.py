"""Pluggable execution backends for the Two-Step hot path.

The functional engine dispatches its inner kernels (stripe SpMV, K-way
merge-accumulate, missing-key injection, dense scatter, VLDI size
accounting) through an :class:`ExecutionBackend`:

* ``reference`` -- record-at-a-time loops, the bit-exact oracle
  (:class:`ReferenceBackend`).
* ``vectorized`` -- the fast path and the default
  (:class:`VectorizedBackend`): one compiled C loop replays both stages
  row by row (:mod:`repro.backends.replay`), with whole-array NumPy
  kernels for everything else and on hosts without a C compiler.
* ``parallel`` -- the vectorized kernels sharded over ``n_jobs``
  workers: stripes in step 1, PRaP residue classes in step 2
  (:class:`ParallelBackend`).
* ``native`` -- JIT-fused plan-replay loops compiled with Numba (an
  *optional* dependency; graceful fallback to the vectorized kernels
  when unavailable), with ``prange`` run-range parallelism
  (:class:`NativeBackend`).

Selection precedence: an explicit backend object > the ``backend`` field
of :class:`~repro.core.config.TwoStepConfig` > the ``REPRO_BACKEND``
environment variable > :data:`DEFAULT_BACKEND`.  All backends produce
bit-comparable results and identical traffic ledgers; the differential
suite ``tests/test_backends_equivalence.py`` enforces this.
"""

from __future__ import annotations

import os

from repro.backends.base import ExecutionBackend, SparseVector
from repro.backends.native import NativeBackend
from repro.backends.parallel import ParallelBackend
from repro.backends.reference import ReferenceBackend
from repro.backends.vectorized import VectorizedBackend

#: Environment variable consulted when no backend is configured.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Backend used when neither the config nor the environment selects one.
DEFAULT_BACKEND = "vectorized"

_REGISTRY: dict[str, type[ExecutionBackend]] = {
    ReferenceBackend.name: ReferenceBackend,
    VectorizedBackend.name: VectorizedBackend,
    ParallelBackend.name: ParallelBackend,
    NativeBackend.name: NativeBackend,
}

_INSTANCES: dict[tuple, ExecutionBackend] = {}


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> ExecutionBackend:
    """The (cached) backend instance registered under ``name``.

    Raises:
        ValueError: Unknown backend name.
    """
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    key = (name,)
    if key not in _INSTANCES:
        _INSTANCES[key] = _REGISTRY[name]()
    return _INSTANCES[key]


def resolve_backend(
    selection: str | ExecutionBackend | None = None,
    n_jobs: int | None = None,
    pool_kind: str | None = None,
    max_retries: int | None = None,
    task_timeout: float | None = None,
    min_parallel_nnz: int | None = None,
) -> ExecutionBackend:
    """Resolve a backend selection to an instance.

    Args:
        selection: A backend instance (returned as is), a registry name,
            or None -- which falls back to the ``REPRO_BACKEND``
            environment variable, then :data:`DEFAULT_BACKEND`.
        n_jobs: Worker count for the ``parallel`` backend (pool
            workers) and the ``native`` backend (``prange`` threads);
            ignored by the sequential backends.  None lets
            ``REPRO_JOBS`` / the CPU count decide.
        pool_kind: ``"thread"`` or ``"process"`` for the ``parallel``
            backend; None means thread.
        max_retries: Per-task retry budget for the ``parallel``
            backend's supervisor; None lets ``REPRO_MAX_RETRIES`` / the
            pool default decide.
        task_timeout: Per-task timeout in seconds for the ``parallel``
            backend; None lets ``REPRO_TASK_TIMEOUT`` decide.
        min_parallel_nnz: Size-aware dispatch threshold for the
            ``parallel`` backend's fan-out guard; None lets
            ``REPRO_MIN_PARALLEL_NNZ`` / the backend default decide.

    Returns:
        The selected :class:`ExecutionBackend`.  Parameterized
        ``parallel`` instances are cached per ``(n_jobs, pool_kind,
        max_retries, task_timeout, min_parallel_nnz)`` so repeated
        resolution reuses one worker pool.
    """
    if isinstance(selection, ExecutionBackend):
        return selection
    name = selection or os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    parameterized = any(
        value is not None
        for value in (n_jobs, pool_kind, max_retries, task_timeout, min_parallel_nnz)
    )
    if name == ParallelBackend.name and parameterized:
        key = (
            name, n_jobs, pool_kind or "thread", max_retries, task_timeout,
            min_parallel_nnz,
        )
        if key not in _INSTANCES:
            _INSTANCES[key] = ParallelBackend(
                n_jobs=n_jobs,
                pool_kind=pool_kind,
                max_retries=max_retries,
                task_timeout=task_timeout,
                min_parallel_nnz=min_parallel_nnz,
            )
        return _INSTANCES[key]
    if name == NativeBackend.name and n_jobs is not None:
        # prange thread count is the only native parameter; the other
        # knobs configure the worker pool the native tier replaces.
        key = (name, n_jobs)
        if key not in _INSTANCES:
            _INSTANCES[key] = NativeBackend(n_jobs=n_jobs)
        return _INSTANCES[key]
    return get_backend(name)


__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "NativeBackend",
    "ParallelBackend",
    "ReferenceBackend",
    "SparseVector",
    "VectorizedBackend",
    "available_backends",
    "get_backend",
    "resolve_backend",
]
