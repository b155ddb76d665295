"""Order-preserving batched segment sums over contiguous runs.

The engine's bit-identity contract pins the accumulation order: every
multi-RHS kernel must produce, per column, exactly the floating-point
sum ``np.bincount`` produces on that column alone -- sequential,
left-associated addition in stream order.  A naive batch kernel
therefore loops ``bincount`` per column and gains nothing from the
batch; re-associating reductions (``np.add.reduceat``, matmul-style
segment sums) are faster but use pairwise summation, which changes the
rounding and breaks bit-identity.

The order-preserving batch form exploits that accumulation runs are
*contiguous* in every stream the engine sums (step-1 records are
row-major sorted; the merge stream is key-sorted by the symbolic
permutation): group runs by length, then accumulate all length-``L``
runs together with ``L - 1`` vectorized whole-matrix adds::

    acc = values[rec[0]]            # record 0 of every length-L run
    acc += values[rec[1]]           # record 1, still stream order
    ...                             # left-associated, same as bincount

Each column sees precisely the additions ``bincount`` would perform, in
the same order and association, so the result is bit-identical -- but
the work is ``k``-wide vectorized adds instead of ``k`` separate
``bincount`` passes.  Run-length distributions of sparse workloads are
short-tailed (hypersparse stripes are dominated by length-1 runs, which
cost a pure row gather), so the Python-level loop runs over a handful
of distinct lengths, not over columns or runs.

Two further fusions keep the batch path from re-materializing
full-size intermediates per call:

* The per-group record maps can be composed with an arbitrary stream
  permutation at build time (``order=``), so the merge kernel reads the
  *unsorted* concatenated value block directly -- the sorted stream is
  never materialized.
* :func:`mul_segment_sum_batch` folds the step-1 gather-multiply
  (``vals * segments[cols]``) into the group loop, so the full
  ``(nnz, k)`` product block is never materialized either.

The index-side work (grouping, permutation composition) is done once
per plan and shared by every column of every batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RunGroups:
    """Length-grouped layout of contiguous accumulation runs.

    Attributes:
        n_runs: Number of output runs (rows of the accumulated result).
        total_records: Records across all runs (length of the stream).
        groups: Tuple of ``(run_indices, record_indices)``; one entry
            per distinct run length ``L``, where ``run_indices`` are the
            output rows of that length's runs and ``record_indices`` is
            an ``(L, len(run_indices))`` map from (position-in-run, run)
            to the record's index in the *source* value stream (already
            composed with the stream permutation, if any).
    """

    n_runs: int
    total_records: int
    groups: tuple


def build_run_groups(
    run_ids: np.ndarray, n_runs: int, order: np.ndarray | None = None
) -> RunGroups:
    """Derive the length-grouped layout from a contiguous run-id stream.

    Args:
        run_ids: Per-record output-run id, non-decreasing (equal ids
            adjacent) -- the same array fed to ``bincount``.
        n_runs: Number of output runs (ids beyond ``run_ids.max()`` are
            allowed and denote empty runs, matching ``bincount``'s
            ``minlength`` semantics).
        order: Optional permutation that sorts the source stream into
            run order (``sorted = source[order]``).  When given, the
            record maps are composed with it so kernels can read the
            unsorted source directly.

    Returns:
        The immutable :class:`RunGroups`.
    """
    run_ids = np.asarray(run_ids)
    if run_ids.size == 0:
        return RunGroups(n_runs=int(n_runs), total_records=0, groups=())
    lengths = np.bincount(run_ids, minlength=n_runs)
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    groups = []
    for length in np.unique(lengths):
        if length == 0:
            continue
        runs = np.flatnonzero(lengths == length)
        rec = starts[runs] + np.arange(int(length), dtype=np.int64)[:, None]
        if order is not None:
            rec = np.asarray(order)[rec]
        groups.append((runs, np.ascontiguousarray(rec)))
    return RunGroups(
        n_runs=int(n_runs),
        total_records=int(run_ids.size),
        groups=tuple(groups),
    )


def run_sum(run_ids: np.ndarray, weights: np.ndarray, n_runs: int = 0) -> np.ndarray:
    """Per-run sums of a contiguous run stream, oracle-exact.

    ``np.bincount`` adds each run's weights in stream order, but seeds
    the run with ``+0.0`` where the adder chain (and the reference
    oracle) seeds it with its first record.  The two folds differ only
    when every record of a run is ``-0.0`` (``0.0 + -0.0`` is ``+0.0``),
    so those runs are patched afterwards.

    Args:
        run_ids: Per-record run id, as fed to ``bincount``.
        weights: Per-record values, in stream order.
        n_runs: Minimum number of runs (``bincount``'s ``minlength``).

    Returns:
        The per-run sums; empty runs are ``+0.0``.
    """
    out = np.bincount(run_ids, weights=weights, minlength=n_runs)
    if (out == 0.0).any():
        negative_zero = np.signbit(weights) & (weights == 0.0)
        if negative_zero.any():
            signed = np.bincount(run_ids[negative_zero], minlength=out.size) > 0
            unsigned = np.bincount(run_ids[~negative_zero], minlength=out.size) > 0
            out[signed & ~unsigned] = -0.0
    return out


def segment_sum_batch(values: np.ndarray, run_groups: RunGroups) -> np.ndarray:
    """Accumulate an ``(n, k)`` stream into ``(n_runs, k)``, bincount-order.

    Args:
        values: Source value block of shape
            ``(run_groups.total_records, k)``, in the stream order the
            record maps were built against (unsorted, if ``order`` was
            composed in at build time).
        run_groups: The stream's precomputed length-grouped layout.

    Returns:
        Accumulated values of shape ``(n_runs, k)``; column ``j`` is
        bit-identical to ``np.bincount(run_ids, weights=sorted[:, j],
        minlength=n_runs)`` (empty runs are 0.0, as with ``minlength``).
    """
    k = values.shape[1]
    out = np.zeros((run_groups.n_runs, k), dtype=np.float64)
    for runs, rec in run_groups.groups:
        acc = values[rec[0]]
        for i in range(1, rec.shape[0]):
            acc += values[rec[i]]
        out[runs] = acc
    return out


def mul_segment_sum_batch(
    segments: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    run_groups: RunGroups,
) -> np.ndarray:
    """Fused step-1 batch kernel: gather, multiply and accumulate.

    Computes, without materializing the ``(nnz, k)`` product block, the
    per-run sums of ``vals[:, None] * segments[cols, :]`` -- each
    column bit-identical to the scalar gather/multiply/bincount path
    (multiplication is elementwise, so only the addition order matters,
    and the group loop replays it exactly).

    Args:
        segments: Dense operand block, shape ``(segment_width, k)``.
        cols: Per-record column index into ``segments`` (stream order).
        vals: Per-record matrix value (stream order).
        run_groups: Length-grouped layout of the record stream.

    Returns:
        Accumulated products, shape ``(n_runs, k)``.
    """
    k = segments.shape[1]
    out = np.zeros((run_groups.n_runs, k), dtype=np.float64)
    for runs, rec in run_groups.groups:
        acc = segments[cols[rec[0]]]
        acc *= vals[rec[0]][:, None]
        for i in range(1, rec.shape[0]):
            step = segments[cols[rec[i]]]
            step *= vals[rec[i]][:, None]
            acc += step
        out[runs] = acc
    return out


__all__ = [
    "RunGroups",
    "build_run_groups",
    "mul_segment_sum_batch",
    "run_sum",
    "segment_sum_batch",
]
