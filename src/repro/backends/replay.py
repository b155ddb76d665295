"""Compiled row-major replay of both Two-Step stages (C via ``ctypes``).

One C loop computes ``Y = A X + Y`` row by row over the plan's
:class:`~repro.core.plan.RowReplay` layout.  For each output row it
left-folds every stripe run's products into a partial seeded with the
run's first product (the step-1 adder chain), then left-folds those
partials in stripe order, seeded with the first (the merge core's root
accumulator), and finally adds ``Y``.  Those are exactly the additions
the staged path performs in step 1 and in the stable-order merge, in
the same order and association, so results are bit-identical to the
stages and to the reference oracle -- without intermediate vectors, the
merge-permutation gather or the scatter.  ``run`` is the ``k = 1``
case; wider blocks are processed in fixed-width column chunks.

The same source holds the row-wise SpGEMM ``C = A @ B`` over ``A``'s
layout: a symbolic pass that emits each output row's sorted columns and
maps every partial product to its output slot, and a numeric pass that
seeds each cell with its first product and adds the rest in order --
the additions of the staged stable-sort merge and of row-wise Gustavson
(see :class:`~repro.core.plan.SpGEMMSlotMap`).

The source is compiled with the system C compiler on the first SpMV or
SpGEMM that needs it (never at import or engine construction), with
``-O3 -fno-fast-math -ffp-contract=off``: FMA contraction would fuse
``part + v * x`` into one rounding and break bit-identity, and no
``-march=native`` keeps the cached library valid on any host of the
same architecture.  The shared object lands in a per-user cache keyed
by a hash of the source and flags, written with an atomic rename next
to a SHA-256 digest that is checked before every load, so a truncated
or foreign file is rebuilt, never loaded.  When no compiler works the
vectorized backend keeps its NumPy stages and warns once per process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* Columns of a right-hand-side block replayed together per row. */
#define CHUNK 8

/* Each row's first run seeds its total; later runs fold into it. */
#define DEFINE_REPLAY(SUFFIX, IDX)                                             \
static void replay_vector_##SUFFIX(                                            \
    int64_t n_rows, const int64_t *row_runs, const int64_t *run_ptr,           \
    const IDX *cols, const double *vals, const double *x, const double *y,     \
    double *out)                                                               \
{                                                                              \
    for (int64_t i = 0; i < n_rows; i++) {                                     \
        const int64_t first = row_runs[i], last = row_runs[i + 1];             \
        double total = 0.0;                                                    \
        if (first < last) {                                                    \
            int64_t q = run_ptr[first], end = run_ptr[first + 1];              \
            total = vals[q] * x[cols[q]];                                      \
            for (q++; q < end; q++)                                            \
                total = total + vals[q] * x[cols[q]];                          \
            for (int64_t r = first + 1; r < last; r++) {                       \
                q = end;                                                       \
                end = run_ptr[r + 1];                                          \
                double part = vals[q] * x[cols[q]];                            \
                for (q++; q < end; q++)                                        \
                    part = part + vals[q] * x[cols[q]];                        \
                total = total + part;                                          \
            }                                                                  \
        }                                                                      \
        out[i] = y ? total + y[i] : total;                                     \
    }                                                                          \
}                                                                              \
                                                                               \
static inline void replay_chunk_##SUFFIX(                                      \
    int64_t first, int64_t last, const int64_t *run_ptr, const IDX *cols,      \
    const double *vals, const double *x, int64_t k, int width, double *total)  \
{                                                                              \
    double part[CHUNK];                                                        \
    for (int c = 0; c < width; c++)                                            \
        total[c] = 0.0;                                                        \
    for (int64_t r = first; r < last; r++) {                                   \
        int64_t q = run_ptr[r];                                                \
        const int64_t end = run_ptr[r + 1];                                    \
        const double *row = x + (int64_t)cols[q] * k;                          \
        for (int c = 0; c < width; c++)                                        \
            part[c] = vals[q] * row[c];                                        \
        for (q++; q < end; q++) {                                              \
            row = x + (int64_t)cols[q] * k;                                    \
            for (int c = 0; c < width; c++)                                    \
                part[c] = part[c] + vals[q] * row[c];                          \
        }                                                                      \
        if (r == first)                                                        \
            for (int c = 0; c < width; c++)                                    \
                total[c] = part[c];                                            \
        else                                                                   \
            for (int c = 0; c < width; c++)                                    \
                total[c] = total[c] + part[c];                                 \
    }                                                                          \
}                                                                              \
                                                                               \
void row_replay_##SUFFIX(                                                      \
    int64_t n_rows, int64_t k, const int64_t *row_runs,                        \
    const int64_t *run_ptr, const IDX *cols, const double *vals,               \
    const double *x, const double *y, double *out)                             \
{                                                                              \
    if (k == 1) {                                                              \
        replay_vector_##SUFFIX(n_rows, row_runs, run_ptr, cols, vals, x, y,    \
                               out);                                           \
        return;                                                                \
    }                                                                          \
    double total[CHUNK];                                                       \
    for (int64_t i = 0; i < n_rows; i++) {                                     \
        for (int64_t j = 0; j < k; j += CHUNK) {                               \
            const int width = k - j < CHUNK ? (int)(k - j) : CHUNK;            \
            if (width == CHUNK)                                                \
                replay_chunk_##SUFFIX(row_runs[i], row_runs[i + 1], run_ptr,   \
                                      cols, vals, x + j, k, CHUNK, total);     \
            else                                                               \
                replay_chunk_##SUFFIX(row_runs[i], row_runs[i + 1], run_ptr,   \
                                      cols, vals, x + j, k, width, total);     \
            double *dst = out + i * k + j;                                     \
            const double *acc = y ? y + i * k + j : 0;                         \
            for (int c = 0; c < width; c++)                                    \
                dst[c] = acc ? total[c] + acc[c] : total[c];                   \
        }                                                                      \
    }                                                                          \
}

DEFINE_REPLAY(i32, int32_t)
DEFINE_REPLAY(i64, int64_t)

static int compare_columns(const void *a, const void *b)
{
    const int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Sorts a row's distinct columns in place: insertion sort up to 32 of
 * them (95% of the rows of an ER d=4 product, whose symbolic pass took
 * 1.5x as long with qsort alone), qsort beyond, so that long rows stay
 * O(n log n). */
static void sort_columns(int64_t *v, int64_t n)
{
    if (n > 32) {
        qsort(v, (size_t)n, sizeof *v, compare_columns);
        return;
    }
    for (int64_t r = 1; r < n; r++) {
        const int64_t x = v[r];
        int64_t w = r;
        for (; w > 0 && v[w - 1] > x; w--)
            v[w] = v[w - 1];
        v[w] = x;
    }
}

/* SpGEMM C = A B over A's replay order.
 *
 * The symbolic pass emits each row's distinct columns, sorted, and per
 * partial product the slot s of its cell, stored as ~s for the cell's
 * first product.  One walk over a row's products collects its distinct
 * columns and notes each product's column (~column for a cell's first
 * product); marker, one entry per column of B, is -1 outside the row.
 * Once the row's columns are sorted, marker holds each column's rank
 * and the noted columns become slots.
 *
 * The numeric pass streams A's records, each against its B row, and
 * seeds each cell with its first product before adding the rest. */
#define DEFINE_SPGEMM(SUFFIX, IDX)                                             \
int64_t spgemm_symbolic_##SUFFIX(                                              \
    int64_t n_rows, const int64_t *row_runs, const int64_t *run_ptr,           \
    const IDX *a_cols, const int64_t *b_ptr, const IDX *b_cols, IDX *marker,   \
    int64_t *out_ptr, int64_t *out_cols, int64_t *slots)                       \
{                                                                              \
    int64_t n_out = 0, t = 0;                                                  \
    out_ptr[0] = 0;                                                            \
    for (int64_t i = 0; i < n_rows; i++) {                                     \
        const int64_t lo = run_ptr[row_runs[i]], hi = run_ptr[row_runs[i + 1]];\
        const int64_t first = t;                                               \
        int64_t *row_cols = out_cols + n_out, n = 0;                           \
        for (int64_t q = lo; q < hi; q++) {                                    \
            const int64_t end = b_ptr[a_cols[q] + 1];                          \
            for (int64_t p = b_ptr[a_cols[q]]; p < end; p++) {                 \
                const IDX j = b_cols[p];                                       \
                if (marker[j] == -1) {                                         \
                    marker[j] = 0;                                             \
                    row_cols[n++] = j;                                         \
                    slots[t++] = ~(int64_t)j;                                  \
                } else {                                                       \
                    slots[t++] = j;                                            \
                }                                                              \
            }                                                                  \
        }                                                                      \
        sort_columns(row_cols, n);                                             \
        for (int64_t r = 0; r < n; r++)                                        \
            marker[row_cols[r]] = (IDX)r;                                      \
        for (int64_t u = first; u < t; u++)                                    \
            slots[u] = slots[u] < 0 ? ~(n_out + marker[~slots[u]])             \
                                    : n_out + marker[slots[u]];                \
        for (int64_t r = 0; r < n; r++)                                        \
            marker[row_cols[r]] = -1;                                          \
        n_out += n;                                                            \
        out_ptr[i + 1] = n_out;                                                \
    }                                                                          \
    return n_out;                                                              \
}                                                                              \
                                                                               \
void spgemm_numeric_##SUFFIX(                                                  \
    int64_t n_records, const IDX *a_cols, const double *a_vals,                \
    const int64_t *b_ptr, const double *b_vals, const int64_t *slots,          \
    double *out)                                                               \
{                                                                              \
    int64_t t = 0;                                                             \
    for (int64_t q = 0; q < n_records; q++) {                                  \
        const double a = a_vals[q];                                            \
        const int64_t end = b_ptr[a_cols[q] + 1];                              \
        for (int64_t p = b_ptr[a_cols[q]]; p < end; p++) {                     \
            const double product = b_vals[p] * a;                              \
            const int64_t s = slots[t++];                                      \
            if (s < 0)                                                         \
                out[~s] = product;                                             \
            else                                                               \
                out[s] = out[s] + product;                                     \
        }                                                                      \
    }                                                                          \
}

DEFINE_SPGEMM(i32, int32_t)
DEFINE_SPGEMM(i64, int64_t)
"""

#: Pinned code-generation flags; part of the cache key.
_FLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")

_LOCK = threading.Lock()

#: ``None`` = not loaded yet, ``False`` = no working compiler (warned
#: once), otherwise the loaded :class:`RowReplayKernel`.
_STATE = None


def _compiler() -> str | None:
    """Path of the system C compiler, or None."""
    return shutil.which("gcc") or shutil.which("cc")


def _invoke_compiler(args: list) -> None:
    """Run one compiler command; separated so tests can simulate failure."""
    subprocess.run(args, check=True, capture_output=True, timeout=120)


def _cache_dir() -> Path:
    """The per-user kernel cache directory."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro" / "kernels"


def _cache_key() -> str:
    digest = hashlib.sha256()
    for part in (_SOURCE, *_FLAGS, platform.machine()):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cached_library(directory: Path) -> Path | None:
    """The cached shared object if it matches its recorded digest."""
    library = directory / f"row_replay-{_cache_key()}.so"
    recorded = library.with_suffix(".sha256")
    try:
        if recorded.read_text().strip() == _digest(library):
            return library
    except OSError:
        pass
    return None


def _build(directory: Path) -> Path:
    """Compile into ``directory``; publish library and digest atomically.

    Raises:
        OSError: No compiler, or ``directory`` is not writable.
        subprocess.SubprocessError: The compiler failed or timed out.
    """
    compiler = _compiler()
    if compiler is None:
        raise FileNotFoundError("no C compiler (gcc or cc) on PATH")
    name = f"row_replay-{_cache_key()}"
    library = directory / f"{name}.so"
    private = directory / f"{name}-{os.getpid()}-{threading.get_ident()}"
    source = private.with_suffix(".c")
    built = private.with_suffix(".so.tmp")
    recorded = private.with_suffix(".sha256.tmp")
    try:
        source.write_text(_SOURCE)
        _invoke_compiler([compiler, *_FLAGS, "-o", str(built), str(source)])
        recorded.write_text(_digest(built))
        os.replace(built, library)
        os.replace(recorded, library.with_suffix(".sha256"))
    finally:
        for leftover in (source, built, recorded):
            leftover.unlink(missing_ok=True)
    return library


def _index_pointer(dtype) -> type:
    return np.ctypeslib.ndpointer(dtype=dtype, ndim=1, flags="C_CONTIGUOUS")


class RowReplayKernel:
    """The loaded shared object, with every foreign signature declared.

    Calling it runs the SpMV replay; :meth:`spgemm_symbolic` and
    :meth:`spgemm` run the two SpGEMM passes.
    """

    def __init__(self, path: Path):
        self.path = path
        lib = ctypes.CDLL(str(path))
        runs = _index_pointer(np.int64)
        values = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
        self._entry = {}
        for dtype, name in ((np.int32, "row_replay_i32"), (np.int64, "row_replay_i64")):
            fn = getattr(lib, name)
            fn.restype = None
            fn.argtypes = [
                ctypes.c_int64,  # n_rows
                ctypes.c_int64,  # k
                runs,  # row_runs
                runs,  # run_ptr
                _index_pointer(dtype),  # cols
                _index_pointer(np.float64),  # vals
                values,  # x, (n_cols, k)
                ctypes.c_void_p,  # y, (n_rows, k) or NULL
                values,  # out, (n_rows, k)
            ]
            self._entry[np.dtype(dtype)] = fn
        self._symbolic, self._numeric = {}, {}
        for dtype, suffix in ((np.int32, "i32"), (np.int64, "i64")):
            index = _index_pointer(dtype)
            fn = getattr(lib, f"spgemm_symbolic_{suffix}")
            fn.restype = ctypes.c_int64
            fn.argtypes = [
                ctypes.c_int64,  # n_rows of A
                runs,  # row_runs
                runs,  # run_ptr
                index,  # a_cols
                runs,  # b_ptr
                index,  # b_cols
                index,  # marker, one per column of B
                runs,  # out_ptr
                runs,  # out_cols
                runs,  # slots
            ]
            self._symbolic[np.dtype(dtype)] = fn
            fn = getattr(lib, f"spgemm_numeric_{suffix}")
            fn.restype = None
            fn.argtypes = [
                ctypes.c_int64,  # records of A
                index,  # a_cols
                _index_pointer(np.float64),  # a_vals
                runs,  # b_ptr
                _index_pointer(np.float64),  # b_vals, CSR order
                runs,  # slots
                _index_pointer(np.float64),  # out
            ]
            self._numeric[np.dtype(dtype)] = fn
        self._lib = lib

    def __call__(self, layout, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """``A X + Y`` over ``layout``; ``X`` is 1-D (``run``) or 2-D.

        Shapes, dtypes and contiguity are checked here, before any
        pointer crosses into C; the layout's own arrays were built by
        the plan (every column index is below ``layout.n_cols``).

        Raises:
            ValueError: An operand has the wrong shape.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim not in (1, 2) or X.shape[0] != layout.n_cols:
            raise ValueError(f"X must have {layout.n_cols} rows, got shape {X.shape}")
        k = 1 if X.ndim == 1 else X.shape[1]
        shape = (layout.n_rows,) if X.ndim == 1 else (layout.n_rows, k)
        if Y is not None:
            Y = np.ascontiguousarray(Y, dtype=np.float64)
            if Y.shape != shape:
                raise ValueError(f"Y must have shape {shape}, got {Y.shape}")
        out = np.empty(shape, dtype=np.float64)
        if layout.n_rows == 0 or k == 0:
            return out
        self._entry[layout.cols.dtype](
            layout.n_rows,
            k,
            layout.row_runs,
            layout.run_ptr,
            layout.cols,
            layout.vals,
            X,
            None if Y is None else Y.ctypes.data,
            out,
        )
        return out

    def spgemm_symbolic(self, layout, b_ptr: np.ndarray, b_cols: np.ndarray, n_cols: int) -> tuple:
        """Structure of ``C = A @ B`` and its slot map, in ``A``'s replay order.

        Args:
            layout: ``A``'s :class:`~repro.core.plan.RowReplay`.
            b_ptr: ``B``'s CSR row offsets (length ``layout.n_cols + 1``).
            b_cols: ``B``'s columns in CSR order (any order within a row).
            n_cols: Columns of ``B``.

        Returns:
            ``(a_cols, out_ptr, out_cols, slots)``: ``A``'s columns in
            the index type both passes use (``layout.cols`` itself when
            it fits), ``C``'s CSR row offsets and sorted columns, and per
            partial product its output slot ``s`` (``~s`` for the
            cell's first product).

        Raises:
            ValueError: ``b_ptr`` or ``b_cols`` has the wrong length, or
                a column of ``B`` is outside ``[0, n_cols)``.
        """
        b_ptr = np.ascontiguousarray(b_ptr, dtype=np.int64)
        if b_ptr.shape != (layout.n_cols + 1,) or b_cols.shape != (b_ptr[-1],):
            raise ValueError(
                f"B must have {layout.n_cols} rows in CSR form, got "
                f"{b_ptr.size - 1} row offsets and {b_cols.size} columns"
            )
        if b_cols.size and (b_cols.min() < 0 or b_cols.max() >= n_cols):
            raise ValueError(f"B's columns must lie in [0, {n_cols})")
        used = None
        if n_cols > b_cols.size:
            # B is wider than it has entries: number only the columns it
            # uses, so the marker is bounded by B's entries, not its width.
            used, b_cols = np.unique(b_cols, return_inverse=True)
            n_cols = used.size
        wide = layout.cols.dtype != np.int32 or n_cols >= 2**31
        index = np.dtype(np.int64 if wide else np.int32)
        a_cols = layout.cols.astype(index, copy=False)
        total = int(np.diff(b_ptr)[a_cols].sum()) if a_cols.size else 0
        out_ptr = np.zeros(layout.n_rows + 1, dtype=np.int64)
        out_cols = np.empty(total, dtype=np.int64)
        slots = np.empty(total, dtype=np.int64)
        if total:
            # The marker is per call, so concurrent products never share it.
            n_out = self._symbolic[index](
                layout.n_rows,
                layout.row_runs,
                layout.run_ptr,
                a_cols,
                b_ptr,
                np.ascontiguousarray(b_cols, dtype=index),
                np.full(n_cols, -1, dtype=index),
                out_ptr,
                out_cols,
                slots,
            )
            out_cols.resize(n_out, refcheck=False)
            if used is not None:
                out_cols = used[out_cols]
        return a_cols, out_ptr, out_cols, slots

    def spgemm(self, slot_map, b_vals: np.ndarray, n_merged: int) -> np.ndarray:
        """``C``'s values from a slot map built by :meth:`spgemm_symbolic`.

        Args:
            slot_map: A :class:`~repro.core.plan.SpGEMMSlotMap`.
            b_vals: ``B``'s values in matrix order.
            n_merged: Cells of ``C``.

        Raises:
            ValueError: ``b_vals`` does not match ``B``'s entry count.
        """
        b_vals = np.ascontiguousarray(b_vals, dtype=np.float64)
        if b_vals.shape != (slot_map.b_ptr[-1],):
            raise ValueError(f"B has {slot_map.b_ptr[-1]} values, got shape {b_vals.shape}")
        if slot_map.b_order is not None:
            b_vals = b_vals[slot_map.b_order]
        out = np.empty(n_merged, dtype=np.float64)
        if slot_map.slots.size:
            self._numeric[slot_map.a_cols.dtype](
                slot_map.a_cols.size,
                slot_map.a_cols,
                slot_map.a_vals,
                slot_map.b_ptr,
                b_vals,
                slot_map.slots,
                out,
            )
        return out


def _load() -> RowReplayKernel:
    """Load the cached library, building it first when missing or corrupt."""
    directory = _cache_dir()
    library = _cached_library(directory)
    if library is None:
        try:
            directory.mkdir(parents=True, exist_ok=True)
            writable = os.access(directory, os.W_OK)
        except OSError:
            writable = False
        if not writable:
            # A read-only home still gets the compiled tier, just uncached.
            directory = Path(tempfile.mkdtemp(prefix="repro-kernels-"))
        library = _build(directory)
    return RowReplayKernel(library)


def load_kernel() -> RowReplayKernel | None:
    """The compiled replay kernel, compiling it on the first call.

    Thread-safe: concurrent first calls compile once.  On failure the
    process stays on the NumPy stages, with one :class:`RuntimeWarning`.
    """
    global _STATE
    state = _STATE
    if state is None:
        with _LOCK:
            if _STATE is None:
                try:
                    _STATE = _load()
                except (OSError, subprocess.SubprocessError) as exc:
                    _STATE = False
                    warnings.warn(
                        "the compiled row replay is unavailable "
                        f"({exc}); the vectorized backend runs its "
                        "bit-identical NumPy stages instead",
                        RuntimeWarning,
                        stacklevel=3,
                    )
            state = _STATE
    return state or None


def loaded_kernel() -> RowReplayKernel | None:
    """The kernel if this process has already loaded it; never compiles."""
    return _STATE or None


def reset_replay_state() -> None:
    """Forget the loaded kernel or the failed build (test hook)."""
    global _STATE
    with _LOCK:
        _STATE = None


__all__ = ["RowReplayKernel", "load_kernel", "loaded_kernel", "reset_replay_state"]
