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

The source is compiled with the system C compiler on the first SpMV
that needs it (never at import or engine construction), with
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
    """The loaded shared object, with every foreign signature declared."""

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
