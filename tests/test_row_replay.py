"""The compiled row-major replay against the NumPy stages and the oracle.

The vectorized backend's default path runs both Two-Step stages as one
C loop over the plan's :class:`~repro.core.plan.RowReplay` layout.  It
must reproduce the staged path (step 1 per stripe, then the stable-order
merge) and the record-at-a-time reference oracle bit for bit -- compared
here as ``view(np.int64)``, so signed zeros count -- and it must degrade
to the NumPy stages, warning once, on a host whose compiler is missing
or broken.

NaN positions must match, but every NaN compares equal to every other:
IEEE 754 leaves open which NaN an operation on two NaNs returns, and
NumPy's SIMD and scalar loops pick differently (``inf * 0`` makes a
negative NaN, ``np.nan`` is positive), so even one NumPy path is not
reproducible in the NaN's sign from call to call.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import create_engine
from repro.backends import replay
from repro.formats.coo import COOMatrix
from repro.generators.erdos_renyi import erdos_renyi_graph
from tests.conftest import numpy_stages

# Non-finite operands make NumPy's staged kernels warn; the values are the point.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")

#: Values that make bit patterns matter: signed zeros, infinities
#: (``inf - inf`` makes the default NaN) and NaN itself.
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)


def _bits(a: np.ndarray) -> np.ndarray:
    """Bit patterns of ``a``, with every NaN mapped to one pattern."""
    a = np.where(np.isnan(a), np.nan, np.asarray(a, dtype=np.float64))
    return np.ascontiguousarray(a).view(np.int64)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _values(draw, size: int, specials: bool) -> np.ndarray:
    finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    element = st.one_of(st.sampled_from(SPECIALS), finite) if specials else finite
    return np.array(draw(st.lists(element, min_size=size, max_size=size)), dtype=np.float64)


def _indices(draw, bound: int, size: int) -> np.ndarray:
    if bound == 0:
        return np.zeros(0, dtype=np.int64)
    return np.array(draw(st.lists(st.integers(0, bound - 1), min_size=size, max_size=size)))


@st.composite
def problems(draw):
    """A matrix (canonical or not), a stripe width and dense operands."""
    n_rows = draw(st.integers(0, 9))
    n_cols = draw(st.integers(0, 9))
    nnz = draw(st.integers(0, 40)) if n_rows and n_cols else 0
    rows = _indices(draw, n_rows, nnz)
    cols = _indices(draw, n_cols, nnz)
    shared = draw(st.sampled_from(("none", "row", "column")))
    if nnz and shared == "row":
        rows[:] = rows[0]
    elif nnz and shared == "column":
        cols[:] = cols[0]
    specials = draw(st.booleans())
    vals = _values(draw, nnz, specials)
    canonical = draw(st.booleans())
    if canonical and nnz:
        # RM-COO with duplicate entries kept (no summing).
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
    matrix = COOMatrix(n_rows, n_cols, rows, cols, vals)
    width = draw(st.sampled_from((1, 7, max(n_cols, 1), n_cols + 3)))
    k = draw(st.sampled_from((0, 1, 2, 31, 32, 65)))
    X = _values(draw, n_cols * k, specials).reshape(n_cols, k)
    Y = _values(draw, n_rows * k, specials).reshape(n_rows, k) if draw(st.booleans()) else None
    return matrix, width, canonical, X, Y


def _vectorized(**options):
    """A default-path engine, pinned against ``REPRO_*`` overrides."""
    return create_engine(backend="vectorized", fused_step2=True, **options)


def _engines(width: int):
    options = dict(segment_width=width, q=2, strict_validate=False)
    return _vectorized(**options), create_engine(backend="reference", **options)


def _staged(fn):
    with numpy_stages():
        return fn()


@given(problems())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_run_matches_stages_and_oracle_bit_for_bit(problem):
    matrix, width, canonical, X, Y = problem
    engine, oracle = _engines(width)
    x = X[:, 0] if X.shape[1] else np.zeros(matrix.n_cols)
    y = Y[:, 0] if Y is not None and Y.shape[1] else None
    compiled = engine.run(matrix, x, y=y).y
    staged = _staged(lambda: engine.run(matrix, x, y=y).y)
    assert _same_bits(compiled, staged)
    if canonical:
        # The oracle's tournament merge takes sorted stripe lists only.
        assert _same_bits(compiled, oracle.run(matrix, x, y=y).y)


@given(problems())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_run_many_matches_stages_oracle_and_columns(problem):
    matrix, width, canonical, X, Y = problem
    engine, oracle = _engines(width)
    compiled = engine.run_many(matrix, X, Y=Y).y
    assert compiled.shape == (matrix.n_rows, X.shape[1])
    assert _same_bits(compiled, _staged(lambda: engine.run_many(matrix, X, Y=Y).y))
    if canonical:
        assert _same_bits(compiled, oracle.run_many(matrix, X, Y=Y).y)
    for j in range(X.shape[1]):
        column = engine.run(matrix, X[:, j], y=None if Y is None else Y[:, j]).y
        assert _same_bits(compiled[:, j], column)


def test_signed_zero_runs_keep_their_sign():
    # Row 0: one -0.0 product; row 1: -0.0 + -0.0 across two stripes;
    # row 2: -0.0 then +0.0 (the sum is +0.0).
    matrix = COOMatrix(
        3, 2, np.array([0, 1, 1, 2, 2]), np.array([0, 0, 1, 0, 1]),
        np.array([-1.0, -1.0, -1.0, -1.0, 1.0]),
    )
    x = np.array([0.0, 0.0])
    engine, oracle = _engines(1)
    expected = oracle.run(matrix, x).y
    assert list(np.signbit(expected)) == [True, True, False]
    assert _same_bits(engine.run(matrix, x).y, expected)
    assert _same_bits(_staged(lambda: engine.run(matrix, x).y), expected)


def test_replay_path_telemetry_matches_the_stages():
    graph = erdos_renyi_graph(300, 4.0, seed=17)
    x = np.random.default_rng(17).uniform(size=graph.n_cols)
    engine = _vectorized(segment_width=64, q=2)
    staged = _staged(lambda: _vectorized(segment_width=64, q=2).run(graph, x))
    first = engine.run(graph, x)
    warm = engine.run(graph, x)
    assert _same_bits(first.y, staged.y)
    names = set(warm.telemetry.span_names())
    assert "step.replay" in names
    assert not names & {"step1", "step2", "step2.merge"}
    assert not any(n.startswith("step1.stripe[") for n in names)
    for result in (first, warm):
        metrics = result.telemetry.metrics
        assert metrics.total("spmv_records_merged_total") == staged.telemetry.metrics.total(
            "spmv_records_merged_total"
        )
        assert metrics.total("spmv_stream_bytes_total") == staged.telemetry.metrics.total(
            "spmv_stream_bytes_total"
        )
        assert metrics.value(
            "spmv_backend_runs_total", labels={"backend": "vectorized", "kernels": "c"}
        ) == 1
    assert first.telemetry.metrics.value(
        "spmv_plan_cache_events_total", labels={"outcome": "miss"}
    ) == 1
    assert warm.telemetry.metrics.value(
        "spmv_plan_cache_events_total", labels={"outcome": "hit"}
    ) == 1
    assert engine.backend.kernel_tier == "c"
    # Neither the step-2 symbolic structure nor any scratch buffer.
    assert not engine.plan(graph)._symbolic
    assert engine._workspace().nbytes == 0


@pytest.mark.parametrize("options", [
    {"backend": "reference"},
    {"backend": "parallel", "n_jobs": 2},
    {"fused_step2": False},
    {"check_interleave": True},
])
def test_other_configurations_keep_the_stages(options):
    graph = erdos_renyi_graph(200, 4.0, seed=3)
    _vectorized().run(graph, np.ones(graph.n_cols))  # the kernel is loaded
    engine = create_engine(segment_width=64, q=2, **options)
    telemetry = engine.run(graph, np.ones(graph.n_cols)).telemetry
    names = set(telemetry.span_names())
    assert {"step1", "step2"} <= names
    assert "step.replay" not in names
    runs = telemetry.metrics.total("spmv_backend_runs_total")
    assert runs == 1 and telemetry.metrics.value(
        "spmv_backend_runs_total", labels={"backend": engine.backend.name, "kernels": "c"}
    ) == 0


# ---------------------------------------------------------------------------
# Compilation: lazy, cached, once, and optional
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache and no loaded kernel; counts compiler runs."""
    calls = []
    real = replay._invoke_compiler

    def counting(args):
        calls.append(args)
        real(args)

    replay.reset_replay_state()
    monkeypatch.setattr(replay, "_cache_dir", lambda: tmp_path / "kernels")
    monkeypatch.setattr(replay, "_invoke_compiler", counting)
    yield calls
    replay.reset_replay_state()


needs_compiler = pytest.mark.skipif(replay._compiler() is None, reason="no C compiler")


@pytest.mark.parametrize("failure", [
    FileNotFoundError("gcc"),
    subprocess.CalledProcessError(1, "gcc", stderr=b"error"),
])
def test_failing_compiler_falls_back_with_one_warning(fresh_cache, monkeypatch, failure):
    def broken(args):
        fresh_cache.append(args)
        raise failure

    monkeypatch.setattr(replay, "_invoke_compiler", broken)
    graph = erdos_renyi_graph(200, 4.0, seed=5)
    x = np.random.default_rng(5).uniform(size=graph.n_cols)
    engine = _vectorized(segment_width=64, q=2)
    with pytest.warns(RuntimeWarning, match="compiled row replay is unavailable"):
        first = engine.run(graph, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        second = _vectorized(segment_width=64, q=2).run_many(graph, x[:, None])
    assert len(fresh_cache) == 1  # a failed build is not retried per run
    assert engine.backend.kernel_tier == "numpy"
    names = set(first.telemetry.span_names())
    assert {"step1", "step2"} <= names
    oracle = create_engine(segment_width=64, q=2, backend="reference").run(graph, x)
    assert _same_bits(first.y, oracle.y)
    assert _same_bits(second.y[:, 0], oracle.y)


def test_missing_compiler_falls_back(fresh_cache, monkeypatch):
    monkeypatch.setattr(replay, "_compiler", lambda: None)
    with pytest.warns(RuntimeWarning, match="no C compiler"):
        assert replay.load_kernel() is None
    assert fresh_cache == []


@needs_compiler
def test_compilation_is_lazy_and_cached(fresh_cache, tmp_path):
    graph = erdos_renyi_graph(200, 4.0, seed=7)
    engine = _vectorized(segment_width=64, q=2)
    assert engine.backend.kernel_tier == "numpy"
    assert fresh_cache == []  # construction never compiles
    product = engine.spgemm(graph, graph)
    assert len(fresh_cache) == 1
    assert engine.backend.kernel_tier == "c"
    assert product.telemetry.metrics.value(
        "spgemm_backend_runs_total", labels={"backend": "vectorized", "kernels": "c"}
    ) == 1
    engine.run(graph, np.ones(graph.n_cols))
    assert len(fresh_cache) == 1
    # A new process state loads the cached library without compiling.
    replay.reset_replay_state()
    assert replay.load_kernel() is not None
    assert len(fresh_cache) == 1
    leftovers = [p.name for p in (tmp_path / "kernels").iterdir()]
    assert sorted(p.rsplit(".", 1)[1] for p in leftovers) == ["sha256", "so"]


@needs_compiler
def test_truncated_cached_library_is_rebuilt(fresh_cache, tmp_path):
    # A complete build elsewhere, then a truncated copy where the cache
    # looks, next to the digest of the complete file.
    (tmp_path / "elsewhere").mkdir()
    built = replay._build(tmp_path / "elsewhere")
    fresh_cache.clear()
    cache = tmp_path / "kernels"
    cache.mkdir()
    (cache / built.name).write_bytes(built.read_bytes()[: built.stat().st_size // 2])
    (cache / built.name).with_suffix(".sha256").write_text(replay._digest(built))
    kernel = replay.load_kernel()
    assert kernel is not None and len(fresh_cache) == 1
    assert kernel.path == cache / built.name
    assert replay._digest(kernel.path) == (cache / built.name).with_suffix(".sha256").read_text()
    graph = erdos_renyi_graph(150, 3.0, seed=9)
    x = np.random.default_rng(9).uniform(size=graph.n_cols)
    oracle = create_engine(segment_width=32, backend="reference").run(graph, x)
    assert _same_bits(_vectorized(segment_width=32).run(graph, x).y, oracle.y)


@needs_compiler
def test_concurrent_first_calls_compile_once(fresh_cache):
    graph = erdos_renyi_graph(300, 4.0, seed=11)
    x = np.random.default_rng(11).uniform(size=graph.n_cols)
    engine = _vectorized(segment_width=64, q=2)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def first_call(i):
        barrier.wait(timeout=30)
        results[i] = engine.run(graph, x).y

    threads = [threading.Thread(target=first_call, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(fresh_cache) == 1
    assert engine.backend.kernel_tier == "c"
    assert all(_same_bits(r, results[0]) for r in results)


def test_kernel_checks_operand_shapes():
    graph = erdos_renyi_graph(50, 3.0, seed=1)
    engine = _vectorized(segment_width=16)
    engine.run(graph, np.ones(graph.n_cols))
    kernel = replay.load_kernel()
    if kernel is None:
        pytest.skip("no C compiler")
    layout = engine.plan(graph).row_replay()
    with pytest.raises(ValueError, match="rows"):
        kernel(layout, np.ones(graph.n_cols + 1))
    with pytest.raises(ValueError, match="Y must have shape"):
        kernel(layout, np.ones((graph.n_cols, 2)), np.ones((graph.n_rows, 3)))
    # Non-contiguous and non-float64 operands are converted, not misread.
    X = np.asfortranarray(np.arange(graph.n_cols * 2, dtype=np.int32).reshape(-1, 2))
    assert np.array_equal(kernel(layout, X), engine.run_many(graph, X.astype(float)).y)


def test_int64_index_kernel_matches_int32():
    # Matrices with n_cols >= 2**31 take int64 columns; the x they need
    # does not fit in memory here, so widen a small layout instead.
    from dataclasses import replace

    graph = erdos_renyi_graph(300, 4.0, seed=13)
    engine = _vectorized(segment_width=64)
    X = np.random.default_rng(13).uniform(size=(graph.n_cols, 11))
    expected = engine.run_many(graph, X).y
    kernel = replay.load_kernel()
    if kernel is None:
        pytest.skip("no C compiler")
    layout = engine.plan(graph).row_replay()
    assert layout.cols.dtype == np.int32
    wide = replace(layout, cols=layout.cols.astype(np.int64))
    assert _same_bits(kernel(wide, X), expected)
    assert _same_bits(kernel(wide, X[:, 3]), expected[:, 3])
