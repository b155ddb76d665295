"""The compiled row-wise SpGEMM against the staged path and Gustavson.

On the vectorized backend, ``engine.spgemm`` builds each plan with the C
symbolic pass (a slot map over ``A``'s row-replay order) and runs warm
products as one C numeric pass.  It must reproduce the staged products
and merge (the path every other backend and compiler-less hosts take)
and the row-wise Gustavson :func:`repro.core.spgemm.spgemm` bit for bit
-- compared as ``view(np.int64)``, so signed zeros count.

NaN positions must match, but every NaN compares equal to every other:
IEEE 754 leaves open which NaN an operation on two NaNs returns.

Gustavson adds a row's products in ``A``'s matrix order; the engine
adds them stripe by stripe.  The two orders agree when every row lists
its columns in ascending order (RM-COO, duplicates allowed), so for
other ``A`` the battery pins the compiled path to the staged one, and
both to the dense product.
"""

from __future__ import annotations

import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import create_engine
from repro.backends import ParallelBackend, replay
from repro.core.config import TwoStepConfig
from repro.core.plan import SPGEMM_PLAN_CAPACITY, build_spgemm_plan
from repro.core.spgemm import spgemm
from repro.core.twostep import TwoStepEngine
from repro.formats.coo import COOMatrix
from repro.generators.erdos_renyi import erdos_renyi_graph
from tests.conftest import numpy_stages

# Non-finite operands make NumPy's staged kernels warn; the values are the point.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")

#: Values that make bit patterns matter.
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)

#: The staged plan fields, built lazily on a compiled plan.
STAGED_FIELDS = (
    "gather_b", "a_scale", "order", "run_ids", "run_starts", "block_starts",
)


def _bits(a: np.ndarray) -> np.ndarray:
    """Bit patterns of ``a``, with every NaN mapped to one pattern."""
    a = np.where(np.isnan(a), np.nan, np.asarray(a, dtype=np.float64))
    return np.ascontiguousarray(a).view(np.int64)


def assert_same_product(c: COOMatrix, expected: COOMatrix) -> None:
    assert c.shape == expected.shape
    assert np.array_equal(c.rows, expected.rows)
    assert np.array_equal(c.cols, expected.cols)
    assert np.array_equal(_bits(c.vals), _bits(expected.vals))


def _values(draw, size: int, specials: bool) -> np.ndarray:
    finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    element = st.one_of(st.sampled_from(SPECIALS), finite) if specials else finite
    return np.array(draw(st.lists(element, min_size=size, max_size=size)), dtype=np.float64)


def _matrix(draw, n_rows: int, n_cols: int, specials: bool) -> tuple:
    """A COO matrix with duplicates, in RM-COO order or not."""
    nnz = draw(st.integers(0, 30)) if n_rows and n_cols else 0
    rows, cols = (
        np.array(draw(st.lists(st.integers(0, max(bound - 1, 0)), min_size=nnz, max_size=nnz)),
                 dtype=np.int64)
        for bound in (n_rows, n_cols)
    )
    shared = draw(st.sampled_from(("none", "row", "column")))
    if nnz and shared == "row":
        rows[:] = rows[0]
    elif nnz and shared == "column":
        cols[:] = cols[0]
    vals = _values(draw, nnz, specials)
    canonical = draw(st.booleans())
    if canonical and nnz:
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
    return COOMatrix(n_rows, n_cols, rows, cols, vals), canonical


@st.composite
def products(draw):
    """``(A, B, stripe width, A canonical, finite)`` with rectangular B."""
    m, k, n = (draw(st.integers(0, 9)) for _ in range(3))
    specials = draw(st.booleans())
    a, a_canonical = _matrix(draw, m, k, specials)
    b, _ = _matrix(draw, k, n, specials)
    width = draw(st.sampled_from((1, 3, max(k, 1), k + 3)))
    return a, b, width, a_canonical, not specials


def _vectorized(**options):
    """A default-path engine, pinned against ``REPRO_*`` overrides."""
    return create_engine(backend="vectorized", strict_validate=False, **options)


def _staged(fn):
    with numpy_stages():
        return fn()


@given(products())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_compiled_matches_stages_and_gustavson(problem):
    a, b, width, a_canonical, finite = problem
    engine = _vectorized(segment_width=width)
    compiled = engine.spgemm(a, b)
    staged = _staged(lambda: _vectorized(segment_width=width).spgemm(a, b))
    assert_same_product(compiled.c, staged.c)
    if a_canonical:
        assert_same_product(compiled.c, spgemm(a, b))
    if finite:
        assert np.allclose(compiled.c.to_dense(), a.to_dense() @ b.to_dense())
    # Warm replays reuse the slot map and give the same bits.
    warm = engine.spgemm(a, b)
    assert warm.telemetry.metrics.total("spgemm_plan_hits_total") == 1
    assert_same_product(warm.c, compiled.c)
    assert warm.report.partial_records == compiled.report.partial_records
    assert warm.report.output_records == compiled.report.output_records


@given(products())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_lazy_staged_fields_equal_the_eager_ones(problem):
    a, b, width, _, _ = problem
    engine = _vectorized(segment_width=width)
    engine.spgemm(a, b)  # loads the kernel
    compiled = engine.plan(a).spgemm_plan(b, kernel=replay.load_kernel())
    assert compiled.slot_map is not None
    eager = _vectorized(segment_width=width).plan(a).spgemm_plan(b)
    assert eager.slot_map is None
    for name in ("out_rows", "out_cols"):
        got, want = getattr(compiled, name), getattr(eager, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (compiled.total_records, compiled.n_merged, compiled.n_blocks) == (
        eager.total_records, eager.n_merged, eager.n_blocks,
    )
    for name in STAGED_FIELDS:
        got, want = getattr(compiled, name), getattr(eager, name)
        if got.dtype.kind == "f":
            got, want = _bits(got), _bits(want)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    got, want = compiled.run_groups, eager.run_groups
    assert (got.n_runs, got.total_records) == (want.n_runs, want.total_records)
    assert len(got.groups) == len(want.groups)
    for (runs, records), (want_runs, want_records) in zip(got.groups, want.groups):
        assert np.array_equal(runs, want_runs) and np.array_equal(records, want_records)


def test_negative_zero_cells_keep_their_sign():
    # C[0, 0] = -1*0 + -1*0 (two inner indices, two stripes at width 1);
    # C[0, 1] = -1*0 + -1*-0 (+0.0); row 1 is one -0.0 product per cell.
    a = COOMatrix(2, 2, np.array([0, 0, 1]), np.array([0, 1, 0]), np.full(3, -1.0))
    b = COOMatrix(
        2, 2, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), np.array([0.0, 0.0, 0.0, -0.0])
    )
    expected = spgemm(a, b)
    assert list(np.signbit(expected.vals)) == [True, False, True, True]
    for width in (1, 2):
        assert_same_product(_vectorized(segment_width=width).spgemm(a, b).c, expected)
        staged = _staged(lambda: _vectorized(segment_width=width).spgemm(a, b))
        assert_same_product(staged.c, expected)
        for backend in ("reference", "parallel", "native"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                other = create_engine(backend=backend, segment_width=width)
            assert_same_product(other.spgemm(a, b).c, expected)
        # The parallel backend's sharded merge, which tiny inputs bypass.
        sharded = ParallelBackend(n_jobs=2, pool_kind="thread")
        sharded.MIN_FANOUT_RECORDS = 0
        engine = TwoStepEngine(TwoStepConfig(segment_width=width), backend=sharded)
        assert_same_product(engine.spgemm(a, b).c, expected)


def test_unsorted_right_operand_is_multiplied_by_row():
    rng = np.random.default_rng(3)
    a = erdos_renyi_graph(60, 3.0, seed=3)
    b = erdos_renyi_graph(60, 3.0, seed=4)
    shuffled = rng.permutation(b.nnz)
    b_unsorted = COOMatrix(b.n_rows, b.n_cols, b.rows[shuffled], b.cols[shuffled], b.vals[shuffled])
    expected = spgemm(a, b)
    assert_same_product(spgemm(a, b_unsorted), expected)
    assert_same_product(_vectorized(segment_width=16).spgemm(a, b_unsorted).c, expected)
    assert_same_product(
        _staged(lambda: _vectorized(segment_width=16).spgemm(a, b_unsorted).c), expected
    )


def test_compiled_path_telemetry():
    a = erdos_renyi_graph(300, 4.0, seed=21)
    b = erdos_renyi_graph(300, 4.0, seed=22)
    engine = _vectorized(segment_width=64)
    result = engine.spgemm(a, b)
    names = set(result.telemetry.span_names())
    assert "spgemm.replay" in names
    assert not names & {"spgemm.products", "spgemm.merge"}
    metrics = result.telemetry.metrics
    assert metrics.value(
        "spgemm_backend_runs_total", labels={"backend": "vectorized", "kernels": "c"}
    ) == 1
    staged = _staged(lambda: _vectorized(segment_width=64).spgemm(a, b))
    for name in ("spgemm_partial_records_total", "spgemm_output_records_total"):
        assert metrics.total(name) == staged.telemetry.metrics.total(name)
    assert result.report.partial_records == staged.report.partial_records
    assert result.report.output_records == staged.report.output_records
    assert {"spgemm.products", "spgemm.merge"} <= set(staged.telemetry.span_names())
    assert staged.telemetry.metrics.value(
        "spgemm_backend_runs_total", labels={"backend": "vectorized", "kernels": "numpy"}
    ) == 1


@pytest.mark.parametrize("backend", ["reference", "parallel", "native"])
def test_other_backends_keep_the_stages(backend):
    a = erdos_renyi_graph(200, 4.0, seed=5)
    _vectorized().spgemm(a, a)  # the kernel is loaded
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        engine = create_engine(backend=backend, segment_width=64)
    result = engine.spgemm(a, a)
    assert {"spgemm.products", "spgemm.merge"} <= set(result.telemetry.span_names())
    assert engine.plan(a).spgemm_plan(a).slot_map is None
    assert result.telemetry.metrics.value(
        "spgemm_backend_runs_total", labels={"backend": backend, "kernels": "c"}
    ) == 0
    assert_same_product(result.c, spgemm(a, a))


def test_warm_replays_hit_and_the_lru_evicts():
    a = erdos_renyi_graph(200, 4.0, seed=31)
    bs = [erdos_renyi_graph(200, 4.0, seed=40 + i) for i in range(SPGEMM_PLAN_CAPACITY + 1)]
    engine = _vectorized(segment_width=32)
    first = [engine.spgemm(a, b) for b in bs]
    assert all(r.telemetry.metrics.total("spgemm_plan_builds_total") == 1 for r in first)
    # The newest CAPACITY operands are cached; the first was evicted.
    for b, cold in zip(bs[1:], first[1:]):
        warm = engine.spgemm(a, b)
        assert warm.telemetry.metrics.total("spgemm_plan_hits_total") == 1
        assert warm.telemetry.metrics.total("spgemm_plan_builds_total") == 0
        assert_same_product(warm.c, cold.c)
    rebuilt = engine.spgemm(a, bs[0])
    assert rebuilt.telemetry.metrics.total("spgemm_plan_builds_total") == 1
    assert_same_product(rebuilt.c, first[0].c)
    assert_same_product(rebuilt.c, spgemm(a, bs[0]))


def test_threads_sharing_one_engine():
    a = erdos_renyi_graph(400, 4.0, seed=51)
    bs = [erdos_renyi_graph(400, 4.0, seed=60 + i) for i in range(3)]
    expected = [spgemm(a, b) for b in bs]
    engine = _vectorized(segment_width=64)
    barrier = threading.Barrier(4)
    failures = []

    def worker(t):
        barrier.wait(timeout=30)
        for i in range(6):
            j = (t + i) % len(bs)
            c = engine.spgemm(a, bs[j]).c
            if not (np.array_equal(c.cols, expected[j].cols)
                    and np.array_equal(_bits(c.vals), _bits(expected[j].vals))):
                failures.append((t, j))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert failures == []


def test_long_rows_sort_past_the_insertion_cutoff():
    # Rows of C from 1 to hundreds of distinct columns, met in scrambled
    # order: short rows take the insertion sort, long ones qsort.
    rng = np.random.default_rng(11)
    k, n = 40, 3000
    a_rows = np.repeat(np.arange(k), np.arange(k) % 13 + 1)
    a_cols = rng.integers(0, k, a_rows.size)
    b_rows = np.repeat(np.arange(k), 30)
    b_cols = rng.integers(0, n, b_rows.size)
    a = COOMatrix.from_triples(k, k, a_rows, a_cols, rng.standard_normal(a_rows.size))
    b = COOMatrix.from_triples(k, n, b_rows, b_cols, rng.standard_normal(b_rows.size))
    result = _vectorized(segment_width=8).spgemm(a, b)
    widths = np.bincount(result.c.rows, minlength=k)
    assert widths.min() <= 32 < widths.max()
    assert_same_product(result.c, spgemm(a, b))
    assert_same_product(result.c, _staged(lambda: _vectorized(segment_width=8).spgemm(a, b).c))


def test_hypersparse_right_operand_is_bounded_by_its_entries():
    # B has 2**30 columns and 60 entries.  The symbolic pass numbers only
    # the columns B uses; a marker per column of B would take 4 GiB.
    rng = np.random.default_rng(13)
    a = erdos_renyi_graph(30, 3.0, seed=13)
    b = COOMatrix.from_triples(
        30, 2**30, rng.integers(0, 30, 60), rng.integers(0, 2**30, 60), rng.standard_normal(60)
    )
    engine = _vectorized(segment_width=8)
    engine.spgemm(a, a)  # the kernel is loaded
    tracemalloc.start()
    try:
        result = engine.spgemm(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert result.telemetry.metrics.value(
        "spgemm_backend_runs_total", labels={"backend": "vectorized", "kernels": "c"}
    ) == 1
    assert engine.plan(a).spgemm_plan(b).slot_map is not None
    assert_same_product(result.c, spgemm(a, b))
    assert_same_product(result.c, _staged(lambda: _vectorized(segment_width=8).spgemm(a, b).c))


def test_int64_index_entry_point_matches_int32():
    # Operands with 2**31 or more inner indices, or columns of B in use,
    # take int64 indices; they do not fit in memory here, so widen a small
    # layout instead.
    a = erdos_renyi_graph(300, 4.0, seed=71)
    b = erdos_renyi_graph(300, 4.0, seed=72)
    engine = _vectorized(segment_width=64)
    expected = engine.spgemm(a, b).c
    kernel = replay.load_kernel()
    if kernel is None:
        pytest.skip("no C compiler")
    plan = engine.plan(a)
    layout = plan.row_replay()
    assert layout.cols.dtype == np.int32
    wide = replace(layout, cols=layout.cols.astype(np.int64))
    splan = build_spgemm_plan(plan.stripes, b, a.n_rows, kernel=kernel, layout=wide)
    assert splan.slot_map.a_cols.dtype == np.int64
    assert np.array_equal(splan.out_cols, expected.cols)
    values = kernel.spgemm(splan.slot_map, b.vals, splan.n_merged)
    assert np.array_equal(_bits(values), _bits(expected.vals))


def test_kernel_checks_operand_shapes():
    a = erdos_renyi_graph(50, 3.0, seed=1)
    engine = _vectorized(segment_width=16)
    engine.spgemm(a, a)
    kernel = replay.load_kernel()
    if kernel is None:
        pytest.skip("no C compiler")
    layout = engine.plan(a).row_replay()
    splan = engine.plan(a).spgemm_plan(a, kernel=kernel)
    with pytest.raises(ValueError, match="CSR form"):
        kernel.spgemm_symbolic(layout, np.zeros(3, dtype=np.int64), np.zeros(0), 50)
    b_ptr = np.zeros(51, dtype=np.int64)
    b_ptr[1:] = 1
    with pytest.raises(ValueError, match="columns must lie"):
        kernel.spgemm_symbolic(layout, b_ptr, np.array([50]), 50)
    with pytest.raises(ValueError, match="values"):
        kernel.spgemm(splan.slot_map, a.vals[:-1], splan.n_merged)


@pytest.fixture
def no_compiler(tmp_path, monkeypatch):
    """A host without a C compiler and no kernel loaded yet."""
    replay.reset_replay_state()
    monkeypatch.setattr(replay, "_cache_dir", lambda: tmp_path / "kernels")
    monkeypatch.setattr(replay, "_compiler", lambda: None)
    yield
    replay.reset_replay_state()


def test_compilerless_host_runs_the_stages_with_one_warning(no_compiler):
    a = erdos_renyi_graph(200, 4.0, seed=81)
    b = erdos_renyi_graph(200, 4.0, seed=82)
    engine = _vectorized(segment_width=64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = engine.spgemm(a, b)
        second = _vectorized(segment_width=64).spgemm(a, b)
        engine.run(a, np.ones(a.n_cols))
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1
    assert "compiled row replay is unavailable" in str(runtime[0].message)
    assert engine.backend.kernel_tier == "numpy"
    assert {"spgemm.products", "spgemm.merge"} <= set(first.telemetry.span_names())
    assert engine.plan(a).spgemm_plan(b).slot_map is None
    expected = spgemm(a, b)
    assert_same_product(first.c, expected)
    assert_same_product(second.c, expected)
