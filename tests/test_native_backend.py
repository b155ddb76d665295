"""Native JIT backend: auto-detection, fallback, and bit-identity.

The ``native`` backend must be indistinguishable from the ``reference``
oracle on randomized engine runs -- identical result bits and identical
traffic ledgers -- whether Numba is installed (JIT-fused loops) or not
(inherited vectorized kernels).  On top of the differential properties,
these tests pin the detection machinery: the import-failure simulation
proves the fallback warns exactly once per process and still computes
correct results, and strict mode (``require=True`` /
``REPRO_NATIVE_REQUIRE``) turns the same condition into a typed
configuration error.
"""

import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    NativeBackend,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.backends.native import (
    NATIVE_DISABLE_ENV_VAR,
    NATIVE_REQUIRE_ENV_VAR,
    numba_available,
    reset_native_state,
)
from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.faults.errors import ConfigurationError
from repro.generators.erdos_renyi import erdos_renyi_graph


@pytest.fixture(autouse=True)
def _fresh_native_state():
    """Re-probe Numba and re-arm the warn-once latch around every test."""
    reset_native_state()
    yield
    reset_native_state()


def _quiet_native(**kwargs) -> NativeBackend:
    """A NativeBackend without the (expected) fallback warning noise."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return NativeBackend(**kwargs)


def _engine(backend, **config) -> TwoStepEngine:
    config.setdefault("segment_width", 64)
    config.setdefault("q", 2)
    return TwoStepEngine(TwoStepConfig(**config), backend=backend)


# ---------------------------------------------------------------------------
# Registry and resolution plumbing
# ---------------------------------------------------------------------------


def test_native_registered_and_resolvable(monkeypatch):
    monkeypatch.delenv(NATIVE_REQUIRE_ENV_VAR, raising=False)
    assert "native" in available_backends()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        backend = get_backend("native")
        assert isinstance(backend, NativeBackend)
        parameterized = resolve_backend("native", n_jobs=2)
    assert isinstance(parameterized, NativeBackend)
    assert parameterized.n_jobs == 2
    assert resolve_backend("native", n_jobs=2) is parameterized


def test_config_accepts_native():
    TwoStepConfig(segment_width=64, backend="native")  # must not raise


def test_invalid_n_jobs_rejected():
    with pytest.raises(ConfigurationError):
        _quiet_native(n_jobs=0)


# ---------------------------------------------------------------------------
# Engine-level differential properties (JIT or fallback tier alike)
# ---------------------------------------------------------------------------


@st.composite
def engine_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(16, 250))
    degree = draw(st.floats(0.5, 5.0))
    rng = np.random.default_rng(seed)
    graph = erdos_renyi_graph(n, degree, seed=seed)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    x = rng.uniform(-2.0, 2.0, size=graph.n_cols).astype(dtype)
    config = dict(
        segment_width=draw(st.integers(7, 96)),
        q=draw(st.integers(0, 3)),
        check_interleave=draw(st.booleans()),
    )
    n_jobs = draw(st.sampled_from([1, 2]))
    return graph, x, config, n_jobs


@given(engine_cases())
@settings(max_examples=25, deadline=None)
def test_native_engine_bitwise_equals_reference(case):
    graph, x, config, n_jobs = case
    native = _engine(_quiet_native(n_jobs=n_jobs), **config)
    reference = _engine("reference", **config)
    got = native.run(graph, x)
    want = reference.run(graph, x)
    assert got.y.tobytes() == want.y.tobytes()
    assert got.report.traffic == want.report.traffic


@given(engine_cases(), st.sampled_from([1, 3, 32]))
@settings(max_examples=12, deadline=None)
def test_native_batch_bitwise_equals_reference(case, k):
    graph, x, config, n_jobs = case
    rng = np.random.default_rng(x.size)
    X = rng.uniform(-2.0, 2.0, size=(graph.n_cols, k)).astype(x.dtype)
    native = _engine(_quiet_native(n_jobs=n_jobs), **config)
    reference = _engine("reference", **config)
    got = native.run_many(graph, X)
    want = reference.run_many(graph, X)
    assert got.y.tobytes() == want.y.tobytes()
    assert got.report.traffic == want.report.traffic


def test_unfused_path_also_bitwise_equal():
    """run_starts=None / fused_step2=False paths stay on the safe kernels."""
    graph = erdos_renyi_graph(300, 3.0, seed=11)
    x = np.random.default_rng(11).uniform(size=graph.n_cols)
    native = _engine(_quiet_native(), fused_step2=False)
    reference = _engine("reference", fused_step2=False)
    assert native.run(graph, x).y.tobytes() == reference.run(graph, x).y.tobytes()


# ---------------------------------------------------------------------------
# Fallback machinery
# ---------------------------------------------------------------------------


def _break_numba(monkeypatch):
    def unavailable():
        raise ImportError("simulated missing numba")

    monkeypatch.setattr("repro.backends.native._import_numba", unavailable)
    reset_native_state()


def test_fallback_warns_once_and_stays_correct(monkeypatch):
    monkeypatch.delenv(NATIVE_REQUIRE_ENV_VAR, raising=False)
    _break_numba(monkeypatch)
    assert not numba_available()
    with pytest.warns(RuntimeWarning, match="Numba is unavailable"):
        backend = NativeBackend()
    assert backend.kernel_tier == "numpy-fallback"
    assert not backend.jit_enabled

    # Second construction in the same process: latch holds, no new warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        NativeBackend()

    graph = erdos_renyi_graph(400, 3.0, seed=5)
    x = np.random.default_rng(5).uniform(size=graph.n_cols)
    got = _engine(backend).run(graph, x)
    want = _engine("vectorized").run(graph, x)
    assert got.y.tobytes() == want.y.tobytes()
    assert got.report.traffic == want.report.traffic


def test_require_raises_when_unavailable(monkeypatch):
    _break_numba(monkeypatch)
    with pytest.raises(ConfigurationError, match="requires Numba"):
        NativeBackend(require=True)
    monkeypatch.setenv(NATIVE_REQUIRE_ENV_VAR, "1")
    with pytest.raises(ConfigurationError, match="requires Numba"):
        NativeBackend()


def test_disable_env_forces_fallback(monkeypatch):
    monkeypatch.setenv(NATIVE_DISABLE_ENV_VAR, "1")
    assert not numba_available()
    backend = _quiet_native()
    assert backend.kernel_tier == "numpy-fallback"


@pytest.mark.skipif(not numba_available(), reason="JIT tier needs Numba")
def test_jit_tier_reports_and_compiles():
    backend = NativeBackend(n_jobs=1)
    assert backend.kernel_tier == "native-jit"
    graph = erdos_renyi_graph(200, 3.0, seed=9)
    x = np.random.default_rng(9).uniform(size=graph.n_cols)
    got = _engine(backend).run(graph, x)
    want = _engine("reference").run(graph, x)
    assert got.y.tobytes() == want.y.tobytes()
    assert backend.compiled_kernels > 0


# ---------------------------------------------------------------------------
# Telemetry surfacing
# ---------------------------------------------------------------------------


def test_engine_metrics_report_backend_and_tier():
    engine = _engine(_quiet_native(), telemetry=True)
    graph = erdos_renyi_graph(150, 3.0, seed=2)
    x = np.random.default_rng(2).uniform(size=graph.n_cols)
    engine.run(graph, x)
    engine.run(graph, x)
    tier = engine.backend.kernel_tier
    assert (
        engine.metrics().value(
            "spmv_backend_runs_total",
            labels={"backend": "native", "kernels": tier},
        )
        == 2.0
    )


# ---------------------------------------------------------------------------
# The fused loops themselves, interpreted: a shim ``numba`` whose ``njit``
# returns each function unchanged runs them as plain Python, so their
# accumulation order is checked on hosts without Numba too.
# ---------------------------------------------------------------------------


class _InterpretedNumba:
    """Stands in for ``numba``: no compilation, ``prange`` is ``range``."""

    prange = range

    @staticmethod
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda fn: fn


@contextmanager
def _interpreted_numba():
    """NativeBackends built inside run the interpreted loops."""
    from repro.backends import native

    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(NATIVE_DISABLE_ENV_VAR, raising=False)
        patch.setattr(native, "_import_numba", _InterpretedNumba)
        patch.setattr(native, "_KERNELS", {})
        patch.setattr(native, "_COMPILE_S", {})
        reset_native_state()
        yield
    reset_native_state()


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_interpreted_loops_keep_negative_zero_runs(n_jobs):
    from repro.formats.coo import COOMatrix

    # Row 0: one -0.0 product; row 1: -0.0 + -0.0 within one stripe;
    # row 2: -0.0 in each of two stripes (merged); row 3: -0.0 then +0.0.
    matrix = COOMatrix(
        4, 4,
        np.array([0, 1, 1, 2, 2, 3, 3]),
        np.array([0, 0, 1, 0, 3, 0, 1]),
        np.array([-1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0]),
    )
    x = np.zeros(4)
    X = np.zeros((4, 3))
    # SpGEMM: cell (0, 0) sums -0.0 products from two inner indices.
    a = COOMatrix(1, 2, np.array([0, 0]), np.array([0, 1]), np.array([-1.0, -1.0]))
    b = COOMatrix(2, 1, np.array([0, 1]), np.array([0, 0]), np.array([0.0, 0.0]))
    oracle = _engine("reference", segment_width=2)
    expected = oracle.run(matrix, x).y
    assert list(np.signbit(expected)) == [True, True, True, False]
    with _interpreted_numba():
        backend = NativeBackend(n_jobs=n_jobs)
        assert backend.kernel_tier == "native-jit"
        native = _engine(backend, segment_width=2)
        y = native.run(matrix, x).y
        Y = native.run_many(matrix, X).y
        c = native.spgemm(a, b).c.vals
    assert np.array_equal(_bits(y), _bits(expected))
    assert np.array_equal(_bits(Y), _bits(oracle.run_many(matrix, X).y))
    assert np.array_equal(_bits(c), _bits(oracle.spgemm(a, b).c.vals))
    assert np.signbit(c).all()


@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 3]))
@settings(max_examples=10, deadline=None)
def test_interpreted_loops_match_the_oracle(seed, k):
    from repro.formats.coo import COOMatrix

    rng = np.random.default_rng(seed)
    nnz = int(rng.integers(0, 60))
    matrix = COOMatrix.from_triples(
        10, 10, rng.integers(0, 10, nnz), rng.integers(0, 10, nnz),
        rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], nnz),
    )
    X = rng.choice([-0.0, 0.0, 1.0, -3.0], (10, k))
    oracle = _engine("reference", segment_width=4)
    with _interpreted_numba():
        engine = _engine(NativeBackend(n_jobs=1), segment_width=4)
        assert np.array_equal(
            _bits(engine.run(matrix, X[:, 0]).y), _bits(oracle.run(matrix, X[:, 0]).y)
        )
        assert np.array_equal(
            _bits(engine.run_many(matrix, X).y), _bits(oracle.run_many(matrix, X).y)
        )
        got = engine.spgemm(matrix, matrix).c.vals
    assert np.array_equal(_bits(got), _bits(oracle.spgemm(matrix, matrix).c.vals))
