"""Symbolic/numeric split: property, differential and steady-state tests.

The fused step-2 path precomputes the merge permutation, run-id array,
merged key set, per-class injection structure and scatter map once per
``(matrix, p)`` and replays them every iteration.  These tests pin the
three claims that make the split safe:

* the precomputed structures equal an independent from-scratch
  derivation on randomized matrices (Hypothesis property);
* fused and unfused runs are bit-identical -- result vectors compare
  with ``np.array_equal`` / ``tobytes`` and traffic ledgers byte for
  byte -- across every backend, worker count and interleave mode;
* steady-state iterations are symbolic-free: after the first run, no
  step-2 argsort executes (telemetry-counter asserted) and the cached
  structure is hit, for the engine and for PageRank/CG/Jacobi clients.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.conjugate_gradient import conjugate_gradient, spd_system
from repro.apps.jacobi import jacobi_solve
from repro.apps.pagerank import pagerank
from repro.backends import ParallelBackend, get_backend
from repro.core.config import TwoStepConfig
from repro.faults.errors import ConfigurationError
from repro.core.plan import (
    FUSED_STEP2_ENV_VAR,
    Workspace,
    build_plan,
    build_step2_symbolic,
    resolve_fused_step2,
)
from repro.core.twostep import TwoStepEngine, reference_spmv
from repro.generators.erdos_renyi import erdos_renyi_graph

#: Backends crossed with the worker counts the issue calls out.
BACKEND_MATRIX = [
    ("reference", None),
    ("vectorized", None),
    ("parallel", 1),
    ("parallel", 2),
]


@pytest.fixture
def graph():
    return erdos_renyi_graph(300, 4.0, seed=11)


def _config(fused, **kwargs) -> TwoStepConfig:
    return TwoStepConfig(
        segment_width=64, q=2, telemetry=True, fused_step2=fused, **kwargs
    )


# ---------------------------------------------------------------------------
# Property: symbolic structures == recomputed-from-scratch
# ---------------------------------------------------------------------------


def _oracle_structures(stripes, n_out: int, p: int) -> dict:
    """Independent derivation of every symbolic field with plain numpy.

    Deliberately avoids the production code path: merged keys come from
    ``np.unique``, run ids from ``searchsorted``, class structure from a
    per-radix loop over modulo arithmetic.
    """
    parts = [sp.out_indices for sp in stripes]
    all_keys = (
        np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    ).astype(np.int64)
    sorted_keys = np.sort(all_keys, kind="stable")
    merged_keys = np.unique(all_keys)
    run_ids = np.searchsorted(merged_keys, sorted_keys)
    padded = -(-n_out // p) * p
    classes = []
    for radix in range(p):
        sel = np.flatnonzero(merged_keys % p == radix)
        classes.append(
            (
                sel,
                (merged_keys[sel] - radix) // p,
                np.arange(radix, padded, p, dtype=np.int64),
            )
        )
    return {
        "all_keys": all_keys,
        "sorted_keys": sorted_keys,
        "merged_keys": merged_keys,
        "run_ids": run_ids,
        "padded": padded,
        "classes": classes,
    }


@st.composite
def random_plans(draw):
    n = draw(st.integers(2, 120))
    degree = draw(st.floats(0.5, 6.0))
    seed = draw(st.integers(0, 2**16))
    segment_width = draw(st.sampled_from([8, 32, 64]))
    backend_name = draw(st.sampled_from(["reference", "vectorized", "parallel"]))
    matrix = erdos_renyi_graph(n, degree, seed=seed)
    config = TwoStepConfig(segment_width=segment_width, q=2)
    plan = build_plan(matrix, config, get_backend(backend_name))
    return plan


@given(plan=random_plans(), p=st.sampled_from([1, 2, 4]))
@settings(max_examples=40, deadline=None)
def test_symbolic_matches_from_scratch_derivation(plan, p):
    symbolic = build_step2_symbolic(plan.stripes, plan.n_rows, p)
    oracle = _oracle_structures(plan.stripes, plan.n_rows, p)

    assert symbolic.p == p
    assert symbolic.n_out == plan.n_rows
    assert symbolic.padded == oracle["padded"]
    assert symbolic.total_records == oracle["all_keys"].size
    assert symbolic.n_merged == oracle["merged_keys"].size
    assert np.array_equal(symbolic.merged_keys, oracle["merged_keys"])
    assert np.array_equal(symbolic.run_ids, oracle["run_ids"])
    for radix in range(p):
        sel, positions, keys = oracle["classes"][radix]
        assert np.array_equal(symbolic.class_sel[radix], sel)
        assert np.array_equal(symbolic.class_positions[radix], positions)
        assert np.array_equal(symbolic.class_keys[radix], keys)

    # ``order`` is pinned by its spec: a permutation that sorts the
    # concatenated keys, stable (ties keep stream order).
    order = symbolic.order
    assert np.array_equal(np.sort(order), np.arange(oracle["all_keys"].size))
    permuted = oracle["all_keys"][order]
    assert np.array_equal(permuted, oracle["sorted_keys"])
    if order.size:
        same_key = permuted[1:] == permuted[:-1]
        assert np.all(np.diff(order)[same_key] > 0)


def test_symbolic_rejects_non_power_of_two_p(graph):
    plan = build_plan(graph, TwoStepConfig(segment_width=64), get_backend("reference"))
    with pytest.raises(ConfigurationError):
        build_step2_symbolic(plan.stripes, plan.n_rows, 3)


def test_symbolic_rejects_out_of_range_keys(graph):
    plan = build_plan(graph, TwoStepConfig(segment_width=64), get_backend("reference"))
    with pytest.raises(ValueError, match="outside output vector range"):
        build_step2_symbolic(plan.stripes, 1, 4)


# ---------------------------------------------------------------------------
# Differential: fused == unfused, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend,n_jobs", BACKEND_MATRIX)
@pytest.mark.parametrize("check_interleave", [False, True])
def test_fused_matches_unfused_bitwise(graph, backend, n_jobs, check_interleave):
    x = np.random.default_rng(3).uniform(-1.0, 1.0, size=graph.n_cols)
    kwargs = {"backend": backend, "check_interleave": check_interleave}
    if n_jobs is not None:
        kwargs["n_jobs"] = n_jobs
    fused_engine = TwoStepEngine(_config(True, **kwargs))
    unfused_engine = TwoStepEngine(_config(False, **kwargs))
    for _ in range(2):  # cold (symbolic build) and warm (cache hit) runs
        fused = fused_engine.run(graph, x)
        unfused = unfused_engine.run(graph, x)
        assert fused.y.tobytes() == unfused.y.tobytes()
        assert np.allclose(fused.y, reference_spmv(graph, x))
        assert (
            fused.report.traffic.breakdown() == unfused.report.traffic.breakdown()
        )
    assert fused.report.fused_step2 is True
    assert unfused.report.fused_step2 is False


@pytest.mark.parametrize("backend,n_jobs", BACKEND_MATRIX)
def test_fused_matches_unfused_batch(graph, backend, n_jobs):
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(graph.n_cols, 3))
    kwargs = {"backend": backend}
    if n_jobs is not None:
        kwargs["n_jobs"] = n_jobs
    fused = TwoStepEngine(_config(True, **kwargs)).run_many(graph, X)
    unfused = TwoStepEngine(_config(False, **kwargs)).run_many(graph, X)
    assert fused.y.tobytes() == unfused.y.tobytes()
    for j in range(X.shape[1]):
        assert np.allclose(fused.y[:, j], reference_spmv(graph, X[:, j]))


def test_fused_matches_under_forced_fanout(graph, monkeypatch):
    monkeypatch.setattr(ParallelBackend, "MIN_FANOUT_RECORDS", 0)
    x = np.random.default_rng(7).uniform(-1.0, 1.0, size=graph.n_cols)
    fused = TwoStepEngine(_config(True, backend="parallel", n_jobs=3)).run(graph, x)
    unfused = TwoStepEngine(_config(False, backend="parallel", n_jobs=3)).run(graph, x)
    assert fused.y.tobytes() == unfused.y.tobytes()
    metrics = fused.telemetry.metrics
    # Shard accounting survives the fused path: per-shard counts still
    # sum to the merge total.
    shard_total = metrics.total("spmv_merge_shard_records_total")
    assert shard_total == metrics.total("spmv_records_merged_total") > 0


# ---------------------------------------------------------------------------
# Steady state: warm iterations perform no step-2 argsort
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend,n_jobs", BACKEND_MATRIX)
def test_warm_runs_are_argsort_free(graph, backend, n_jobs):
    kwargs = {"backend": backend}
    if n_jobs is not None:
        kwargs["n_jobs"] = n_jobs
    engine = TwoStepEngine(_config(True, **kwargs))
    x = np.ones(graph.n_cols)
    first = engine.run(graph, x).telemetry.metrics
    warm = engine.run(graph, x).telemetry.metrics
    assert first.total("spmv_plan_symbolic_builds_total") == 1
    assert first.total("spmv_step2_argsort_total") == 0
    assert warm.total("spmv_step2_argsort_total") == 0
    assert warm.total("spmv_plan_symbolic_builds_total") == 0
    assert warm.total("spmv_step2_plan_hits_total") == 1


def test_unfused_runs_do_count_argsorts(graph):
    engine = TwoStepEngine(_config(False, backend="vectorized"))
    report = engine.run(graph, np.ones(graph.n_cols)).telemetry
    assert report.metrics.total("spmv_step2_argsort_total") >= 1


@pytest.mark.parametrize(
    "solver",
    ["pagerank", "cg", "jacobi"],
)
def test_iterative_clients_reuse_symbolic_structure(solver):
    # fused pinned explicitly so the assertion survives REPRO_FUSED_STEP2=0.
    config = TwoStepConfig(segment_width=64, q=2, telemetry=True, fused_step2=True)
    if solver == "pagerank":
        adjacency = erdos_renyi_graph(200, 4.0, seed=3)
        reports = pagerank(adjacency, config, max_iterations=8).telemetry_reports
    elif solver == "cg":
        matrix, b = spd_system(200, seed=3)
        reports = conjugate_gradient(
            matrix, b, config=config, max_iterations=8
        ).telemetry_reports
    else:
        from repro.apps.jacobi import diagonally_dominant_system

        matrix, b = diagonally_dominant_system(200, seed=3)
        reports = jacobi_solve(
            matrix, b, config=config, max_iterations=8
        ).its_report.telemetry_reports
    assert len(reports) >= 2
    for report in reports:
        assert report.metrics.total("spmv_step2_argsort_total") == 0
    for report in reports[1:]:
        assert report.metrics.total("spmv_plan_symbolic_builds_total") == 0
        assert report.metrics.total("spmv_step2_plan_hits_total") == 1


def test_symbolic_cached_per_p_on_the_plan(graph):
    plan = build_plan(graph, TwoStepConfig(segment_width=64), get_backend("reference"))
    assert plan.step2_symbolic(4) is plan.step2_symbolic(4)
    assert plan.step2_symbolic(2) is not plan.step2_symbolic(4)


# ---------------------------------------------------------------------------
# Workspace reuse and configuration plumbing
# ---------------------------------------------------------------------------


def test_workspace_buffers_grow_only_and_reuse_memory():
    ws = Workspace()
    big = ws.buffer("merge.concat", 100)
    assert big.size == 100
    small = ws.buffer("merge.concat", 40)
    assert small.size == 40
    assert np.shares_memory(big, small)
    grown = ws.buffer("merge.concat", 150)
    assert grown.size == 150
    assert ws.buffer("other", 10, dtype=np.int64).dtype == np.int64
    assert ws.nbytes >= 150 * 8 + 10 * 8


def test_engine_workspace_is_stable_across_warm_runs(graph, numpy_stages):
    # The workspace belongs to the NumPy stages; the compiled replay
    # allocates no scratch at all.
    engine = TwoStepEngine(_config(True, backend="vectorized"))
    x = np.ones(graph.n_cols)
    engine.run(graph, x)
    workspace = engine._workspace()
    nbytes = workspace.nbytes
    assert nbytes > 0
    engine.run(graph, x)
    assert engine._workspace() is workspace
    assert workspace.nbytes == nbytes  # warm runs allocate no new scratch


def test_fused_step2_env_resolution(monkeypatch):
    monkeypatch.delenv(FUSED_STEP2_ENV_VAR, raising=False)
    assert resolve_fused_step2(None) is True
    monkeypatch.setenv(FUSED_STEP2_ENV_VAR, "0")
    assert resolve_fused_step2(None) is False
    assert resolve_fused_step2(True) is True  # explicit flag wins
    monkeypatch.setenv(FUSED_STEP2_ENV_VAR, "1")
    assert resolve_fused_step2(None) is True
    assert resolve_fused_step2(False) is False


def test_config_change_invalidates_plan_reuse(graph):
    x = np.ones(graph.n_cols)
    engine = TwoStepEngine(_config(True, backend="vectorized"))
    engine.run(graph, x)
    flipped = dataclasses.replace(engine.config, fused_step2=False)
    report = TwoStepEngine(flipped).run(graph, x).telemetry
    # A distinct config fingerprint means a fresh plan (cache miss).
    assert report.metrics.value(
        "spmv_plan_cache_events_total", labels={"outcome": "miss"}
    ) == 1
