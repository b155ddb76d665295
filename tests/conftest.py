"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.formats.coo import COOMatrix
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.rmat import rmat_graph


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@contextmanager
def numpy_stages():
    """Run the vectorized backend on its NumPy stages (no compiled replay)."""
    from repro.backends import replay

    with mock.patch.object(replay, "load_kernel", lambda: None):
        yield


@pytest.fixture(name="numpy_stages")
def numpy_stages_fixture():
    """:func:`numpy_stages` for a whole test."""
    with numpy_stages():
        yield


@pytest.fixture
def small_er_graph():
    """2k-node Erdős–Rényi graph, avg degree 4."""
    return erdos_renyi_graph(2000, 4.0, seed=1)


@pytest.fixture
def small_rmat_graph():
    """2**11-node RMAT graph with power-law degrees."""
    return rmat_graph(11, 8.0, seed=2)


@pytest.fixture
def tiny_matrix():
    """A fixed 6x6 matrix with known dense form."""
    rows = [0, 0, 1, 2, 3, 3, 5]
    cols = [1, 4, 0, 2, 1, 5, 3]
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    return COOMatrix.from_triples(6, 6, rows, cols, vals)


def random_sorted_lists(rng, n_lists, key_space, max_len):
    """Random sorted (indices, values) lists for merge tests."""
    lists = []
    for _ in range(n_lists):
        size = int(rng.integers(0, max_len + 1))
        size = min(size, key_space)
        idx = np.sort(rng.choice(key_space, size=size, replace=False)).astype(np.int64)
        val = rng.uniform(-1.0, 1.0, size=size)
        lists.append((idx, val))
    return lists


def dense_from_lists(lists, n_out):
    """Accumulated dense reference for merge outputs."""
    out = np.zeros(n_out, dtype=np.float64)
    for idx, val in lists:
        np.add.at(out, np.asarray(idx, dtype=np.int64), np.asarray(val, dtype=np.float64))
    return out
