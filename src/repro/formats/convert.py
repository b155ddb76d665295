"""Conversions between the sparse formats.

All conversions are loss-free and preserve the canonical within-row /
within-column ordering that the merge machinery depends on.
"""

from __future__ import annotations

import numpy as np

from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix


def csr_rows(coo: COOMatrix) -> tuple[np.ndarray, np.ndarray | None]:
    """``coo``'s CSR row offsets and the order that groups its triples by row.

    Returns:
        ``(row_ptr, order)``: ``order`` is None when the rows never
        decrease (RM-COO, or rows in order with columns in any order),
        and otherwise a stable argsort of the rows, so each row keeps
        its triples' relative order.
    """
    counts = np.bincount(coo.rows, minlength=coo.n_rows)
    row_ptr = np.zeros(coo.n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    rows = coo.rows
    if rows.size < 2 or (rows[1:] >= rows[:-1]).all():
        return row_ptr, None
    return row_ptr, np.argsort(rows, kind="stable")


def coo_to_csr(coo: COOMatrix) -> CSRMatrix:
    """Convert RM-COO to CSR.

    RM-COO triples only need the row-pointer prefix sum; triples whose
    rows decrease somewhere (``COOMatrix`` accepts them) are first
    grouped by row (:func:`csr_rows`).
    """
    row_ptr, order = csr_rows(coo)
    if order is None:
        return CSRMatrix(coo.n_rows, coo.n_cols, row_ptr, coo.cols.copy(), coo.vals.copy())
    return CSRMatrix(coo.n_rows, coo.n_cols, row_ptr, coo.cols[order], coo.vals[order])


def csr_to_coo(csr: CSRMatrix) -> COOMatrix:
    """Convert CSR to RM-COO by materializing per-nonzero row indices."""
    return COOMatrix(csr.n_rows, csr.n_cols, csr.expand_rows(), csr.cols.copy(), csr.vals.copy())


def coo_to_csc(coo: COOMatrix) -> CSCMatrix:
    """Convert RM-COO to CSC (re-sorts by ``(col, row)``)."""
    order = np.lexsort((coo.rows, coo.cols))
    rows = coo.rows[order]
    cols = coo.cols[order]
    vals = coo.vals[order]
    counts = np.bincount(cols, minlength=coo.n_cols)
    col_ptr = np.zeros(coo.n_cols + 1, dtype=np.int64)
    np.cumsum(counts, out=col_ptr[1:])
    return CSCMatrix(coo.n_rows, coo.n_cols, col_ptr, rows, vals)


def csc_to_coo(csc: CSCMatrix) -> COOMatrix:
    """Convert CSC to RM-COO (re-sorts by ``(row, col)``)."""
    return COOMatrix.from_triples(
        csc.n_rows, csc.n_cols, csc.rows, csc.expand_cols(), csc.vals, sum_duplicates=False
    )
