"""Segment pooling: group per-point features by (token id, frame id) cells.

All pooling is one sparse one-hot matrix ``M`` (cells x points): the
forward reduction is ``M @ X`` and its adjoint is ``M.T @ g``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


def cell_index(P_ind: np.ndarray, T: int) -> np.ndarray:
    """Flat cell id ``token_id * T + frame_id`` for each point."""
    return P_ind[:, 1] * T + P_ind[:, 0]


def segment_sum(values: np.ndarray, cell: np.ndarray, n_cells: int,
                rows: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, sparse.csr_array]:
    """Sum rows of ``values`` (N, D) into ``n_cells`` buckets.

    ``cell`` (N,) gives each row's bucket.  ``rows``, if given, lists the
    rows that take part; the others are skipped by the product, so a subset
    of ``values`` is pooled without being copied out.

    Returns (sums (n_cells, D) float64, counts (n_cells,), M), where ``M`` is
    the one-hot (n_cells, N) CSR matrix with ``sums = M @ values``.  ``M``
    holds int8 ones and int32 indices, so the fusion cache that keeps it for
    the backward pass stays small.  ``values`` is cast to float64 first, so
    sums accumulate in float64 whatever the input dtype.  Each CSR row adds
    its points one at a time in ascending row order: a sum equals a
    sequential float64 scatter-add in index order.
    """
    cell = np.asarray(cell, dtype=np.int32)
    rows = (np.arange(cell.shape[0], dtype=np.int32) if rows is None
            else np.asarray(rows, dtype=np.int32))
    M = sparse.csr_array((np.ones(rows.shape[0], dtype=np.int8), (cell[rows], rows)),
                         shape=(n_cells, values.shape[0]))
    return (M @ values.astype(np.float64, copy=False),
            np.diff(M.indptr).astype(np.int64), M)
