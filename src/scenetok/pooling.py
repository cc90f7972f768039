"""Segment pooling: group per-point features by (token id, frame id) cells.

``segment_sum`` sums each cell's point rows; its adjoint is the gather
``g[cell]``.  Given pixel ids, a point's row is read through its id into a
shared table, so image features are pooled straight from the camera pixel
table and no per-point copy of them is made; a point whose id is -1 reads
nothing.  ``masked_mean`` averages each element's rows over its valid
frames.
"""

from __future__ import annotations

import numpy as np

# Float64 values per pooling chunk (4 MB): whole cells are gathered and
# widened to float64 until a chunk holds about this many values, so no
# float64 copy of the full input is made.  At D=256 a chunk is ~2048 points.
_POOL_BUFFER = 1 << 19


def cell_index(P_ind: np.ndarray, T: int) -> np.ndarray:
    """Flat cell id ``token_id * T + frame_id`` for each point."""
    return P_ind[:, 1] * T + P_ind[:, 0]


def point_features(values: np.ndarray, pixel: np.ndarray) -> np.ndarray:
    """(N, D) rows ``values[pixel[i]]`` in ``values``' dtype, at least
    float32; rows whose ``pixel`` is -1 are zero.  Gathers in chunks of
    about ``_POOL_BUFFER`` values."""
    out = np.zeros((pixel.shape[0], values.shape[1]),
                   dtype=np.result_type(np.float32, values.dtype))
    rows = np.flatnonzero(pixel >= 0)
    step = max(1, _POOL_BUFFER // max(values.shape[1], 1))
    for a in range(0, rows.size, step):
        out[rows[a:a + step]] = np.take(values, pixel[rows[a:a + step]], axis=0)
    return out


def segment_sum(values: np.ndarray, cell: np.ndarray, n_cells: int,
                pixel: np.ndarray | None = None,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Sum each point's row of ``values`` into ``n_cells`` buckets.

    ``cell`` (N,) gives each point's bucket.  Without ``pixel``, point i
    reads row i of ``values`` (N, D).  With ``pixel`` (N,), point i reads
    row ``pixel[i]`` of a shared table, and points whose id is -1 take no
    part.

    Returns (sums (n_cells, D) float64, counts (n_cells,) int64): each
    cell's sum of the rows its points read, and its number of points.

    Sums accumulate in float64 whatever the input dtype.  The one-hot
    (n_cells, N) CSR matrix ``M`` of points is walked in chunks of whole
    cells of about ``_POOL_BUFFER`` values: each chunk's points are
    gathered, widened to float64 and reduced by the chunk's slice of ``M``.
    Each sum adds its points one at a time in ascending point order,
    starting from 0.0: a sum equals a sequential float64 scatter-add in
    index order.
    """
    from scipy import sparse  # loaded on first use, not on import

    cell = np.asarray(cell, dtype=np.int32)
    rows = (np.arange(cell.shape[0], dtype=np.int32) if pixel is None
            else np.flatnonzero(pixel >= 0).astype(np.int32))
    M = sparse.csr_array((np.ones(rows.shape[0], dtype=np.int8), (cell[rows], rows)),
                         shape=(n_cells, cell.shape[0]))
    read = M.indices if pixel is None else pixel[M.indices]
    D = values.shape[1]
    sums = np.zeros((n_cells, D), dtype=np.float64)
    indptr = M.indptr
    step = max(1, _POOL_BUFFER // max(D, 1))
    c0 = 0
    while c0 < n_cells:
        a = int(indptr[c0])
        # the most cells whose points fit in a chunk, and at least one
        c1 = max(c0 + 1, int(np.searchsorted(indptr, a + step, side="right")) - 1)
        b = indptr[c1]
        if b > a:
            local = sparse.csr_array(
                (M.data[a:b], np.arange(b - a, dtype=np.int32), indptr[c0:c1 + 1] - a),
                shape=(c1 - c0, b - a))
            chunk = np.take(values, read[a:b], axis=0)
            sums[c0:c1] = local @ chunk.astype(np.float64, copy=False)
        c0 = c1
    return sums, np.diff(indptr).astype(np.int64)


def masked_mean(X: np.ndarray, valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of each row of ``X`` (n, T, D) over its ``valid`` (n, T) slots.

    Returns (means (n, D), counts (n,)).  Invalid slots are multiplied by
    zero, so they must be finite; a row with no valid slot has a zero mean.
    """
    counts = valid.sum(axis=1)
    out = (X * valid[:, :, None]).sum(axis=1)
    nz = counts > 0
    out[nz] /= counts[nz, None]
    out[~nz] = 0.0
    return out, counts
