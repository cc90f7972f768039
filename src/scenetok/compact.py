"""Budgeted multi-frame compaction.

Each kind's points (agent, open-set, ground merged across frames) are
uniformly subsampled to their point budget and gathered into one cloud with
a (frame id, token id) index per point; per-element image features are
pooled per frame.  The number of points per frame is variable; only the
per-kind totals are fixed.
"""

from __future__ import annotations

import numpy as np

from .bundle import KIND_CODES, KIND_OPENSET, TokenizedScene
from .config import PipelineConfig
from .errors import BudgetMismatch
from .pooling import cell_index, segment_sum


def downsample(pool_size: int, budget: int, seed: int) -> np.ndarray:
    """Indices of a uniform sample without replacement, sorted ascending.

    Keeps everything when the pool fits the budget.  Sampling is over the
    merged pool, so per-frame counts come out variable (hypergeometric).
    """
    if budget <= 0:
        raise ValueError("budget must be > 0")
    if pool_size <= budget:
        return np.arange(pool_size, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(pool_size, size=budget, replace=False))


def build_tokenized_scene(P_xyz: np.ndarray, P_ind: np.ndarray,
                          F_pts: np.ndarray, F_pts_valid: np.ndarray,
                          B: np.ndarray, elem_valid: np.ndarray,
                          kind: np.ndarray, source_id: np.ndarray,
                          config: PipelineConfig) -> TokenizedScene:
    """Assemble the compacted tensors from the downsampled points.

    ``P_ind`` rows are (frame id, token id) and ``F_pts`` rows are aligned
    with ``P_xyz``; the element table (``B``, ``elem_valid``, ``kind``,
    ``source_id``) has one row per token id.  Raises BudgetMismatch if any
    kind's points exceed its budget (totals only reach the configured N_pts
    when every kind saturates its budget) or if ``F_pts`` is not
    row-aligned.
    """
    counts = np.bincount(kind[P_ind[:, 1]], minlength=len(KIND_CODES))
    budgets = (config.n_pts_agent, config.n_pts_openset, config.n_pts_ground)
    for name, code in KIND_CODES.items():  # codes 0, 1, 2 index budgets
        if counts[code] > budgets[code]:
            raise BudgetMismatch(f"{name} pool has {counts[code]} points, "
                                 f"budget is {budgets[code]}")
    if F_pts.shape[0] != P_xyz.shape[0]:
        raise BudgetMismatch(
            f"F_pts has {F_pts.shape[0]} rows for {P_xyz.shape[0]} points")

    return TokenizedScene(P_xyz=P_xyz, P_ind=np.asarray(P_ind, dtype=np.int64),
                          F_pts=F_pts, F_pts_valid=F_pts_valid,
                          B=B, elem_valid=elem_valid, kind=kind,
                          source_id=source_id)


def pool_image_features(F_pts: np.ndarray, F_pts_valid: np.ndarray,
                        P_ind: np.ndarray, kinds: np.ndarray,
                        n_elem: int, T: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean image feature per (element, frame) cell.

    Only points with a valid image feature contribute: their row indices
    are the columns of the one-hot pooling matrix, so the valid rows of
    ``F_pts`` are pooled without being copied out.  Empty cells are zero and
    invalid.  Open-set elements are additionally averaged over their
    non-empty frames and the result broadcast to every frame slot, matching
    the store-once temporal pooling of dynamic elements.
    """
    D = F_pts.shape[1]
    sums, counts, _ = segment_sum(F_pts, cell_index(P_ind, T), n_elem * T,
                                  rows=np.flatnonzero(F_pts_valid))
    F_img = np.zeros((n_elem * T, D))
    nonzero = counts > 0
    F_img[nonzero] = sums[nonzero] / counts[nonzero, None]
    F_img = F_img.reshape(n_elem, T, D)
    F_img_valid = nonzero.reshape(n_elem, T)

    openset = np.asarray(kinds) == KIND_CODES[KIND_OPENSET]
    if openset.any():
        valid_f = F_img_valid[openset]  # (n_open, T)
        n_valid = valid_f.sum(axis=1)
        avg = (F_img[openset] * valid_f[:, :, None]).sum(axis=1)
        has = n_valid > 0
        avg[has] /= n_valid[has, None]
        F_img[openset] = avg[:, None, :]
        F_img_valid[openset] = has[:, None]
    return F_img, F_img_valid


__all__ = ["downsample", "build_tokenized_scene", "pool_image_features"]
