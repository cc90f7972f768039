"""Budgeted multi-frame compaction.

Class pools (ground merged across frames, agent, open-set) are uniformly
subsampled to their point budgets, concatenated into one cloud with a
(frame id, token id) index per point, and per-element image features are
pooled per frame.  The number of points per frame is variable; only the
per-kind totals are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import KIND_CODES, KIND_OPENSET, SceneElement, TokenizedScene
from .config import PipelineConfig
from .errors import BudgetMismatch
from .pooling import cell_index, segment_sum


@dataclass
class PointPool:
    """All surviving points of one element kind, before downsampling."""

    xyz: np.ndarray        # (M, 3)
    frame_ids: np.ndarray  # (M,)
    token_ids: np.ndarray  # (M,)

    def __len__(self) -> int:
        return self.xyz.shape[0]

    @staticmethod
    def empty() -> "PointPool":
        return PointPool(np.empty((0, 3)), np.empty(0, dtype=np.int64),
                         np.empty(0, dtype=np.int64))


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


def build_tokenized_scene(pools: dict[str, PointPool], F_pts: np.ndarray,
                          F_pts_valid: np.ndarray,
                          elements: list[SceneElement],
                          config: PipelineConfig) -> TokenizedScene:
    """Assemble the compacted tensors from downsampled class pools.

    ``pools`` maps kind -> already-downsampled PointPool; ``F_pts`` rows are
    aligned with the pools concatenated in (agent, open-set, ground) order.
    Raises BudgetMismatch if any pool exceeds its budget (totals only reach
    the configured N_pts when every pool saturates its budget).
    """
    budgets = {"agent": config.n_pts_agent, "open-set": config.n_pts_openset,
               "ground": config.n_pts_ground}
    order = ("agent", "open-set", "ground")
    for kind in order:
        got = len(pools.get(kind, PointPool.empty()))
        if got > budgets[kind]:
            raise BudgetMismatch(
                f"{kind} pool has {got} points, budget is {budgets[kind]}")

    parts = [pools.get(kind, PointPool.empty()) for kind in order]
    P_xyz = np.concatenate([p.xyz for p in parts], axis=0)
    P_ind = np.stack([np.concatenate([p.frame_ids for p in parts]),
                      np.concatenate([p.token_ids for p in parts])], axis=1)

    if F_pts.shape[0] != P_xyz.shape[0]:
        raise BudgetMismatch(
            f"F_pts has {F_pts.shape[0]} rows for {P_xyz.shape[0]} points")

    n_elem = len(elements)
    B = np.zeros((n_elem, config.T, 7))
    elem_valid = np.zeros((n_elem, config.T), dtype=bool)
    for el in elements:
        B[el.token_id] = el.boxes
        elem_valid[el.token_id] = el.frame_valid

    return TokenizedScene(P_xyz=P_xyz, P_ind=P_ind.astype(np.int64),
                          F_pts=F_pts, F_pts_valid=F_pts_valid,
                          B=B, elem_valid=elem_valid, elements=elements)


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


__all__ = ["PointPool", "downsample", "build_tokenized_scene",
           "pool_image_features"]
