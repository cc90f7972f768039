"""Fusion-network helpers that only the tests use."""

import numpy as np

from scenetok.errors import ShapeMismatch
from scenetok.fusion import AttentionBlockParams, FusionParams
from scenetok.fusion.network import _attention_fwd, _slot_groups


def attn_along_axis(F: np.ndarray, axis: str, block: AttentionBlockParams,
                    key_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head self-attention along one axis of an (N_elem, T, D) tensor.

    ``axis`` is "time" or "element"; the other axis is treated as batch.
    ``key_mask`` is (N_elem, T), true for valid slots.  Valid slots attend
    to the valid slots of their batch row; invalid slots pass their input
    through.  Returns the fused tensor and the attention weights scattered
    into a zero (batch, heads, L, L) array: a valid query's row over the
    valid keys sums to 1, and every other entry is 0.
    """
    F = np.asarray(F)
    if F.ndim != 3:
        raise ShapeMismatch(f"expected (N_elem, T, D), got {F.shape}")
    if key_mask.shape != F.shape[:2]:
        raise ShapeMismatch(
            f"mask shape {key_mask.shape} does not match {F.shape[:2]}")
    if axis == "time":
        X, mask = F, key_mask
    elif axis == "element":
        X, mask = F.transpose(1, 0, 2), key_mask.T
    else:
        raise ValueError(f"axis must be 'time' or 'element', got {axis!r}")
    B, L, D = X.shape
    rows = X.reshape(B * L, D)
    slots = np.flatnonzero(mask.ravel())
    groups = _slot_groups(mask.sum(axis=1))
    x, group_weights, _ = _attention_fwd(rows[slots], block, groups)
    out = rows.copy()
    out[slots] = x
    out = out.reshape(B, L, D)
    weights = np.zeros((B, block.n_heads, L, L), dtype=x.dtype)
    heads = np.arange(block.n_heads)[None, :, None, None]
    for idx, w in zip(groups, group_weights):
        batch = slots[idx[:, 0]] // L
        pos = slots[idx] % L
        weights[batch[:, None, None, None], heads, pos[:, None, :, None],
                pos[:, None, None, :]] = w
    if axis == "element":
        out = out.transpose(1, 0, 2)
    return out, weights


def zero_attention_output(params: FusionParams) -> FusionParams:
    """Residual-only mode: both attention blocks contribute exactly zero."""
    p = params.copy()
    for block in (p.time_block, p.elem_block):
        block.wo = np.zeros_like(block.wo)
        block.bo = np.zeros_like(block.bo)
    return p
