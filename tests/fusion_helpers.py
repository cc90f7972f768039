"""Fusion-network helpers that only the tests use."""

import numpy as np

from scenetok.errors import ShapeMismatch
from scenetok.fusion import AttentionBlockParams, FusionParams
from scenetok.fusion.network import _attention_fwd


def attn_along_axis(F: np.ndarray, axis: str, block: AttentionBlockParams,
                    key_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head self-attention along one axis of an (N_elem, T, D) tensor.

    ``axis`` is "time" or "element"; the other axis is treated as batch.
    ``key_mask`` is (N_elem, T), true for valid slots.  Returns the fused
    tensor and the attention weights (rows over valid keys sum to 1; rows
    with no valid key are all zero and pass the input through).
    """
    F = np.asarray(F)
    if F.ndim != 3:
        raise ShapeMismatch(f"expected (N_elem, T, D), got {F.shape}")
    if key_mask.shape != F.shape[:2]:
        raise ShapeMismatch(
            f"mask shape {key_mask.shape} does not match {F.shape[:2]}")
    if axis == "time":
        out, weights, _ = _attention_fwd(F, block, key_mask)
        return out, weights
    if axis == "element":
        out, weights, _ = _attention_fwd(F.transpose(1, 0, 2), block, key_mask.T)
        return out.transpose(1, 0, 2), weights
    raise ValueError(f"axis must be 'time' or 'element', got {axis!r}")


def zero_attention_output(params: FusionParams) -> FusionParams:
    """Residual-only mode: both attention blocks contribute exactly zero."""
    p = params.copy()
    for block in (p.time_block, p.elem_block):
        block.wo = np.zeros_like(block.wo)
        block.bo = np.zeros_like(block.bo)
    return p
