"""Fusion-network helpers that only the tests use."""

import numpy as np
from scipy import sparse

from scenetok.errors import ShapeMismatch
from scenetok.fusion import AttentionBlockParams, FusionParams
from scenetok.fusion.layers import (LN_EPS, layernorm_forward,
                                    linear_backward, linear_forward,
                                    linear_param_grads, masked_softmax,
                                    matmul_rows, mlp2_forward,
                                    mlp2_param_grads, relu_backward)
from scenetok.fusion.network import _attention_fwd, _group_rows, _split_heads
from scenetok.pooling import cell_index, segment_sum


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
    slots, runs = _group_rows(mask, block.n_heads)
    x, cache = _attention_fwd(rows[slots], block, runs)
    run_weights = cache[3]
    out = rows.copy()
    out[slots] = x
    out = out.reshape(B, L, D)
    weights = np.zeros((B, block.n_heads, L, L), dtype=x.dtype)
    heads = np.arange(block.n_heads)[None, :, None, None]
    for (start, g, n), w in zip(runs, run_weights):
        idx = slots[start:start + g * n].reshape(g, n)
        batch = idx[:, 0] // L
        pos = idx % L
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


# ---------------------------------------------------------------------------
# the point branch as two paths, one per side of the width selection: the
# reference that ``network._pooled_point_forward`` and its backward, which
# run both sides on one path, are checked against

def pooled_point_forward_reference(P_xyz, P_ind, params, n_elem):
    """Mean-pooled MLP_f features per (element, frame) cell, with cache.

    ``hidden >= D``: the whole MLP runs per point and its D-wide output is
    pooled; the cache is ``(mlp_cache, M, counts)``.  ``hidden < D``: the
    ``hidden``-wide activations are pooled, each non-empty cell's mean is
    rounded once to ``params.dtype``, and ``W2``, ``b2`` run on the
    non-empty cells only; the cache is ``(x, h_pre, M, counts, mean_h)``.
    ``M`` is the one-hot (cells x points) pooling matrix.
    """
    cells = cell_index(P_ind, params.T)
    n_cells = n_elem * params.T
    M = sparse.csr_array((np.ones(cells.shape[0], dtype=np.int8),
                          (cells, np.arange(cells.shape[0]))),
                         shape=(n_cells, cells.shape[0]))
    x = P_xyz.astype(params.dtype)
    if params.hidden >= params.D:
        phi, mlp_cache = mlp2_forward(x, params.mlp_f)
        sums, counts = segment_sum(phi, cells, n_cells)
        pooled = np.zeros_like(sums)
        nz = counts > 0
        pooled[nz] = sums[nz] / counts[nz, None]
        pooled = pooled.reshape(n_elem, params.T, params.D).astype(params.dtype)
        return pooled, (mlp_cache, M, counts)

    p = params.mlp_f
    h_pre, _ = linear_forward(x, p.w1, p.b1)
    h = np.maximum(h_pre, 0.0)
    sums, counts = segment_sum(h, cells, n_cells)
    nz = counts > 0
    mean_h = (sums[nz] / counts[nz, None]).astype(params.dtype)
    y, _ = linear_forward(mean_h, p.w2, p.b2)
    pooled = np.zeros((n_cells, params.D), dtype=params.dtype)
    pooled[nz] = y
    return (pooled.reshape(n_elem, params.T, params.D),
            (x, h_pre, M, counts, mean_h))


def pooled_point_backward_reference(g, cache, params, n_elem):
    """Adjoint of ``pooled_point_forward_reference``: ``M.T @ (g / count)``,
    with ``g`` first taken back through ``W2`` when ``hidden < D``."""
    g = g.reshape(n_elem * params.T, params.D)
    if params.hidden >= params.D:
        mlp_cache, M, counts = cache
        scale = np.zeros(counts.shape[0])
        nz = counts > 0
        scale[nz] = 1.0 / counts[nz]
        g_cell = g * scale[:, None]
        return mlp2_param_grads(M.T @ g_cell.astype(params.dtype), mlp_cache,
                                params.mlp_f)

    x, h_pre, M, counts, mean_h = cache
    p = params.mlp_f
    nz = counts > 0
    dmean, dw2, db2 = linear_backward(g[nz], mean_h, p.w2)
    g_cell = np.zeros((counts.shape[0], params.hidden), dtype=params.dtype)
    g_cell[nz] = dmean / counts[nz, None]
    dh_pre = relu_backward(M.T @ g_cell, h_pre > 0)
    dw1, db1 = linear_param_grads(dh_pre, x)
    return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


# ---------------------------------------------------------------------------
# LayerNorm as the out-of-place formulas that ``layers.layernorm_forward``
# and ``layernorm_backward``, which run in place, must match bit for bit

def layernorm_forward_reference(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv)


def layernorm_backward_reference(g, cache, gamma):
    xhat, inv = cache
    axes = tuple(range(g.ndim - 1))
    dgamma = (g * xhat).sum(axis=axes)
    dbeta = g.sum(axis=axes)
    dxhat = g * gamma
    dx = inv * (dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# attention with Q, K and V as three separate projections and a fresh logits
# array per chunk: the formula ``network._attention_fwd``, which writes them
# into one table and one buffer, must match bit for bit

def attention_forward_reference(X, block, runs):
    """``(out, Y, Q, K, V, weights, ctx)`` of pre-norm residual attention
    among the rows of each group of X, in the chunks ``runs``."""
    D = X.shape[1]
    h = block.n_heads
    scale = 1.0 / (D // h) ** 0.5
    Y, _ = layernorm_forward(X, block.ln_gamma, block.ln_beta)
    Q, _ = linear_forward(Y, block.wq, block.bq)
    K = matmul_rows(Y, block.wk.T)
    V, _ = linear_forward(Y, block.wv, block.bv)
    ctx = np.empty_like(Q)
    weights = []
    for start, g, L in runs:
        rows = slice(start, start + g * L)
        logits = _split_heads(Q[rows], g, h) @ \
            _split_heads(K[rows], g, h).transpose(0, 1, 3, 2)
        logits *= scale
        w = masked_softmax(logits)
        np.matmul(w, _split_heads(V[rows], g, h),
                  out=_split_heads(ctx[rows], g, h))
        weights.append(w)
    out, _ = linear_forward(ctx, block.wo, block.bo)
    out += X
    return out, Y, Q, K, V, weights, ctx
