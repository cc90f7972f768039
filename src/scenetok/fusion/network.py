"""The scene-element feature extractor.

Geometry encoding sums a pooled point branch and a box branch; the fusion
block adds image, geometry, and temporal features, runs axial attention
along time then along elements, and mean-pools valid frames into one vector
per element.  Forward and backward are both hand-written so gradients can
be checked against finite differences.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch
from ..pooling import cell_index, segment_sum
from .layers import (
    layernorm_backward,
    layernorm_forward,
    linear_backward,
    linear_forward,
    masked_softmax,
    matmul_rows,
    mlp2_backward,
    mlp2_forward,
    relu_backward,
    relu_forward,
    softmax_backward,
)
from .params import AttentionBlockParams, FusionParams


# ---------------------------------------------------------------------------
# geometry encoding

def _pooled_point_forward(P_xyz, P_ind, params, n_elem):
    """Mean-pooled MLP_f features per (element, frame) cell, with cache.

    Pooling is ``M @ rows`` with the one-hot (cells x points) matrix ``M``,
    which the cache keeps for the backward pass.  Empty cells are exact
    zeros.

    The second layer of MLP_f is affine, so a cell's mean of
    ``relu(h) @ W2.T + b2`` equals ``mean(relu(h)) @ W2.T + b2`` in exact
    arithmetic.  The pool runs on the narrower side of ``W2``:

    - ``hidden < D``: the first layer and the ReLU run per point, the
      ``hidden``-wide activations are pooled, each non-empty cell's mean is
      rounded once to ``params.dtype``, and ``W2``, ``b2`` run on the
      non-empty cells only.  The cache is ``(x, h_pre, M, counts, mean_h)``.
    - ``hidden >= D``: the whole MLP runs per point and its D-wide output is
      pooled.  The cache is ``(mlp_cache, M, counts)``.
    """
    cells = cell_index(P_ind, params.T)
    n_cells = n_elem * params.T
    x = P_xyz.astype(params.dtype)
    if params.hidden >= params.D:
        phi, mlp_cache = mlp2_forward(x, params.mlp_f)
        sums, counts, M = segment_sum(phi, cells, n_cells)
        pooled = np.zeros_like(sums)
        nz = counts > 0
        pooled[nz] = sums[nz] / counts[nz, None]
        pooled = pooled.reshape(n_elem, params.T, params.D).astype(params.dtype)
        return pooled, (mlp_cache, M, counts)

    p = params.mlp_f
    h_pre, _ = linear_forward(x, p.w1, p.b1)
    h, _ = relu_forward(h_pre)
    sums, counts, M = segment_sum(h, cells, n_cells)
    nz = counts > 0
    mean_h = (sums[nz] / counts[nz, None]).astype(params.dtype)
    y, _ = linear_forward(mean_h, p.w2, p.b2)
    pooled = np.zeros((n_cells, params.D), dtype=params.dtype)
    pooled[nz] = y
    return (pooled.reshape(n_elem, params.T, params.D),
            (x, h_pre, M, counts, mean_h))


def _pooled_point_backward(g, cache, params, n_elem):
    """Adjoint of ``_pooled_point_forward``, on the side the forward pooled.

    The pool's adjoint is ``M.T @ (g / count)``.  ``g / count`` is rounded
    to ``params.dtype`` before the product: each point has exactly one
    nonzero in ``M``, so this is the same rounding as after it, without a
    float64 (points x width) intermediate.  When ``hidden < D``, ``g`` first
    goes back through ``W2`` on the non-empty cells, so the pooled
    gradient is ``hidden`` wide.
    """
    g = g.reshape(n_elem * params.T, params.D)
    if params.hidden >= params.D:
        mlp_cache, M, counts = cache
        scale = np.zeros(counts.shape[0])
        nz = counts > 0
        scale[nz] = 1.0 / counts[nz]
        g_cell = g * scale[:, None]
        _, grads = mlp2_backward(M.T @ g_cell.astype(params.dtype), mlp_cache,
                                 params.mlp_f)
        return grads

    x, h_pre, M, counts, mean_h = cache
    p = params.mlp_f
    nz = counts > 0
    dmean, dw2, db2 = linear_backward(g[nz], mean_h, p.w2)
    g_cell = np.zeros((counts.shape[0], params.hidden), dtype=params.dtype)
    g_cell[nz] = dmean / counts[nz, None]
    dh_pre = relu_backward(M.T @ g_cell, h_pre)
    _, dw1, db1 = linear_backward(dh_pre, x, p.w1)
    return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def encode_geometry(P_xyz: np.ndarray, P_ind: np.ndarray, B: np.ndarray,
                    params: FusionParams) -> np.ndarray:
    """Per-element geometry features: pooled point branch + box branch.

    Empty (element, frame) cells contribute zeros from the pooled term; the
    box MLP is applied to every row of B, including zero-padded ones.
    """
    F_geo, _ = _encode_geometry_fwd(P_xyz, P_ind, B, params)
    return F_geo


def _encode_geometry_fwd(P_xyz, P_ind, B, params):
    P_xyz = np.asarray(P_xyz)
    P_ind = np.asarray(P_ind)
    B = np.asarray(B)
    if P_xyz.ndim != 2 or P_xyz.shape[1] != 3:
        raise ShapeMismatch(f"P_xyz must be (N, 3), got {P_xyz.shape}")
    if P_ind.shape != (P_xyz.shape[0], 2):
        raise ShapeMismatch(f"P_ind must be ({P_xyz.shape[0]}, 2), got {P_ind.shape}")
    if B.ndim != 3 or B.shape[1] != params.T or B.shape[2] != 7:
        raise ShapeMismatch(f"B must be (n_elem, {params.T}, 7), got {B.shape}")
    n_elem = B.shape[0]

    pooled, pool_cache = _pooled_point_forward(P_xyz, P_ind, params, n_elem)
    box_flat, box_cache = mlp2_forward(
        B.reshape(n_elem * params.T, 7).astype(params.dtype), params.mlp_c)
    F_geo = pooled + box_flat.reshape(n_elem, params.T, params.D)
    return F_geo, (pool_cache, box_cache, n_elem)


def _encode_geometry_bwd(dF_geo, cache, params):
    pool_cache, box_cache, n_elem = cache
    grads = {}
    _, c_grads = mlp2_backward(
        dF_geo.reshape(n_elem * params.T, params.D), box_cache, params.mlp_c)
    for k, v in c_grads.items():
        grads[f"mlp_c.{k}"] = v
    f_grads = _pooled_point_backward(dF_geo, pool_cache, params, n_elem)
    for k, v in f_grads.items():
        grads[f"mlp_f.{k}"] = v
    return grads


# ---------------------------------------------------------------------------
# axial attention

def _slot_groups(sizes, order=None):
    """Row-index matrices of the attention groups, one per group length.

    Group i holds the ``sizes[i]`` rows that follow the earlier groups in
    ``order`` (default: the row order itself).  Groups of one length are
    stacked into one ``(groups, length)`` matrix, so each length runs as
    one batch; empty groups have no rows and are left out.
    """
    starts = np.cumsum(sizes) - sizes
    mats = []
    for L in np.unique(sizes[sizes > 0]):
        idx = starts[sizes == L][:, None] + np.arange(L)
        mats.append(idx if order is None else order[idx])
    return mats


def _attention_fwd(X, block: AttentionBlockParams, groups):
    """Pre-norm residual attention among the rows of each group of X (n, D).

    ``groups`` is a list of ``(g, L)`` row-index matrices that together
    cover every row exactly once (see ``_slot_groups``); a row attends to
    the L rows of its own group, all of them valid keys.  Returns the
    output rows, the per-group attention weights ``(g, heads, L, L)`` and
    the cache.
    """
    D = X.shape[1]
    h = block.n_heads
    dh = D // h
    scale = 1.0 / dh ** 0.5
    Y, ln_cache = layernorm_forward(X, block.ln_gamma, block.ln_beta)
    Q, _ = linear_forward(Y, block.wq, block.bq)
    K = matmul_rows(Y, block.wk.T)
    V, _ = linear_forward(Y, block.wv, block.bv)

    ctx = np.empty_like(Q)
    weights = []
    for idx in groups:
        logits = _split_heads(Q[idx], h) @ \
            _split_heads(K[idx], h).transpose(0, 1, 3, 2)
        logits *= scale
        w = masked_softmax(logits)
        ctx[idx] = _merge_heads(w @ _split_heads(V[idx], h))
        weights.append(w)
    out, _ = linear_forward(ctx, block.wo, block.bo)
    out += X
    cache = (Y, ln_cache, Q, K, V, groups, weights, ctx)
    return out, weights, cache


def _split_heads(Z, h):
    """(g, L, D) -> (g, heads, L, D / heads)."""
    g, L, D = Z.shape
    return Z.reshape(g, L, h, D // h).transpose(0, 2, 1, 3)


def _merge_heads(Zh):
    """(g, heads, L, dh) -> (g, L, heads * dh)."""
    g, h, L, dh = Zh.shape
    return Zh.transpose(0, 2, 1, 3).reshape(g, L, h * dh)


def _attention_bwd(g, block: AttentionBlockParams, cache):
    Y, ln_cache, Q, K, V, groups, weights, ctx = cache
    D = g.shape[1]
    h = block.n_heads
    scale = 1.0 / (D // h) ** 0.5

    dctx, dwo, dbo = linear_backward(g, ctx, block.wo)
    dQ = np.empty_like(Q)
    dK = np.empty_like(K)
    dV = np.empty_like(V)
    for idx, w in zip(groups, weights):
        dctx_h = _split_heads(dctx[idx], h)
        dweights = dctx_h @ _split_heads(V[idx], h).transpose(0, 1, 3, 2)
        dV[idx] = _merge_heads(w.transpose(0, 1, 3, 2) @ dctx_h)
        dlogits = softmax_backward(dweights, w)
        dQh = dlogits @ _split_heads(K[idx], h)
        dQh *= scale
        dQ[idx] = _merge_heads(dQh)
        dKh = dlogits.transpose(0, 1, 3, 2) @ _split_heads(Q[idx], h)
        dKh *= scale
        dK[idx] = _merge_heads(dKh)

    dYq, dwq, dbq = linear_backward(dQ, Y, block.wq)
    dYk = matmul_rows(dK, block.wk)
    dwk = dK.T @ Y
    dYv, dwv, dbv = linear_backward(dV, Y, block.wv)
    dY = dYq + dYk + dYv
    dX_ln, dgamma, dbeta = layernorm_backward(dY, ln_cache, block.ln_gamma)
    dX = g + dX_ln
    grads = {"ln_gamma": dgamma, "ln_beta": dbeta,
             "wq": dwq, "bq": dbq, "wk": dwk,
             "wv": dwv, "bv": dbv, "wo": dwo, "bo": dbo}
    return dX, grads


# ---------------------------------------------------------------------------
# fusion

def _masked_time_mean_fwd(X, elem_valid):
    counts = elem_valid.sum(axis=1)
    out = (X * elem_valid[:, :, None]).sum(axis=1)
    nz = counts > 0
    out[nz] /= counts[nz, None]
    out[~nz] = 0.0
    return out, counts


def _masked_time_mean_bwd(g, elem_valid, counts):
    scale = np.zeros(counts.shape[0], dtype=g.dtype)
    nz = counts > 0
    scale[nz] = 1.0 / counts[nz]
    return g[:, None, :] * (elem_valid[:, :, None] * scale[:, None, None])


def _fuse_fwd(F_img, F_geo, params: FusionParams, elem_valid):
    """Fusion forward on the valid (element, frame) slots only.

    The valid slots of ``X0`` are gathered once into a compact table of
    rows in element-major order.  Time attention runs within each
    element's valid frames, element attention within each frame's valid
    elements (in element order).  The result is scattered back into a zero
    ``(n_elem, T, D)`` array for the masked time-mean, so invalid slots
    never reach ``F_elem``.
    """
    if F_img.shape != F_geo.shape:
        raise ShapeMismatch(f"F_img {F_img.shape} vs F_geo {F_geo.shape}")
    n_elem, T, D = F_img.shape
    if T != params.T or D != params.D:
        raise ShapeMismatch(
            f"inputs are (., {T}, {D}) but params expect (., {params.T}, {params.D})")
    if elem_valid.shape != (n_elem, T):
        raise ShapeMismatch(f"elem_valid {elem_valid.shape} != ({n_elem}, {T})")

    X0 = F_img.astype(params.dtype) + F_geo.astype(params.dtype) \
        + params.f_temporal[None, :, :]
    slots = np.flatnonzero(elem_valid.ravel())
    time_groups = _slot_groups(elem_valid.sum(axis=1))
    elem_groups = _slot_groups(elem_valid.sum(axis=0),
                               np.argsort(slots % T, kind="stable"))
    # Each step rebinds x, so only the rows the next step reads stay alive.
    x = X0.reshape(-1, D)[slots]
    del X0
    x, _, cache_t = _attention_fwd(x, params.time_block, time_groups)
    x, _, cache_e = _attention_fwd(x, params.elem_block, elem_groups)
    X2 = np.zeros((n_elem, T, D), dtype=x.dtype)
    X2.reshape(-1, D)[slots] = x
    del x
    F_elem, counts = _masked_time_mean_fwd(X2, elem_valid)
    return F_elem, (slots, cache_t, cache_e, counts)


def _fuse_bwd(dF_elem, cache, params: FusionParams, elem_valid):
    slots, cache_t, cache_e, counts = cache
    n_elem, T = elem_valid.shape
    dX2 = _masked_time_mean_bwd(dF_elem, elem_valid, counts)
    dx2 = dX2.reshape(n_elem * T, -1)[slots]
    dx1, grads_e = _attention_bwd(dx2, params.elem_block, cache_e)
    dx0, grads_t = _attention_bwd(dx1, params.time_block, cache_t)
    dX0 = np.zeros_like(dX2)
    dX0.reshape(n_elem * T, -1)[slots] = dx0
    grads = {f"elem.{k}": v for k, v in grads_e.items()}
    grads.update({f"time.{k}": v for k, v in grads_t.items()})
    grads["f_temporal"] = dX0.sum(axis=0)
    return dX0, grads


def fuse_scene(F_img: np.ndarray, F_geo: np.ndarray, params: FusionParams,
               elem_valid: np.ndarray) -> np.ndarray:
    """Fuse image + geometry + temporal features into one vector per element.

    Adds the three inputs, attends along time then along elements among the
    valid slots only, and mean-pools each element over its valid frames.
    Values at invalid slots never reach the output, and elements with no
    valid frame come out as zero rows.
    """
    F_elem, _ = _fuse_fwd(F_img, F_geo, params, elem_valid)
    return F_elem


def fusion_forward(params: FusionParams, P_xyz, P_ind, B, F_img, elem_valid):
    """Full forward: geometry encoding then spatial-temporal fusion.

    Returns ``(F_elem, geo_cache, fuse_cache)``; the caches feed the
    backward pass.
    """
    F_geo, geo_cache = _encode_geometry_fwd(P_xyz, P_ind, B, params)
    F_elem, fuse_cache = _fuse_fwd(F_img, F_geo, params, elem_valid)
    return F_elem, geo_cache, fuse_cache


def fusion_loss_and_grads(params: FusionParams, P_xyz, P_ind, B, F_img,
                          elem_valid):
    """Scalar loss sum(F_elem^2) plus analytic gradients for every tensor."""
    F_elem, geo_cache, fuse_cache = fusion_forward(
        params, P_xyz, P_ind, B, F_img, elem_valid)
    loss = float((F_elem ** 2).sum())
    dF_elem = 2.0 * F_elem
    dX0, grads = _fuse_bwd(dF_elem, fuse_cache, params, elem_valid)
    grads.update(_encode_geometry_bwd(dX0, geo_cache, params))
    return loss, grads
