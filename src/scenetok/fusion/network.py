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

def _attention_fwd(X, block: AttentionBlockParams, key_valid):
    """Pre-norm residual attention along the middle axis of X (B, L, D).

    Slots with key_valid False are excluded as keys.  When a row of the
    batch has no valid key at all, its attention contribution is zero and
    the output equals the input.
    """
    B, L, D = X.shape
    h = block.n_heads
    dh = D // h
    scale = 1.0 / dh ** 0.5
    Y, ln_cache = layernorm_forward(X, block.ln_gamma, block.ln_beta)
    Q, _ = linear_forward(Y, block.wq, block.bq)
    K = matmul_rows(Y, block.wk.T)
    V, _ = linear_forward(Y, block.wv, block.bv)

    def split(Z):
        return Z.reshape(B, L, h, dh).transpose(0, 2, 1, 3)

    Qh, Kh, Vh = split(Q), split(K), split(V)
    logits = Qh @ Kh.transpose(0, 1, 3, 2)
    logits *= scale
    weights = masked_softmax(logits, key_valid)
    ctx_h = weights @ Vh
    ctx = ctx_h.transpose(0, 2, 1, 3).reshape(B, L, D)
    A, _ = linear_forward(ctx, block.wo, block.bo)
    any_valid = key_valid.any(axis=1)
    A = np.where(any_valid[:, None, None], A, 0.0)
    out = X + A
    cache = (Y, ln_cache, Qh, Kh, Vh, weights, ctx, any_valid)
    return out, weights, cache


def _attention_bwd(g, X, block: AttentionBlockParams, cache):
    Y, ln_cache, Qh, Kh, Vh, weights, ctx, any_valid = cache
    B, L, D = X.shape
    h = block.n_heads
    dh = D // h
    scale = 1.0 / dh ** 0.5

    dA = np.where(any_valid[:, None, None], g, 0.0)
    dctx, dwo, dbo = linear_backward(dA, ctx, block.wo)
    dctx_h = dctx.reshape(B, L, h, dh).transpose(0, 2, 1, 3)

    dweights = dctx_h @ Vh.transpose(0, 1, 3, 2)
    dVh = weights.transpose(0, 1, 3, 2) @ dctx_h
    dlogits = softmax_backward(dweights, weights)
    dQh = dlogits @ Kh
    dQh *= scale
    dKh = dlogits.transpose(0, 1, 3, 2) @ Qh
    dKh *= scale

    def merge(Zh):
        return Zh.transpose(0, 2, 1, 3).reshape(B, L, D)

    dQ, dK, dV = merge(dQh), merge(dKh), merge(dVh)
    dYq, dwq, dbq = linear_backward(dQ, Y, block.wq)
    dYk = matmul_rows(dK, block.wk)
    dwk = dK.reshape(-1, D).T @ Y.reshape(-1, D)
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
    X1, w_t, cache_t = _attention_fwd(X0, params.time_block, elem_valid)
    X1e = X1.transpose(1, 0, 2)
    X2e, w_e, cache_e = _attention_fwd(X1e, params.elem_block, elem_valid.T)
    X2 = X2e.transpose(1, 0, 2)
    F_elem, counts = _masked_time_mean_fwd(X2, elem_valid)
    cache = (X0, cache_t, X1, X1e, cache_e, counts)
    return F_elem, (w_t, w_e), cache


def _fuse_bwd(dF_elem, cache, params: FusionParams, elem_valid):
    X0, cache_t, X1, X1e, cache_e, counts = cache
    dX2 = _masked_time_mean_bwd(dF_elem, elem_valid, counts)
    dX2e = dX2.transpose(1, 0, 2)
    dX1e, grads_e = _attention_bwd(dX2e, X1e, params.elem_block, cache_e)
    dX1 = dX1e.transpose(1, 0, 2)
    dX0, grads_t = _attention_bwd(dX1, X0, params.time_block, cache_t)
    grads = {f"elem.{k}": v for k, v in grads_e.items()}
    grads.update({f"time.{k}": v for k, v in grads_t.items()})
    grads["f_temporal"] = dX0.sum(axis=0)
    return dX0, grads


def fuse_scene(F_img: np.ndarray, F_geo: np.ndarray, params: FusionParams,
               elem_valid: np.ndarray) -> np.ndarray:
    """Fuse image + geometry + temporal features into one vector per element.

    Adds the three inputs, attends along time then along elements (invalid
    slots masked out as keys), and mean-pools each element over its valid
    frames.  Elements with no valid frame come out as zero rows.
    """
    F_elem, _, _ = _fuse_fwd(F_img, F_geo, params, elem_valid)
    return F_elem


def fusion_forward(params: FusionParams, P_xyz, P_ind, B, F_img, elem_valid):
    """Full forward: geometry encoding then spatial-temporal fusion."""
    F_geo, geo_cache = _encode_geometry_fwd(P_xyz, P_ind, B, params)
    F_elem, weights, fuse_cache = _fuse_fwd(F_img, F_geo, params, elem_valid)
    return F_elem, weights, (geo_cache, fuse_cache)


def fusion_loss_and_grads(params: FusionParams, P_xyz, P_ind, B, F_img,
                          elem_valid):
    """Scalar loss sum(F_elem^2) plus analytic gradients for every tensor."""
    F_elem, _, (geo_cache, fuse_cache) = fusion_forward(
        params, P_xyz, P_ind, B, F_img, elem_valid)
    loss = float((F_elem ** 2).sum())
    dF_elem = 2.0 * F_elem
    dX0, grads = _fuse_bwd(dF_elem, fuse_cache, params, elem_valid)
    grads.update(_encode_geometry_bwd(dX0, geo_cache, params))
    return loss, grads
