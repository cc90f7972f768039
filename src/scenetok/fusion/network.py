"""The scene-element feature extractor.

Geometry encoding sums a pooled point branch and a box branch; the fusion
block adds image, geometry, and temporal features, runs axial attention
along time then along elements, and mean-pools valid frames into one vector
per element.  Forward and backward are both hand-written so gradients can
be checked against finite differences.

There is one forward code path.  Only the training forward
(``fusion_forward``, which feeds ``fusion_loss_and_grads``) keeps what the
backward reads; ``encode_geometry`` and ``fuse_scene`` keep no backward
state, so every activation is dropped as soon as the next step has read
it.  Attention runs over chunks of whole groups whose logits hold at most
``_GROUP_BUFFER`` values, so the fusion's peak memory follows one chunk,
not the whole scene.

The fusion keeps its valid slots as one table of rows, stored in group
order for the attention block that reads them: time order (each element's
valid frames) for the time block, element order (each frame's valid
elements) for the element block.  Groups are sorted by length, so every
chunk is one contiguous run of rows that attention reads and writes
through views; the table is permuted once between the blocks, and back
to time order once for the time-mean.  LayerNorm, the ReLU adjoint and the
gradient sums run in place, in the order of the out-of-place formulas, so
each result is bit-identical to them.  Weight and bias gradients sum their
rows in the stored order.

The training cache keeps only what the backward cannot rebuild in one
cheap pass:

- the point branch, ``(x, nz, cells, counts, w2_input)``: the points in
  ``params.dtype``, the non-empty cells, each point's cell, each cell's
  count, and what ``W2`` read (the per-point ReLU output when ``hidden >=
  D``, the per-cell means when ``hidden < D``).  The ReLU's mask is
  rebuilt: from ``w2_input``, or by rerunning the first layer on ``x``.
- the box branch, ``mlp2_forward``'s ``(x, h)``.
- each attention block, ``(ln_cache, QKV, runs, weights, ctx)``: the
  LayerNorm's ``(xhat, inv)``, not its output; Q, K and V as the column
  blocks of one ``(n, 3D)`` table; the chunks; each chunk's attention
  weights, views of one buffer; and ``ctx``.
- the fusion, ``(slots_t, slots_e, to_elem, cache_t, cache_e, counts)``:
  the valid slots in both group orders, the permutation between them,
  both attention caches and each element's number of valid frames.

The geometry table does not outlive the gather of the valid rows: the
training forward hands it over to ``_fuse_fwd``, which drops it before
attention runs.  The backward writes its gradients over
the cache (``dctx`` over ``ctx``, ``dQKV`` over ``QKV``, ``dlogits`` over
the weights) and rebuilds the LayerNorm output from ``xhat``, so a
training cache feeds exactly one backward.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInput, ShapeMismatch
from ..pooling import cell_index, segment_sum
from .layers import (
    layernorm_backward,
    layernorm_forward,
    layernorm_output,
    linear_backward,
    linear_forward,
    linear_param_grads,
    masked_softmax,
    mlp2_forward,
    mlp2_param_grads,
    relu_backward,
    softmax_backward,
)
from .params import AttentionBlockParams, FusionParams

# Attention logit values per group chunk (4 MB in float64): groups of one
# length are batched until a chunk's (groups, heads, L, L) logits would hold
# more than this many values; a group larger than that is a chunk alone.
_GROUP_BUFFER = 1 << 19


# ---------------------------------------------------------------------------
# geometry encoding

def _pooled_point_forward(P_xyz, P_ind, params, n_elem, keep_cache=True):
    """Mean-pooled MLP_f features per (element, frame) cell, and its cache.

    The second layer of MLP_f is affine, so a cell's mean of
    ``relu(h) @ W2.T + b2`` equals ``mean(relu(h)) @ W2.T + b2`` in exact
    arithmetic.  The pool runs on the narrower side of ``W2``: the first
    layer and the ReLU run per point, then ``W2``, ``b2`` run per point
    before the pool when ``hidden >= D``, or on the non-empty cells after it
    when ``hidden < D``.  Each non-empty cell's float64 mean is rounded once
    to ``params.dtype``; empty cells are exact zeros.  The ReLU runs in
    place.  The cache is described in the module docstring; without
    ``keep_cache`` it is None.
    """
    p = params.mlp_f
    pool_first = params.hidden < params.D
    cells = cell_index(P_ind, params.T)
    x = P_xyz.astype(params.dtype)
    h, _ = linear_forward(x, p.w1, p.b1)
    np.maximum(h, 0, out=h)
    w2_input = h
    rows = h if pool_first else linear_forward(h, p.w2, p.b2)[0]
    del h
    sums, counts = segment_sum(rows, cells, n_elem * params.T)
    del rows
    nz = counts > 0
    mean = (sums[nz] / counts[nz, None]).astype(params.dtype)
    if pool_first:
        w2_input = mean
        mean, _ = linear_forward(mean, p.w2, p.b2)
    pooled = np.zeros((n_elem * params.T, params.D), dtype=params.dtype)
    pooled[nz] = mean
    cache = (x, nz, cells, counts, w2_input) if keep_cache else None
    return pooled.reshape(n_elem, params.T, params.D), cache


def _pooled_point_backward(g, cache, params, n_elem):
    """Adjoint of ``_pooled_point_forward``.

    The ReLU's mask is rebuilt, not cached: it is ``w2_input > 0`` when
    ``W2`` read the per-point ReLU output (``hidden >= D``), and otherwise
    the sign of the first layer's output, recomputed from ``x`` by the
    forward's own call.  The pool's adjoint gathers each point's cell
    gradient times ``1 / count``, rounded to ``params.dtype`` per cell
    before the gather; empty cells are never gathered.  When ``hidden <
    D``, ``g`` first goes back through ``W2`` on the non-empty cells, so
    the pooled gradient is ``hidden`` wide.  The gradient of the point
    coordinates is not formed.
    """
    x, nz, cells, counts, w2_input = cache
    p = params.mlp_f
    pool_first = params.hidden < params.D
    if pool_first:
        active = linear_forward(x, p.w1, p.b1)[0] > 0
    else:
        active = w2_input > 0
    g = g.reshape(n_elem * params.T, params.D)
    scale = 1.0 / np.maximum(counts, 1)
    if pool_first:
        dmean, dw2, db2 = linear_backward(g[nz], w2_input, p.w2)
        g = np.zeros((counts.shape[0], params.hidden), dtype=params.dtype)
        g[nz] = dmean
    g_pts = (g * scale[:, None]).astype(params.dtype)[cells]
    if not pool_first:
        g_pts, dw2, db2 = linear_backward(g_pts, w2_input, p.w2)
    dw1, db1 = linear_param_grads(relu_backward(g_pts, active), x)
    return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def encode_geometry(P_xyz: np.ndarray, P_ind: np.ndarray, B: np.ndarray,
                    params: FusionParams) -> np.ndarray:
    """Per-element geometry features: pooled point branch + box branch.

    Empty (element, frame) cells contribute zeros from the pooled term; the
    box MLP is applied to every row of B, including zero-padded ones.  No
    backward state is kept: the per-point activations are dropped once
    they are pooled.
    """
    F_geo, _ = _encode_geometry_fwd(P_xyz, P_ind, B, params, keep_cache=False)
    return F_geo


def _encode_geometry_fwd(P_xyz, P_ind, B, params, keep_cache=True):
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
    # A point pools into cell token * T + frame, so a frame id outside
    # [0, T) would land in another element's cell.
    frame, token = P_ind[:, 0], P_ind[:, 1]
    bad = (frame < 0) | (frame >= params.T) | (token < 0) | (token >= n_elem)
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidInput(
            f"P_ind row {i} is (frame {frame[i]}, token {token[i]}); frames "
            f"must lie in [0, {params.T}) and tokens in [0, {n_elem})")

    F_geo, pool_cache = _pooled_point_forward(P_xyz, P_ind, params, n_elem,
                                              keep_cache)
    box_flat, box_cache = mlp2_forward(
        B.reshape(n_elem * params.T, 7).astype(params.dtype), params.mlp_c)
    F_geo += box_flat.reshape(n_elem, params.T, params.D)
    return F_geo, ((pool_cache, box_cache, n_elem) if keep_cache else None)


def _encode_geometry_bwd(dF_geo, cache, params):
    pool_cache, box_cache, n_elem = cache
    grads = {}
    # Boxes are inputs, so only the box MLP's own gradients are formed.
    c_grads = mlp2_param_grads(
        dF_geo.reshape(n_elem * params.T, params.D), box_cache, params.mlp_c)
    for k, v in c_grads.items():
        grads[f"mlp_c.{k}"] = v
    f_grads = _pooled_point_backward(dF_geo, pool_cache, params, n_elem)
    for k, v in f_grads.items():
        grads[f"mlp_f.{k}"] = v
    return grads


# ---------------------------------------------------------------------------
# axial attention

def _group_rows(valid, heads):
    """The valid slots of ``valid`` (groups, L) in group order, in runs.

    Groups are stably sorted by their number of valid slots, and each
    group's valid slots follow in ascending order, so the groups of one
    length form one contiguous run of rows.  Returns the flat indices of
    the slots into ``valid`` and the runs as ``(start, groups, L)`` chunks:
    each holds as many groups as keep its ``(groups, heads, L, L)`` logits
    within ``_GROUP_BUFFER`` values, and at least one.  Groups without a
    valid slot have no rows.
    """
    valid = np.asarray(valid, dtype=bool)
    sizes = valid.sum(axis=1)
    order = np.argsort(sizes, kind="stable")
    width = valid.shape[1]
    slots = (order[:, None] * width + np.arange(width))[valid[order]]
    runs, start = [], 0
    lengths, counts = np.unique(sizes[sizes > 0], return_counts=True)
    for L, n in zip(lengths.tolist(), counts.tolist()):
        step = max(1, _GROUP_BUFFER // (heads * L * L))
        for first in range(0, n, step):
            groups = min(step, n - first)
            runs.append((start, groups, L))
            start += groups * L
    return slots, runs


def _split_heads(Z, groups, h):
    """(groups * L, D) rows -> a (groups, heads, L, D / heads) view."""
    return Z.reshape(groups, -1, h, Z.shape[1] // h).transpose(0, 2, 1, 3)


def _attention_fwd(X, block: AttentionBlockParams, runs, keep_cache=True):
    """Pre-norm residual attention among the rows of each group of X (n, D).

    The rows of X are in group order (see ``_group_rows``): ``runs`` lists
    ``(start, groups, L)`` chunks that together cover every row exactly
    once, chunk ``(s, g, L)`` holding groups of L consecutive rows from row
    ``s`` on.  A row attends to the L rows of its own group, all of them
    valid keys.  Q, K and V are the column blocks of one ``(n, 3D)`` table
    ``QKV``, each projected from the LayerNorm output by its own GEMM
    written into its block, which equals the separate products bit for bit.
    Each chunk runs as one batch on views of ``QKV`` and ``ctx``, so no
    chunk gathers or scatters rows, and its ``(g, heads, L, L)`` logits are
    a view of one buffer.

    Returns the output rows and the cache (see the module docstring), which
    feeds exactly one ``_attention_bwd``.  Without ``keep_cache`` the cache
    is None, one logits buffer the size of the largest chunk serves every
    chunk, and the LayerNorm output, ``QKV`` and the weights are dropped
    once read.
    """
    n, D = X.shape
    h = block.n_heads
    scale = 1.0 / (D // h) ** 0.5
    Y, ln_cache = layernorm_forward(X, block.ln_gamma, block.ln_beta)
    ln_cache = ln_cache if keep_cache else None  # only the backward reads it
    QKV = np.empty((n, 3 * D), dtype=Y.dtype)
    Q, K, V = (QKV[:, i * D:(i + 1) * D] for i in range(3))
    np.matmul(Y, block.wq.T, out=Q)
    np.matmul(Y, block.wk.T, out=K)
    np.matmul(Y, block.wv.T, out=V)
    Q += block.bq
    V += block.bv
    del Y

    sizes = [g * h * L * L for _, g, L in runs]
    logits = np.empty(sum(sizes) if keep_cache else max(sizes, default=0),
                      dtype=QKV.dtype)
    ctx = np.empty((n, D), dtype=QKV.dtype)
    weights, offset = [], 0
    for (start, g, L), size in zip(runs, sizes):
        rows = slice(start, start + g * L)
        w = logits[offset:offset + size].reshape(g, h, L, L)
        np.matmul(_split_heads(Q[rows], g, h),
                  _split_heads(K[rows], g, h).transpose(0, 1, 3, 2), out=w)
        w *= scale
        w = masked_softmax(w)
        np.matmul(w, _split_heads(V[rows], g, h),
                  out=_split_heads(ctx[rows], g, h))
        if keep_cache:
            weights.append(w)
            offset += size
    cache = (ln_cache, QKV, runs, weights, ctx) if keep_cache else None
    del QKV, Q, K, V, logits
    out, _ = linear_forward(ctx, block.wo, block.bo)
    out += X
    return out, cache


def _attention_bwd(g, block: AttentionBlockParams, cache):
    """Adjoint of ``_attention_fwd`` on rows in the same group order.

    The backward writes over its cache, which therefore feeds exactly one
    backward: ``dctx`` over ``ctx``; per chunk ``dV`` over V, ``dlogits``
    over the chunk's weights, ``dK`` over K and ``dQ`` over Q, so ``QKV``
    becomes ``dQKV``; then the rebuilt LayerNorm output and ``dY`` over
    ``dctx``.  Each chunk's ``dweights`` goes into one scratch buffer.  The
    Q/K/V weight gradients are one GEMM ``dQKV.T @ Y``, and ``dY`` is one
    GEMM ``dQKV @ [wq; wk; wv]``, a single sum over all ``3D`` columns.
    The returned input gradient is ``ctx``'s buffer.
    """
    ln_cache, QKV, runs, weights, ctx = cache
    D = g.shape[1]
    h = block.n_heads
    scale = 1.0 / (D // h) ** 0.5

    dwo, dbo = linear_param_grads(g, ctx)
    dctx = np.matmul(g, block.wo, out=ctx)
    Q, K, V = (QKV[:, i * D:(i + 1) * D] for i in range(3))
    scratch = np.empty(max((w.size for w in weights), default=0),
                       dtype=QKV.dtype)
    for (start, c, L), w in zip(runs, weights):
        rows = slice(start, start + c * L)
        dctx_h = _split_heads(dctx[rows], c, h)
        Qh, Kh, Vh = (_split_heads(Z[rows], c, h) for Z in (Q, K, V))
        dweights = np.matmul(dctx_h, Vh.transpose(0, 1, 3, 2),
                             out=scratch[:w.size].reshape(w.shape))
        np.matmul(w.transpose(0, 1, 3, 2), dctx_h, out=Vh)
        dlogits = softmax_backward(dweights, w)
        # the chunk's dctx rows are spent: they hold dK until Q is read
        np.matmul(dlogits.transpose(0, 1, 3, 2), Qh, out=dctx_h)
        np.matmul(dlogits, Kh, out=Qh)
        Qh *= scale
        np.multiply(dctx_h, scale, out=Kh)
    del scratch

    dbq, dbv = Q.sum(axis=0), V.sum(axis=0)
    Y = layernorm_output(ln_cache[0], block.ln_gamma, block.ln_beta, out=ctx)
    dW = QKV.T @ Y
    dY = np.matmul(QKV, np.concatenate((block.wq, block.wk, block.wv)),
                   out=Y)
    dX, dgamma, dbeta = layernorm_backward(dY, ln_cache, block.ln_gamma)
    dX += g
    grads = {"ln_gamma": dgamma, "ln_beta": dbeta,
             "wq": dW[:D], "bq": dbq, "wk": dW[D:2 * D],
             "wv": dW[2 * D:], "bv": dbv, "wo": dwo, "bo": dbo}
    return dX, grads


# ---------------------------------------------------------------------------
# fusion

def _masked_time_mean_fwd(x, elem, runs, n_elem):
    """Mean of each element's rows of ``x`` (n, D), and each element's count.

    The rows are in time order (see ``_group_rows``): ``elem`` (n,) names
    each row's element, and ``runs`` lists the ``(start, groups, L)`` chunks
    whose groups of L consecutive rows are one element's valid frames,
    ascending.  Each group's rows are summed one at a time in that order and
    divided by L; an element without rows has a zero mean.  That is
    ``pooling.masked_mean`` over the zero-filled ``(n_elem, T, D)`` table
    bit for bit, except that an exactly-zero sum may differ in sign: the
    masked sum also adds the zeros of the invalid slots.  Returns
    ``(means (n_elem, D), counts (n_elem,))``.
    """
    means = np.zeros((n_elem, x.shape[1]), dtype=x.dtype)
    counts = np.zeros(n_elem, dtype=np.int64)
    for start, g, L in runs:
        owner = elem[start:start + g * L:L]
        means[owner] = x[start:start + g * L].reshape(g, L, -1).sum(axis=1)
        counts[owner] = L
    nz = counts > 0
    means[nz] /= counts[nz, None]
    return means, counts


def _fuse_fwd(F_img, F_geo, params: FusionParams, elem_valid,
              keep_cache=True):
    """Fusion forward on the valid (element, frame) slots only.

    ``F_geo`` is the ``(n_elem, T, D)`` geometry table, or a one-element
    list holding it, which this function empties once it has gathered the
    valid rows: a caller that keeps no other reference to the table hands
    it over, and it is freed before attention runs.

    ``X0 = F_img + F_geo + f_temporal`` is formed on the valid slots only,
    gathered once into a compact table of rows in time order: elements
    stably sorted by their number of valid frames, each element's valid
    frames ascending.  Time attention runs within each element's rows.  The
    rows are then permuted once into element order: frames stably sorted
    by their number of valid elements, each frame's valid elements
    ascending.  Element attention runs within each frame's rows.  In both
    orders the groups of one length are one contiguous run of rows, so
    attention reads and writes them through views.  The rows go back to
    time order once, where the time-mean sums each element's contiguous
    rows, so invalid slots never reach ``F_elem``.  Without ``keep_cache``
    the cache is None and neither attention block keeps backward state.
    """
    if isinstance(F_geo, list):
        F_geo = F_geo.pop()
    if F_img.shape != F_geo.shape:
        raise ShapeMismatch(f"F_img {F_img.shape} vs F_geo {F_geo.shape}")
    n_elem, T, D = F_img.shape
    if T != params.T or D != params.D:
        raise ShapeMismatch(
            f"inputs are (., {T}, {D}) but params expect (., {params.T}, {params.D})")
    if elem_valid.shape != (n_elem, T):
        raise ShapeMismatch(f"elem_valid {elem_valid.shape} != ({n_elem}, {T})")

    slots_t, runs_t = _group_rows(elem_valid, params.time_block.n_heads)
    frame_major, runs_e = _group_rows(elem_valid.T, params.elem_block.n_heads)
    slots_e = frame_major % n_elem * T + frame_major // n_elem
    rank = np.empty(n_elem * T, dtype=np.intp)
    rank[slots_t] = np.arange(slots_t.size)
    to_elem = rank[slots_e]  # the time-order row of each element-order row
    # Each step rebinds x, so only the rows the next step reads stay alive.
    x = F_img.reshape(-1, D)[slots_t].astype(params.dtype, copy=False)
    x += F_geo.reshape(-1, D)[slots_t].astype(params.dtype, copy=False)
    del F_geo
    x += params.f_temporal[slots_t % T]
    x, cache_t = _attention_fwd(x, params.time_block, runs_t,
                                keep_cache=keep_cache)
    x = x[to_elem]
    x, cache_e = _attention_fwd(x, params.elem_block, runs_e,
                                keep_cache=keep_cache)
    x_t = np.empty_like(x)
    x_t[to_elem] = x
    del x
    F_elem, counts = _masked_time_mean_fwd(x_t, slots_t // T, runs_t, n_elem)
    cache = (slots_t, slots_e, to_elem, cache_t, cache_e, counts)
    return F_elem, (cache if keep_cache else None)


def _fuse_bwd(dF_elem, cache, params: FusionParams, elem_valid):
    """Adjoint of ``_fuse_fwd``; it writes over both attention caches."""
    slots_t, slots_e, to_elem, cache_t, cache_e, counts = cache
    n_elem, T = elem_valid.shape
    # A valid slot's gradient is its element's over the element's valid
    # frames; an element with no valid frame has no slot to read it.
    scale = (1.0 / np.maximum(counts, 1)).astype(dF_elem.dtype)
    dx = (dF_elem * scale[:, None])[slots_e // T]
    dx, grads_e = _attention_bwd(dx, params.elem_block, cache_e)
    dx_t = np.empty_like(dx)
    dx_t[to_elem] = dx
    del dx
    dx, grads_t = _attention_bwd(dx_t, params.time_block, cache_t)
    del dx_t
    D = dx.shape[1]
    dX0 = np.zeros((n_elem, T, D), dtype=dx.dtype)
    dX0.reshape(n_elem * T, D)[slots_t] = dx
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
    valid frame come out as zero rows.  No backward state is kept: each
    activation is dropped once read, and attention runs in chunks of whole
    groups whose logits hold at most ``_GROUP_BUFFER`` values.
    """
    F_elem, _ = _fuse_fwd(F_img, F_geo, params, elem_valid, keep_cache=False)
    return F_elem


def fusion_forward(params: FusionParams, P_xyz, P_ind, B, F_img, elem_valid):
    """Full forward: geometry encoding then spatial-temporal fusion.

    Returns ``(F_elem, geo_cache, fuse_cache)``; the caches (see the module
    docstring) feed exactly one backward, and this is the only caller that
    keeps them.  The geometry table is handed over to ``_fuse_fwd``, so it
    is freed before attention runs.
    """
    F_geo, geo_cache = _encode_geometry_fwd(P_xyz, P_ind, B, params)
    handed = [F_geo]
    del F_geo
    F_elem, fuse_cache = _fuse_fwd(F_img, handed, params, elem_valid)
    return F_elem, geo_cache, fuse_cache


def fusion_loss_and_grads(params: FusionParams, P_xyz, P_ind, B, F_img,
                          elem_valid):
    """Scalar loss sum(F_elem^2) plus analytic gradients for every tensor."""
    F_elem, geo_cache, fuse_cache = fusion_forward(
        params, P_xyz, P_ind, B, F_img, elem_valid)
    loss = float((F_elem ** 2).sum())
    dF_elem = 2.0 * F_elem
    dX0, grads = _fuse_bwd(dF_elem, fuse_cache, params, elem_valid)
    del fuse_cache  # spent: the geometry backward runs without it
    grads.update(_encode_geometry_bwd(dX0, geo_cache, params))
    return loss, grads
