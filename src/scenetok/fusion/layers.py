"""Differentiable primitives for the fusion network.

Each forward returns (output, cache); the matching backward consumes the
upstream gradient plus the cache and returns gradients for inputs and
parameters.  Everything is plain numpy so the analytic gradients can be
validated against finite differences in float64.  Every output keeps the
dtype of the parameters: scalars are Python floats, which NumPy 2 does not
let promote a float32 array.
"""

from __future__ import annotations

import numpy as np

LN_EPS = 1e-5


def matmul_rows(x, w):
    """x @ w over the last axis of x (..., k), as one 2-D GEMM.

    ``x @ w`` on a 3-D x runs one small GEMM per leading index; flattening
    the leading axes runs a single large one.
    """
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def linear_forward(x, w, b):
    """y = x @ w.T + b with x (..., in), w (out, in), b (out,)."""
    y = matmul_rows(x, w.T)
    y += b
    return y, x


def linear_backward(g, x, w):
    gf = g.reshape(-1, g.shape[-1])
    xf = x.reshape(-1, x.shape[-1])
    dx = matmul_rows(g, w)
    dw = gf.T @ xf
    db = gf.sum(axis=0)
    return dx, dw, db


def relu_backward(g, h):
    """``g`` where the ReLU output ``h`` is positive, zero elsewhere.

    ``h > 0`` equals ``h_pre > 0`` for ``h = max(h_pre, 0)``, so a ReLU can
    run in place and keep only its output.
    """
    return g * (h > 0)


def mlp2_forward(x, p):
    """Two-layer MLP with ReLU: x -> hidden -> out.

    The ReLU runs in place on the hidden activations; the cache is
    ``(x, h)``.
    """
    h, _ = linear_forward(x, p.w1, p.b1)
    np.maximum(h, 0, out=h)
    y, _ = linear_forward(h, p.w2, p.b2)
    return y, (x, h)


def mlp2_backward(g, cache, p):
    x, h = cache
    dh, dw2, db2 = linear_backward(g, h, p.w2)
    dh_pre = relu_backward(dh, h)
    dx, dw1, db1 = linear_backward(dh_pre, x, p.w1)
    return dx, {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def layernorm_forward(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv)


def layernorm_backward(g, cache, gamma):
    xhat, inv = cache
    axes = tuple(range(g.ndim - 1))
    dgamma = (g * xhat).sum(axis=axes)
    dbeta = g.sum(axis=axes)
    dxhat = g * gamma
    dx = inv * (dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dgamma, dbeta


def masked_softmax(logits):
    """Softmax over the last axis, computed in ``logits``, which is returned.

    Every key is valid: the fusion block gathers the valid slots of each
    attention group before it calls this, so nothing is masked.  The name
    is kept because it is the span name perfbench traces
    (``fusion.masked_softmax``).
    """
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def softmax_backward(g, w):
    """``w * (g - (g * w).sum(-1))``, written into ``g``, which is returned."""
    g -= (g * w).sum(axis=-1, keepdims=True)
    g *= w
    return g
