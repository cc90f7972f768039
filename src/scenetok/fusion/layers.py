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


def linear_param_grads(g, x):
    """``(dw, db)`` of ``linear_forward``: sums over every row of ``g``."""
    gf = g.reshape(-1, g.shape[-1])
    return gf.T @ x.reshape(-1, x.shape[-1]), gf.sum(axis=0)


def linear_backward(g, x, w):
    return (matmul_rows(g, w), *linear_param_grads(g, x))


def relu_backward(g, active):
    """``g`` where ``active`` is true, zero elsewhere, written into ``g``,
    which is returned.

    ``active`` is ``h > 0`` for the ReLU output ``h``, which equals
    ``h_pre > 0`` for ``h = max(h_pre, 0)``: a ReLU can run in place and
    keep only its output, or only that mask.
    """
    g *= active
    return g


def mlp2_forward(x, p):
    """Two-layer MLP with ReLU: x -> hidden -> out.

    The ReLU runs in place on the hidden activations; the cache is
    ``(x, h)``.
    """
    h, _ = linear_forward(x, p.w1, p.b1)
    np.maximum(h, 0, out=h)
    y, _ = linear_forward(h, p.w2, p.b2)
    return y, (x, h)


def mlp2_param_grads(g, cache, p):
    """Weight and bias gradients of ``mlp2_forward``; the gradient of its
    input is not formed."""
    x, h = cache
    dh, dw2, db2 = linear_backward(g, h, p.w2)
    dw1, db1 = linear_param_grads(relu_backward(dh, h > 0), x)
    return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def layernorm_forward(x, gamma, beta):
    """LayerNorm over the last axis; the cache is ``(xhat, inv)``.

    ``gamma * xhat + beta`` with ``xhat = (x - mu) * inv`` and
    ``inv = 1 / sqrt(mean((x - mu) ** 2) + LN_EPS)``, evaluated step by step
    in two buffers, ``xhat`` and the output, so it is bit-identical to the
    out-of-place formula.  ``x`` is not written.
    """
    xhat = x - x.mean(axis=-1, keepdims=True)
    y = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + LN_EPS)
    xhat *= inv
    return layernorm_output(xhat, gamma, beta, out=y), (xhat, inv)


def layernorm_output(xhat, gamma, beta, out):
    """``gamma * xhat + beta``, written into ``out``, which is returned.

    These are the operations ``layernorm_forward`` ends with, so a backward
    that keeps only the cache ``(xhat, inv)`` rebuilds the output bit for
    bit.
    """
    np.multiply(xhat, gamma, out=out)
    out += beta
    return out


def layernorm_backward(g, cache, gamma):
    """Adjoint of ``layernorm_forward``; ``dx`` is written into ``g``.

    ``dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))`` with
    ``dxhat = g * gamma``, evaluated in that order in ``g`` and one scratch
    buffer, so it is bit-identical to the formula.
    """
    xhat, inv = cache
    axes = tuple(range(g.ndim - 1))
    t = np.multiply(g, xhat)
    dgamma = t.sum(axis=axes)
    dbeta = g.sum(axis=axes)
    g *= gamma
    np.multiply(g, xhat, out=t)
    m2 = t.mean(axis=-1, keepdims=True)
    g -= g.mean(axis=-1, keepdims=True)
    np.multiply(xhat, m2, out=t)
    g -= t
    g *= inv
    return g, dgamma, dbeta


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
    """``w * (g - (g * w).sum(-1))``, written into ``w``, which is returned.

    ``g`` is overwritten too.  The product is formed as ``w *= g``, which
    equals ``g * w`` bit for bit.
    """
    g -= (g * w).sum(axis=-1, keepdims=True)
    w *= g
    return w
