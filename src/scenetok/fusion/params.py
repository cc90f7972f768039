"""Fusion network parameters: two geometry MLPs, a temporal embedding, and
one attention block per fused axis."""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields

import numpy as np

from ..errors import InvalidInput


@dataclass
class MlpParams:
    w1: np.ndarray  # (hidden, in)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (out, hidden)
    b2: np.ndarray  # (out,)


@dataclass
class AttentionBlockParams:
    # No key bias: a constant shift of every key cancels in the softmax,
    # so its gradient is identically zero.
    n_heads: int
    ln_gamma: np.ndarray
    ln_beta: np.ndarray
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray


@dataclass
class FusionParams:
    """All trainable tensors of the fusion network.

    The forward and backward passes compute in ``dtype``, and every output
    and gradient has it.  float64 is the test/verification mode (the
    finite-difference gradient check needs it); call ``astype(np.float32)``
    for production.
    """

    T: int
    D: int
    hidden: int
    n_heads: int
    mlp_f: MlpParams    # point xyz (3) -> D
    mlp_c: MlpParams    # box row (7) -> D
    f_temporal: np.ndarray  # (T, D)
    time_block: AttentionBlockParams
    elem_block: AttentionBlockParams

    @property
    def dtype(self):
        return self.f_temporal.dtype

    def tensors(self) -> dict[str, np.ndarray]:
        """Live name -> tensor views, in a stable order."""
        out: dict[str, np.ndarray] = {}
        for prefix, mlp in (("mlp_f", self.mlp_f), ("mlp_c", self.mlp_c)):
            for name in ("w1", "b1", "w2", "b2"):
                out[f"{prefix}.{name}"] = getattr(mlp, name)
        out["f_temporal"] = self.f_temporal
        for prefix, block in (("time", self.time_block), ("elem", self.elem_block)):
            for f in fields(block):
                if f.name != "n_heads":
                    out[f"{prefix}.{f.name}"] = getattr(block, f.name)
        return out

    def set_tensor(self, name: str, value: np.ndarray) -> None:
        part, _, leaf = name.partition(".")
        if part == "f_temporal":
            self.f_temporal = value
        elif part in ("mlp_f", "mlp_c"):
            setattr(getattr(self, part), leaf, value)
        elif part == "time":
            setattr(self.time_block, leaf, value)
        elif part == "elem":
            setattr(self.elem_block, leaf, value)
        else:
            raise KeyError(name)

    def copy(self) -> "FusionParams":
        return copy.deepcopy(self)

    def astype(self, dtype) -> "FusionParams":
        p = self.copy()
        for name, value in p.tensors().items():
            p.set_tensor(name, value.astype(dtype))
        return p


def _init_block(D: int, n_heads: int, rng, dtype) -> AttentionBlockParams:
    bound = 1.0 / np.sqrt(D)

    def u(shape):
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    return AttentionBlockParams(
        n_heads=n_heads,
        ln_gamma=np.ones(D, dtype=dtype),
        ln_beta=np.zeros(D, dtype=dtype),
        wq=u((D, D)), bq=u(D),
        wk=u((D, D)),
        wv=u((D, D)), bv=u(D),
        wo=u((D, D)), bo=u(D),
    )


def _init_mlp(n_in: int, hidden: int, n_out: int, rng, dtype) -> MlpParams:
    def u(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    return MlpParams(w1=u((hidden, n_in), n_in), b1=u(hidden, n_in),
                     w2=u((n_out, hidden), hidden), b2=u(n_out, hidden))


def init_fusion_params(T: int, D: int, hidden: int = 64, n_heads: int = 2,
                       seed: int = 0, dtype=np.float64) -> FusionParams:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization."""
    if D % n_heads != 0:
        raise InvalidInput(f"D={D} not divisible by n_heads={n_heads}")
    rng = np.random.default_rng(seed)
    return FusionParams(
        T=T, D=D, hidden=hidden, n_heads=n_heads,
        mlp_f=_init_mlp(3, hidden, D, rng, dtype),
        mlp_c=_init_mlp(7, hidden, D, rng, dtype),
        f_temporal=rng.uniform(-1.0 / np.sqrt(D), 1.0 / np.sqrt(D),
                               size=(T, D)).astype(dtype),
        time_block=_init_block(D, n_heads, rng, dtype),
        elem_block=_init_block(D, n_heads, rng, dtype),
    )

