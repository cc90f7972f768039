from .gradcheck import compare_grads, finite_difference_grads, grad_check
from .network import (
    encode_geometry,
    fuse_scene,
    fusion_forward,
    fusion_loss_and_grads,
)
from .params import (
    AttentionBlockParams,
    FusionParams,
    MlpParams,
    init_fusion_params,
)

__all__ = [
    "AttentionBlockParams",
    "FusionParams",
    "MlpParams",
    "compare_grads",
    "encode_geometry",
    "finite_difference_grads",
    "fuse_scene",
    "fusion_forward",
    "fusion_loss_and_grads",
    "grad_check",
    "init_fusion_params",
]
