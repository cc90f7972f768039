"""Multi-modality scene tokenization.

Converts multi-frame LiDAR point clouds, perception agent boxes, and camera
feature maps into a fixed budget of scene-element tokens: ground tiles,
agents, and open-set clusters, each fused into a single embedding by a
spatial-temporal attention network.
"""

from .bench import BenchReport, bench_tokenize
from .bundle import (
    KIND_AGENT,
    KIND_GROUND,
    KIND_OPENSET,
    SceneBundle,
    SceneElement,
    SceneTokens,
    TokenizedScene,
    check_bundle,
    validate_bundle,
)
from .compact import build_tokenized_scene, downsample, pool_image_features
from .config import ClusterConfig, PipelineConfig, RansacConfig, TrackConfig
from .decompose import (
    LABEL_AGENT,
    LABEL_DISCARDED,
    LABEL_GROUND,
    LABEL_OPENSET,
    PointPartition,
    cluster_open_set,
    extract_agent_elements,
    fit_tight_box,
)
from .fusion import (
    FusionParams,
    encode_geometry,
    fuse_scene,
    grad_check,
    init_fusion_params,
)
from .ground import GroundPlane, fit_ground_plane, segment_ground, tile_ground
from .pipeline import TokenizeResult, assign_token_ids, tokenize_bundle
from .projection import build_point_features, pixel_index, project_points
from .storage import (
    load_pipeline_config,
    read_fusion_params,
    read_scene_bundle,
    read_tokens,
    save_pipeline_config,
    write_fusion_params,
    write_scene_bundle,
    write_tokens,
)
from .synthetic import SceneSpec, SyntheticScene, drop_agents, generate_scene
from .tracking import associate, predict, track_open_set, update

__version__ = "0.1.0"
