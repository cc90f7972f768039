"""End-to-end tokenization: bundle in, scene-element tokens out.

Stage order: ground plane, per-frame decomposition, open-set tracking,
token-id assignment + downsampling, camera projection, compaction, and
(when fusion parameters are supplied) the fusion forward pass.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import compact, decompose, ground, projection, tracking
from .bundle import SceneBundle, SceneTokens, TokenizedScene, validate_bundle
from .config import PipelineConfig
from .errors import BudgetOverflowWarning, ShapeMismatch
from .fusion import FusionParams, encode_geometry, fuse_scene

STAGES = ("ground", "decompose", "track", "project", "compact", "fuse")


@dataclass
class TokenizeResult:
    scene: TokenizedScene
    tokens: SceneTokens | None
    partition: decompose.PointPartition
    plane: ground.GroundPlane | None
    F_img: np.ndarray
    F_img_valid: np.ndarray
    timings: dict[str, float] = field(default_factory=dict)


def _keep_largest(counts: np.ndarray, budget: int) -> np.ndarray:
    """Indices of the ``budget`` largest counts, ascending; the lower index
    wins a tie."""
    if counts.size <= budget:
        return np.arange(counts.size)
    return np.sort(np.argsort(-counts, kind="stable")[:budget])


def assign_token_ids(agent_ids: np.ndarray, agent_boxes: np.ndarray,
                     agent_valid: np.ndarray, openset_points: np.ndarray,
                     ground_points: np.ndarray, config: PipelineConfig,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the three element budgets to a scene's candidate blocks.

    The blocks are the agent tracks (ascending ``agent_ids``, with (n, T, 7)
    boxes and (n, T) validity), the open-set tracks and the occupied ground
    cells (each with its point count).  Over budget, the agents nearest the
    origin (mean box-centre distance over valid frames) are kept, and the
    tracks and cells with the most points, the lower index on a tie.
    Agent and open-set drops warn; ground drops are silent.  Returns the
    kept rows of each block, ascending, in token order.
    """
    keep_agent = np.arange(agent_ids.size)
    if agent_ids.size > config.n_elem_agent:
        centre_dist = np.linalg.norm(agent_boxes[:, :, :3], axis=2)
        n_valid = agent_valid.sum(axis=1)
        mean_dist = np.empty(agent_ids.size)
        # Tracks with the same number of valid frames are averaged as one
        # contiguous block, so each mean sums its distances in the order a
        # per-track ``mean()`` does.
        for k in np.unique(n_valid):
            rows = np.flatnonzero(n_valid == k)
            mean_dist[rows] = centre_dist[rows][agent_valid[rows]].reshape(
                -1, k).mean(axis=1)
        keep_agent = np.sort(np.argsort(mean_dist, kind="stable")
                             [:config.n_elem_agent])
    keep_openset = _keep_largest(openset_points, config.n_elem_openset)

    for name, budget, rule, ids, keep in (
            ("agent", config.n_elem_agent, "farthest", agent_ids, keep_agent),
            ("open-set", config.n_elem_openset, "smallest",
             np.arange(openset_points.size), keep_openset)):
        if keep.size < ids.size:
            dropped = np.delete(ids, keep).tolist()
            warnings.warn(f"{name} budget {budget} exceeded by "
                          f"{len(dropped)}; dropped {rule} tracks {dropped}",
                          BudgetOverflowWarning)
    return (keep_agent, keep_openset,
            _keep_largest(ground_points, config.n_elem_ground))


def tokenize_bundle(bundle: SceneBundle, config: PipelineConfig,
                    params: FusionParams | None = None,
                    validate: bool = True) -> TokenizeResult:
    """Run the full tokenization pipeline on one scene."""
    if validate:
        validate_bundle(bundle, config)

    timings: dict[str, float] = dict.fromkeys(STAGES, 0.0)
    T = config.T

    t0 = time.perf_counter()
    total_points = sum(f.points.shape[0] for f in bundle.frames)
    if total_points >= 3:
        plane, ground_masks = ground.fit_and_segment(bundle.frames, config)
    else:
        plane = None
        ground_masks = [np.zeros(f.points.shape[0], dtype=bool)
                        for f in bundle.frames]
    timings["ground"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    boxes_by_frame: dict[int, list] = {}
    for box in bundle.agents:
        boxes_by_frame.setdefault(box.frame_index, []).append(box)

    labels, agent_track, cluster_id, cluster_points, cluster_size = ([], [], [],
                                                                      [], [])
    for f, frame in enumerate(bundle.frames):
        lab, atr, cid = decompose.decompose_frame(
            frame.points, ground_masks[f], boxes_by_frame.get(f, []),
            config.cluster.radius_m, config.cluster.min_points)
        labels.append(lab)
        agent_track.append(atr)
        cluster_id.append(cid)
        # One stable sort groups each cluster's points in their frame order.
        sizes = np.bincount(cid[cid >= 0])
        by_cluster = np.argsort(cid, kind="stable")[cid.size - sizes.sum():]
        cluster_points.append(frame.points[by_cluster])
        cluster_size.append(sizes)
    # Every cluster of every frame, boxed in one call; frame f's cluster c is
    # row cluster_base[f] + c of the flat cluster arrays.
    cluster_base = np.cumsum([0] + [sizes.size for sizes in cluster_size])
    cluster_size = np.concatenate([np.empty(0, dtype=np.int64), *cluster_size])
    cluster_boxes = decompose.fit_tight_box(
        np.concatenate([np.empty((0, 3)), *cluster_points]), cluster_size)
    frame_boxes = np.split(cluster_boxes, cluster_base[1:-1])
    partition = decompose.PointPartition(labels=labels, agent_track=agent_track,
                                         cluster_id=cluster_id)
    timings["decompose"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    members = tracking.track_open_set(frame_boxes, T, config.track)
    timings["track"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    # Every point attribute as one flat array, in frame order.
    n_points = [frame.points.shape[0] for frame in bundle.frames]
    xyz = np.concatenate([np.empty((0, 3))]
                         + [frame.points for frame in bundle.frames])
    point_frame = np.repeat(np.arange(len(n_points)), n_points)
    lab, point_track, point_cluster = (
        np.concatenate([np.empty(0, dtype=np.int64), *per_frame])
        for per_frame in (labels, agent_track, cluster_id))

    # The candidate element table, in token-block order: agent tracks by
    # ascending track id, open-set tracks by index, every occupied ground
    # cell.  Block b holds kind code b.
    box_track = np.array([box.track_id for box in bundle.agents],
                         dtype=np.int64)
    box_frame = np.array([box.frame_index for box in bundle.agents],
                         dtype=np.int64)
    agent_ids, agent_rank = np.unique(box_track, return_inverse=True)
    agent_boxes = np.zeros((agent_ids.size, T, 7))
    agent_boxes[agent_rank, box_frame] = np.array(
        [box.row() for box in bundle.agents]).reshape(-1, 7)
    agent_valid = np.zeros((agent_ids.size, T), dtype=bool)
    agent_valid[agent_rank, box_frame] = True

    # Each (track, frame) entry of the member table names one cluster row.
    member_track, member_frame = np.nonzero(members >= 0)
    member_row = cluster_base[member_frame] + members[member_track,
                                                      member_frame]
    openset_boxes = np.zeros((len(members), T, 7))
    openset_boxes[member_track, member_frame] = cluster_boxes[member_row]
    openset_points = np.bincount(member_track, cluster_size[member_row],
                                 minlength=len(members))

    is_ground = lab == decompose.LABEL_GROUND
    ground_boxes, ground_points, cell_of_point = ground.tile_ground(
        xyz[is_ground], config.tile_size_m, T)

    blocks = (agent_ids.size, len(members), ground_points.size)
    block_base = np.cumsum((0,) + blocks)
    kept = np.concatenate([base + keep for base, keep in zip(
        block_base, assign_token_ids(agent_ids, agent_boxes, agent_valid,
                                     openset_points, ground_points, config))])
    B = np.concatenate([agent_boxes, openset_boxes, ground_boxes])[kept]
    elem_valid = np.concatenate([agent_valid, members >= 0,
                                 np.ones((blocks[2], T), dtype=bool)])[kept]
    kind = np.repeat(np.arange(3), blocks)[kept]
    source_id = np.concatenate([agent_ids, np.arange(blocks[1]),
                                np.arange(blocks[2])])[kept]

    # Each point's candidate row (-1: none) is looked up in one row -> token
    # map, whose extra last entry sends row -1 to token -1.
    token_of_row = np.full(block_base[-1] + 1, -1, dtype=np.int64)
    token_of_row[kept] = np.arange(kept.size)
    cluster_row = np.full(cluster_base[-1], -1, dtype=np.int64)
    cluster_row[member_row] = block_base[1] + member_track
    point_row = np.full(lab.size, -1, dtype=np.int64)
    point_row[is_ground] = block_base[2] + cell_of_point
    # Every agent point's track id is one of the bundle's.
    is_agent = lab == decompose.LABEL_AGENT
    point_row[is_agent] = np.searchsorted(agent_ids, point_track[is_agent])
    is_open = lab == decompose.LABEL_OPENSET
    point_row[is_open] = cluster_row[cluster_base[point_frame[is_open]]
                                     + point_cluster[is_open]]
    token = token_of_row[point_row]
    lab[token < 0] = decompose.LABEL_DISCARDED
    partition.labels = np.split(lab, np.cumsum(n_points))[:-1]

    keep = []
    for offset, (code, budget) in enumerate(
            ((decompose.LABEL_AGENT, config.n_pts_agent),
             (decompose.LABEL_OPENSET, config.n_pts_openset),
             (decompose.LABEL_GROUND, config.n_pts_ground)), start=1):
        pool = np.flatnonzero(lab == code)
        keep.append(pool[compact.downsample(pool.size, budget,
                                            seed=config.seed + offset)])
    keep = np.concatenate(keep)
    P_xyz = xyz[keep]
    P_ind = np.stack([point_frame[keep], token[keep]], axis=1)
    timings["compact"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    F_pts, F_pts_valid = projection.build_point_features(
        P_xyz, P_ind[:, 0], bundle.cameras, config.D,
        interp=config.feature_interp, overlap=config.camera_overlap)
    timings["project"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    scene = compact.build_tokenized_scene(P_xyz, P_ind, F_pts, F_pts_valid,
                                          B, elem_valid, kind, source_id,
                                          config)
    F_img, F_img_valid = compact.pool_image_features(
        scene.F_pts, scene.F_pts_valid, scene.P_ind, kind, scene.n_elem, T)
    timings["compact"] += time.perf_counter() - t0

    tokens = None
    t0 = time.perf_counter()
    if params is not None:
        if params.T != config.T or params.D != config.D:
            raise ShapeMismatch(
                f"params are (T={params.T}, D={params.D}) but config wants "
                f"(T={config.T}, D={config.D})")
        F_geo = encode_geometry(scene.P_xyz, scene.P_ind, scene.B, params)
        F_elem = fuse_scene(F_img, F_geo, params, scene.elem_valid)
        tokens = SceneTokens(F_elem=F_elem, kind=kind, source_id=source_id,
                             frame_valid=scene.elem_valid, boxes=scene.B)
    timings["fuse"] += time.perf_counter() - t0

    return TokenizeResult(scene=scene, tokens=tokens, partition=partition,
                          plane=plane, F_img=F_img, F_img_valid=F_img_valid,
                          timings=timings)
