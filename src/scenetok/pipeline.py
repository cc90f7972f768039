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
from .bundle import (
    KIND_AGENT,
    KIND_CODES,
    KIND_OPENSET,
    SceneBundle,
    SceneElement,
    SceneTokens,
    TokenizedScene,
    validate_bundle,
)
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


def _group_agent_tracks(agents, T: int) -> dict[int, SceneElement]:
    """One (T, 7) box tensor + validity mask per agent track."""
    tracks: dict[int, SceneElement] = {}
    for box in agents:
        el = tracks.get(box.track_id)
        if el is None:
            el = SceneElement(token_id=-1, kind=KIND_AGENT,
                              boxes=np.zeros((T, 7)),
                              frame_valid=np.zeros(T, dtype=bool),
                              source_id=box.track_id)
            tracks[box.track_id] = el
        el.boxes[box.frame_index] = box.row()
        el.frame_valid[box.frame_index] = True
    return tracks


def assign_token_ids(agent_tracks: dict[int, SceneElement],
                     openset_tracks: list[SceneElement],
                     openset_points: np.ndarray,
                     ground_elements: list[SceneElement],
                     config: PipelineConfig,
                     ) -> tuple[list[SceneElement], np.ndarray, np.ndarray]:
    """Order elements into token-id blocks: agents, open-set, then ground.

    Over-budget agents are dropped farthest-from-origin first; over-budget
    open-set tracks are dropped smallest by ``openset_points`` (each
    track's point count) first.  Returns the retained elements (token ids
    set) plus two int64 token maps, -1 where dropped: one indexed by agent
    rank in ``sorted(agent_tracks)``, one by open-set track index.
    """
    agent_ids = sorted(agent_tracks)
    agent_rank = list(range(len(agent_ids)))
    if len(agent_ids) > config.n_elem_agent:
        def mean_dist(r):
            el = agent_tracks[agent_ids[r]]
            centers = el.boxes[el.frame_valid, :3]
            return float(np.linalg.norm(centers, axis=1).mean())
        ranked = sorted(agent_rank, key=lambda r: (mean_dist(r), r))
        kept = ranked[:config.n_elem_agent]
        dropped = [agent_ids[r] for r in sorted(set(agent_rank) - set(kept))]
        warnings.warn(
            f"agent budget {config.n_elem_agent} exceeded by {len(dropped)}; "
            f"dropped farthest tracks {dropped}", BudgetOverflowWarning)
        agent_rank = sorted(kept)

    track_idx = list(range(len(openset_tracks)))
    if len(track_idx) > config.n_elem_openset:
        ranked = sorted(track_idx, key=lambda i: (-openset_points[i], i))
        kept = ranked[:config.n_elem_openset]
        dropped = sorted(set(track_idx) - set(kept))
        warnings.warn(
            f"open-set budget {config.n_elem_openset} exceeded by "
            f"{len(dropped)}; dropped smallest tracks {dropped}",
            BudgetOverflowWarning)
        track_idx = sorted(kept)

    elements: list[SceneElement] = []
    agent_token = np.full(len(agent_ids), -1, dtype=np.int64)
    for r in agent_rank:
        agent_token[r] = len(elements)
        elements.append(agent_tracks[agent_ids[r]])
    openset_token = np.full(len(openset_tracks), -1, dtype=np.int64)
    for i in track_idx:
        openset_token[i] = len(elements)
        elements.append(openset_tracks[i])
    elements.extend(ground_elements)
    for token_id, el in enumerate(elements):
        el.token_id = token_id

    return elements, agent_token, openset_token


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

    is_ground = lab == decompose.LABEL_GROUND
    ground_elements, tile_of_point = ground.tile_ground(
        xyz[is_ground], config.tile_size_m, config.n_elem_ground, T)

    # Each (track, frame) entry of the member table names one cluster row.
    member_track, member_frame = np.nonzero(members >= 0)
    member_row = cluster_base[member_frame] + members[member_track,
                                                      member_frame]
    openset_boxes = np.zeros((len(members), T, 7))
    openset_boxes[member_track, member_frame] = cluster_boxes[member_row]
    openset_points = np.bincount(member_track, cluster_size[member_row],
                                 minlength=len(members))
    openset_tracks = [SceneElement(token_id=-1, kind=KIND_OPENSET,
                                   boxes=boxes, frame_valid=valid, source_id=i)
                      for i, (boxes, valid) in enumerate(zip(openset_boxes,
                                                             members >= 0))]

    agent_tracks = _group_agent_tracks(bundle.agents, T)
    elements, agent_token, openset_token = assign_token_ids(
        agent_tracks, openset_tracks, openset_points, ground_elements, config)
    ground_token_base = len(elements) - len(ground_elements)
    cluster_token = np.full(cluster_base[-1], -1, dtype=np.int64)
    cluster_token[member_row] = openset_token[member_track]

    token = np.full(lab.size, -1, dtype=np.int64)
    token[is_ground] = np.where(tile_of_point >= 0,
                                ground_token_base + tile_of_point, -1)
    # Every agent point's track id is one of the bundle's, so its rank
    # among them indexes the agent token map.
    is_agent = lab == decompose.LABEL_AGENT
    token[is_agent] = agent_token[np.searchsorted(sorted(agent_tracks),
                                                  point_track[is_agent])]
    is_open = lab == decompose.LABEL_OPENSET
    token[is_open] = cluster_token[cluster_base[point_frame[is_open]]
                                   + point_cluster[is_open]]
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
                                          elements, config)
    kinds = np.array([KIND_CODES[el.kind] for el in elements], dtype=np.int64)
    F_img, F_img_valid = compact.pool_image_features(
        scene.F_pts, scene.F_pts_valid, scene.P_ind, kinds, scene.n_elem, T)
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
        tokens = SceneTokens(F_elem=F_elem, elements=elements,
                             frame_valid=scene.elem_valid, boxes=scene.B)
    timings["fuse"] += time.perf_counter() - t0

    return TokenizeResult(scene=scene, tokens=tokens, partition=partition,
                          plane=plane, F_img=F_img, F_img_valid=F_img_valid,
                          timings=timings)
