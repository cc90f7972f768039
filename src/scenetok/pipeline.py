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
    KIND_GROUND,
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
                     openset_tracks: list[tracking.TrackedElement],
                     ground_elements: list[SceneElement],
                     config: PipelineConfig,
                     ) -> tuple[list[SceneElement], dict[int, int], dict[int, int]]:
    """Order elements into token-id blocks: agents, open-set, then ground.

    Over-budget agents are dropped farthest-from-origin first; over-budget
    open-set tracks are dropped smallest-by-point-count first.  Returns the
    retained elements (token ids set) plus maps from agent track_id and
    open-set track index to token id.
    """
    agent_ids = sorted(agent_tracks)
    if len(agent_ids) > config.n_elem_agent:
        def mean_dist(tid):
            el = agent_tracks[tid]
            centers = el.boxes[el.frame_valid, :3]
            return float(np.linalg.norm(centers, axis=1).mean())
        ranked = sorted(agent_ids, key=lambda tid: (mean_dist(tid), tid))
        kept = ranked[:config.n_elem_agent]
        dropped = sorted(set(agent_ids) - set(kept))
        warnings.warn(
            f"agent budget {config.n_elem_agent} exceeded by {len(dropped)}; "
            f"dropped farthest tracks {dropped}", BudgetOverflowWarning)
        agent_ids = sorted(kept)

    track_idx = list(range(len(openset_tracks)))
    if len(track_idx) > config.n_elem_openset:
        ranked = sorted(track_idx,
                        key=lambda i: (-openset_tracks[i].total_points, i))
        kept = ranked[:config.n_elem_openset]
        dropped = sorted(set(track_idx) - set(kept))
        warnings.warn(
            f"open-set budget {config.n_elem_openset} exceeded by "
            f"{len(dropped)}; dropped smallest tracks {dropped}",
            BudgetOverflowWarning)
        track_idx = sorted(kept)

    elements: list[SceneElement] = []
    agent_token: dict[int, int] = {}
    for tid in agent_ids:
        el = agent_tracks[tid]
        el.token_id = len(elements)
        agent_token[tid] = el.token_id
        elements.append(el)

    openset_token: dict[int, int] = {}
    for i in track_idx:
        tr = openset_tracks[i]
        el = SceneElement(token_id=len(elements), kind=KIND_OPENSET,
                          boxes=tr.boxes, frame_valid=tr.frame_valid,
                          source_id=i)
        openset_token[i] = el.token_id
        elements.append(el)

    for el in ground_elements:
        el.token_id = len(elements)
        elements.append(el)

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

    labels, agent_track, cluster_id = [], [], []
    frame_detections: list[list[tuple[np.ndarray, int]]] = []
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
        members = (np.split(frame.points[by_cluster], np.cumsum(sizes)[:-1])
                   if sizes.size else [])
        frame_detections.append([(decompose.fit_tight_box(pts), len(pts))
                                 for pts in members])
    partition = decompose.PointPartition(labels=labels, agent_track=agent_track,
                                         cluster_id=cluster_id)
    timings["decompose"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    openset_tracks = tracking.track_open_set(frame_detections, T, config.track)
    timings["track"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    ground_pts = [frame.points[labels[f] == decompose.LABEL_GROUND]
                  for f, frame in enumerate(bundle.frames)]
    merged_ground = (np.concatenate(ground_pts, axis=0) if ground_pts
                     else np.empty((0, 3)))
    ground_elements, tile_of_point = ground.tile_ground(
        merged_ground, config.tile_size_m, config.n_elem_ground, T)

    agent_tracks = _group_agent_tracks(bundle.agents, T)
    elements, agent_token, openset_token = assign_token_ids(
        agent_tracks, openset_tracks, ground_elements, config)
    n_ground_kept = len(ground_elements)
    ground_token_base = len(elements) - n_ground_kept

    # Every agent point's track id is one of the bundle's, so its rank among
    # them indexes a dense int64 table (-1 = dropped by the budget).
    track_ids = np.array(sorted(agent_tracks), dtype=np.int64)
    agent_lookup = np.full(track_ids.size, -1, dtype=np.int64)
    agent_lookup[np.searchsorted(track_ids, list(agent_token))] = \
        list(agent_token.values())

    cluster_token = [np.full(len(dets), -1, dtype=np.int64)
                     for dets in frame_detections]
    for i, token in openset_token.items():
        for f, c in openset_tracks[i].members:
            cluster_token[f][c] = token

    pools: dict[str, compact.PointPool] = {}
    pool_parts = {KIND_AGENT: ([], [], []), KIND_OPENSET: ([], [], []),
                  KIND_GROUND: ([], [], [])}
    ground_offset = 0
    for f, frame in enumerate(bundle.frames):
        lab = labels[f]
        n = lab.shape[0]
        token = np.full(n, -1, dtype=np.int64)

        g_sel = lab == decompose.LABEL_GROUND
        n_g = int(g_sel.sum())
        tiles = tile_of_point[ground_offset:ground_offset + n_g]
        ground_offset += n_g
        g_tok = np.where(tiles >= 0, ground_token_base + tiles, -1)
        token[g_sel] = g_tok

        a_sel = lab == decompose.LABEL_AGENT
        token[a_sel] = agent_lookup[np.searchsorted(track_ids,
                                                    agent_track[f][a_sel])]

        o_sel = lab == decompose.LABEL_OPENSET
        token[o_sel] = cluster_token[f][cluster_id[f][o_sel]]

        lab[(token < 0) & (lab != decompose.LABEL_DISCARDED)] = decompose.LABEL_DISCARDED

        for kind, code in ((KIND_GROUND, decompose.LABEL_GROUND),
                           (KIND_AGENT, decompose.LABEL_AGENT),
                           (KIND_OPENSET, decompose.LABEL_OPENSET)):
            sel = (lab == code) & (token >= 0)
            if sel.any():
                xs, fs, ts = pool_parts[kind]
                xs.append(frame.points[sel])
                fs.append(np.full(int(sel.sum()), f, dtype=np.int64))
                ts.append(token[sel])

    budgets = {KIND_AGENT: config.n_pts_agent,
               KIND_OPENSET: config.n_pts_openset,
               KIND_GROUND: config.n_pts_ground}
    for offset, kind in enumerate((KIND_AGENT, KIND_OPENSET, KIND_GROUND)):
        xs, fs, ts = pool_parts[kind]
        if xs:
            pool = compact.PointPool(np.concatenate(xs),
                                     np.concatenate(fs), np.concatenate(ts))
        else:
            pool = compact.PointPool.empty()
        sel = compact.downsample(len(pool), budgets[kind],
                                 seed=config.seed + offset + 1)
        pools[kind] = compact.PointPool(pool.xyz[sel], pool.frame_ids[sel],
                                        pool.token_ids[sel])
    timings["compact"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    all_xyz = np.concatenate([pools[k].xyz for k in
                              (KIND_AGENT, KIND_OPENSET, KIND_GROUND)], axis=0)
    all_frames = np.concatenate([pools[k].frame_ids for k in
                                 (KIND_AGENT, KIND_OPENSET, KIND_GROUND)])
    F_pts, F_pts_valid = projection.build_point_features(
        all_xyz, all_frames, bundle.cameras, config.D,
        interp=config.feature_interp, overlap=config.camera_overlap)
    timings["project"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    scene = compact.build_tokenized_scene(pools, F_pts, F_pts_valid,
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
