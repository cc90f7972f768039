"""Pinhole projection of world points into camera feature maps.

Produces the per-point image feature matrix: each point takes the feature
of the first camera (ascending camera_id) whose map contains its projection;
points outside every map get a zero row and an invalid flag.
"""

from __future__ import annotations

import numpy as np

from .bundle import CameraFrame
from .errors import DimensionMismatch


def project_points(points: np.ndarray, camera: CameraFrame) -> tuple[np.ndarray, np.ndarray]:
    """Project world points into one camera.

    Returns ``(uv, in_view)``: pixel coordinates (N, 2) at feature-map
    resolution and a mask that is false behind the camera (depth <= 1e-6)
    or outside [0, W') x [0, H').
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    p_cam = points @ camera.rotation.T + camera.translation
    z = p_cam[:, 2]
    in_front = z > 1e-6
    safe_z = np.where(in_front, z, 1.0)
    u = camera.fx * p_cam[:, 0] / safe_z + camera.cx
    v = camera.fy * p_cam[:, 1] / safe_z + camera.cy
    in_view = (in_front
               & (u >= 0.0) & (u < camera.width)
               & (v >= 0.0) & (v < camera.height))
    return np.stack([u, v], axis=1), in_view


def sample_feature(feature_map: np.ndarray, uv: np.ndarray,
                   interp: str = "nearest") -> np.ndarray:
    """Sample feature vectors at in-view pixel coordinates.

    "nearest" reads the cell under the point, feature_map[floor(v), floor(u)];
    "bilinear" blends the four neighbouring cell centers (edge-clamped).
    """
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    h, w = feature_map.shape[:2]
    if interp == "nearest":
        col = np.floor(uv[:, 0]).astype(np.int64)
        row = np.floor(uv[:, 1]).astype(np.int64)
        return feature_map[row, col]
    if interp != "bilinear":
        raise ValueError(f"unknown interpolation {interp!r}")

    # cell centers sit at integer+0.5; shift so weights are cell-relative
    x = uv[:, 0] - 0.5
    y = uv[:, 1] - 0.5
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx = x - x0
    fy = y - y0
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)
    f00 = feature_map[y0c, x0c]
    f01 = feature_map[y0c, x1c]
    f10 = feature_map[y1c, x0c]
    f11 = feature_map[y1c, x1c]
    wx = fx[:, None]
    wy = fy[:, None]
    return ((1 - wy) * ((1 - wx) * f00 + wx * f01)
            + wy * ((1 - wx) * f10 + wx * f11))


def build_point_features(points: np.ndarray, frame_ids: np.ndarray,
                         cameras: list[CameraFrame], D: int,
                         interp: str = "nearest",
                         overlap: str = "first") -> tuple[np.ndarray, np.ndarray]:
    """Assemble per-point image features across all cameras.

    For each point, cameras of its frame are evaluated in ascending
    camera_id; "first" takes the first in-view camera's feature, "mean"
    averages all in-view cameras.  Points seen by no camera get a zero row
    and valid=False.

    Features keep the valid cameras' feature-map dtype, promoted to at least
    float32 (float64 when no camera is valid), so "nearest" / "first" copies
    map values exactly.  Bilinear blends and "mean" averages are computed in
    float64 and rounded once to that dtype.

    Raises DimensionMismatch if any feature map's channel count differs
    from ``D``.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    frame_ids = np.asarray(frame_ids, dtype=np.int64).reshape(-1)
    n = points.shape[0]

    by_frame: dict[int, list[CameraFrame]] = {}
    for cam in cameras:
        if not cam.valid:
            continue
        if cam.feature_map.shape[-1] != D:
            raise DimensionMismatch(
                f"camera {cam.camera_id} frame {cam.frame_index}: feature dim "
                f"{cam.feature_map.shape[-1]} != configured D={D}")
        by_frame.setdefault(cam.frame_index, []).append(cam)
    for cams in by_frame.values():
        cams.sort(key=lambda c: c.camera_id)

    map_dtypes = {c.feature_map.dtype for cams in by_frame.values() for c in cams}
    dtype = np.result_type(np.float32, *map_dtypes) if map_dtypes else np.float64
    feats = np.zeros((n, D), dtype=np.float64 if overlap == "mean" else dtype)
    valid = np.zeros(n, dtype=bool)
    hits = np.zeros(n, dtype=np.int64)

    for f, cams in by_frame.items():
        sel = np.flatnonzero(frame_ids == f)
        if sel.size == 0:
            continue
        for cam in cams:
            if overlap == "first":
                pending = sel[~valid[sel]]
            else:
                pending = sel
            if pending.size == 0:
                break
            uv, in_view = project_points(points[pending], cam)
            take = pending[in_view]
            if take.size == 0:
                continue
            sampled = sample_feature(cam.feature_map, uv[in_view], interp)
            if overlap == "first":
                feats[take] = sampled
                valid[take] = True
            else:
                feats[take] += sampled
                valid[take] = True
                hits[take] += 1

    if overlap == "mean":
        seen = hits > 0
        feats[seen] /= hits[seen, None]

    feats[~valid] = 0.0
    return feats.astype(dtype, copy=False), valid
