"""Pinhole projection of world points into the camera pixel table.

Each point is given the one row of the bundle's ``pixel_features`` table
that its image feature is read from: the pixel under its projection in the
first camera (ascending camera_id) of its frame whose map contains it, and
-1 for a point outside every map.  No per-point feature row is built;
pooling reads the table through these ids.
"""

from __future__ import annotations

import numpy as np

from .bundle import SceneBundle
from .errors import DimensionMismatch


def project_points(points: np.ndarray, bundle: SceneBundle,
                   c: int) -> tuple[np.ndarray, np.ndarray]:
    """Project world points into camera row ``c`` of ``bundle``.

    Returns ``(uv, in_view)``: pixel coordinates (N, 2) at feature-map
    resolution and a mask that is false behind the camera (depth <= 1e-6)
    or outside [0, W') x [0, H').
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    fx, fy, cx, cy = bundle.camera_intrinsics[c].tolist()
    height, width = bundle.camera_size[c].tolist()
    p_cam = points @ bundle.camera_rotation[c].T + bundle.camera_translation[c]
    z = p_cam[:, 2]
    in_front = z > 1e-6
    safe_z = np.where(in_front, z, 1.0)
    u = fx * p_cam[:, 0] / safe_z + cx
    v = fy * p_cam[:, 1] / safe_z + cy
    in_view = (in_front
               & (u >= 0.0) & (u < width)
               & (v >= 0.0) & (v < height))
    return np.stack([u, v], axis=1), in_view


def pixel_index(uv: np.ndarray, width: int) -> np.ndarray:
    """Row-major pixel ids (n,) of in-view coordinates: the cell under each
    point, (floor(v), floor(u))."""
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    col = np.floor(uv[:, 0]).astype(np.int64)
    row = np.floor(uv[:, 1]).astype(np.int64)
    return row * width + col


def build_point_features(points: np.ndarray, frame_ids: np.ndarray,
                         bundle: SceneBundle, D: int,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Find each point's image-feature row in the camera pixel table.

    A point reads the pixel under its projection in the first valid camera
    (ascending camera_id) of its frame that sees it.

    Returns ``(table, pixel)``.  ``table`` is the bundle's
    ``pixel_features``, or an empty float64 (0, D) table when no camera is
    valid.  ``pixel`` (N,) int64 is each point's table row, -1 for a point
    that no camera sees, so ``pixel >= 0`` is the valid mask.

    Raises DimensionMismatch if a camera is valid and the feature maps'
    channel count differs from ``D``.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    frame_ids = np.asarray(frame_ids, dtype=np.int64).reshape(-1)
    pixel = np.full(points.shape[0], -1, dtype=np.int64)
    cams = np.flatnonzero(bundle.camera_valid)
    if cams.size == 0:
        return np.zeros((0, D)), pixel
    table = bundle.pixel_features
    if table.shape[1] != D:
        raise DimensionMismatch(f"feature maps have D={table.shape[1]}, "
                                f"configured D={D}")
    # Valid cameras by frame, then ascending camera_id.
    cams = cams[np.lexsort((bundle.camera_id[cams], bundle.camera_frame[cams]))]
    frames, first_cam, per_frame = np.unique(bundle.camera_frame[cams],
                                             return_index=True,
                                             return_counts=True)
    base, width = bundle.camera_base, bundle.camera_size[:, 1]
    for f, lo, count in zip(frames.tolist(), first_cam.tolist(),
                            per_frame.tolist()):
        sel = np.flatnonzero(frame_ids == f)
        for c in cams[lo:lo + count].tolist():
            pending = sel[pixel[sel] < 0]
            if pending.size == 0:
                break
            uv, in_view = project_points(points[pending], bundle, c)
            pixel[pending[in_view]] = base[c] + pixel_index(uv[in_view],
                                                            int(width[c]))
    return table, pixel
