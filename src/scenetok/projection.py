"""Pinhole projection of world points into the camera pixel table.

Each point is given the pixel row(s) of the bundle's ``pixel_features``
table that its image feature is read from: by default the pixel under its
projection in the first camera (ascending camera_id) of its frame whose map
contains it, and -1 for a point outside every map.  No per-point feature
row is built; pooling reads the table through these ids.
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


def pixel_weights(uv: np.ndarray, height: int, width: int,
                  interp: str = "nearest") -> tuple[np.ndarray, np.ndarray]:
    """Row-major pixel ids (n, K) and weights (n, K) for in-view coordinates.

    "nearest" reads the cell under the point, (floor(v), floor(u)), with
    weight 1 (K = 1); "bilinear" blends the four neighbouring cell centers
    (edge-clamped), K = 4.
    """
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    if interp == "nearest":
        col = np.floor(uv[:, 0]).astype(np.int64)
        row = np.floor(uv[:, 1]).astype(np.int64)
        return (row * width + col)[:, None], np.ones((uv.shape[0], 1))
    if interp != "bilinear":
        raise ValueError(f"unknown interpolation {interp!r}")

    # cell centers sit at integer+0.5; shift so weights are cell-relative
    x = uv[:, 0] - 0.5
    y = uv[:, 1] - 0.5
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx = x - x0
    fy = y - y0
    cols = np.clip(np.stack([x0, x0 + 1, x0, x0 + 1], axis=1), 0, width - 1)
    rows = np.clip(np.stack([y0, y0, y0 + 1, y0 + 1], axis=1), 0, height - 1)
    weight = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx,
                       fy * (1 - fx), fy * fx], axis=1)
    return rows * width + cols, weight


def build_point_features(points: np.ndarray, frame_ids: np.ndarray,
                         bundle: SceneBundle, D: int,
                         interp: str = "nearest", overlap: str = "first",
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None,
                                    np.ndarray]:
    """Find each point's image-feature rows in the camera pixel table.

    For each point, the valid cameras of its frame are evaluated in
    ascending camera_id; "first" takes the first in-view camera's pixel,
    "mean" averages all in-view cameras.

    Returns ``(table, pixel, weight, valid)``.  ``table`` is the bundle's
    ``pixel_features``, or an empty float64 (0, D) table when no camera is
    valid.  With "nearest" and one camera per point ("first", or "mean"
    over frames of one camera), ``pixel`` (N,) is each point's table row
    (-1: seen by no camera) and ``weight`` is None.  Otherwise ``pixel`` and
    ``weight`` are (N, K), K/4 or K cameras' "bilinear" or "nearest" taps in
    ascending camera_id: a point's feature is the weighted mean of its K
    rows (``pooling.gather_rows``), each in-view camera's taps summing to
    1; unused entries have row 0 and weight 0.  ``valid`` (N,) is true for
    points that some camera sees.

    Raises DimensionMismatch if a camera is valid and the feature maps'
    channel count differs from ``D``.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    frame_ids = np.asarray(frame_ids, dtype=np.int64).reshape(-1)
    n = points.shape[0]
    cams = np.flatnonzero(bundle.camera_valid)
    if cams.size == 0:
        return (np.zeros((0, D)), np.full(n, -1, dtype=np.int64), None,
                np.zeros(n, dtype=bool))
    table = bundle.pixel_features
    if table.shape[1] != D:
        raise DimensionMismatch(f"feature maps have D={table.shape[1]}, "
                                f"configured D={D}")
    # Valid cameras by frame, then ascending camera_id.
    cams = cams[np.lexsort((bundle.camera_id[cams], bundle.camera_frame[cams]))]
    frames, first_cam, per_frame = np.unique(bundle.camera_frame[cams],
                                             return_index=True,
                                             return_counts=True)

    taps = 1 if interp == "nearest" else 4
    K = taps * (int(per_frame.max()) if overlap == "mean" else 1)
    pixel = np.zeros((n, K), dtype=np.int64)
    weight = np.zeros((n, K))
    hits = np.zeros(n, dtype=np.int64)
    base = bundle.camera_base
    for f, lo, count in zip(frames.tolist(), first_cam.tolist(),
                            per_frame.tolist()):
        sel = np.flatnonzero(frame_ids == f)
        for c in cams[lo:lo + count].tolist():
            pending = sel[hits[sel] == 0] if overlap == "first" else sel
            if pending.size == 0:
                break
            uv, in_view = project_points(points[pending], bundle, c)
            take = pending[in_view]
            rows, w = pixel_weights(uv[in_view], *bundle.camera_size[c].tolist(),
                                    interp)
            slots = hits[take, None] * taps + np.arange(taps)
            pixel[take[:, None], slots] = base[c] + rows
            weight[take[:, None], slots] = w
            hits[take] += 1

    valid = hits > 0
    if K == 1:
        return table, np.where(valid, pixel[:, 0], -1), None, valid
    return table, pixel, weight, valid
