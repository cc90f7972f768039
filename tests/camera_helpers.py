"""Camera-table helpers and the per-point image-feature reference.

``build_point_features_reference`` and ``pool_image_features_reference``
are the per-point projection and pooling that pixel-id pooling replaced:
one D-wide feature row per point, sampled map by map, then summed back
into (element, frame) cells.  The tests hold the pipeline to them.
"""

import numpy as np

from scenetok.bundle import KIND_CODES, KIND_OPENSET, SceneBundle
from scenetok.pooling import cell_index, segment_sum
from scenetok.projection import project_points


def camera_bundle(maps, camera_id=None, frame_index=None, intrinsics=None,
                  rotation=None, translation=None, valid=None,
                  **bundle_kwargs) -> SceneBundle:
    """A SceneBundle whose camera table holds ``maps``, a list of (H, W, D)
    arrays stacked into one pixel table of their common dtype.  Camera c
    defaults to id c, frame 0, intrinsics (1, 1, 0, 0), identity pose and
    valid; ``intrinsics`` etc. give one row per map."""
    n = len(maps)
    return SceneBundle(
        camera_id=np.arange(n) if camera_id is None else camera_id,
        camera_frame=np.zeros(n) if frame_index is None else frame_index,
        camera_intrinsics=([[1.0, 1.0, 0.0, 0.0]] * n if intrinsics is None
                           else intrinsics),
        camera_rotation=[np.eye(3)] * n if rotation is None else rotation,
        camera_translation=(np.zeros((n, 3)) if translation is None
                            else translation),
        camera_valid=np.ones(n, dtype=bool) if valid is None else valid,
        camera_size=[m.shape[:2] for m in maps],
        pixel_features=(np.concatenate([m.reshape(-1, m.shape[2])
                                        for m in maps]) if maps
                        else np.zeros((0, 0))),
        **bundle_kwargs)


def per_point_ids(valid):
    """Ids that read a per-point table: row i for point i, or -1 where
    ``valid`` is false."""
    return np.where(valid, np.arange(len(valid)), -1)


def sample_feature_reference(feature_map, uv):
    """Feature vectors at in-view pixel coordinates:
    feature_map[floor(v), floor(u)]."""
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    col = np.floor(uv[:, 0]).astype(np.int64)
    row = np.floor(uv[:, 1]).astype(np.int64)
    return feature_map[row, col]


def build_point_features_reference(points, frame_ids, bundle, D, dtype=None):
    """Per-point image features (N, D) and their valid mask.

    Each point takes the feature of the first valid camera (ascending
    camera_id) of its frame whose map contains it; unseen points get a zero
    row.  Rows are in ``dtype``, by default the valid maps' dtype promoted
    to at least float32 (float64 when no camera is valid).
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    frame_ids = np.asarray(frame_ids, dtype=np.int64).reshape(-1)
    n = points.shape[0]
    by_frame = {}
    for c in np.flatnonzero(bundle.camera_valid).tolist():
        by_frame.setdefault(int(bundle.camera_frame[c]), []).append(c)
    for cams in by_frame.values():
        cams.sort(key=lambda c: bundle.camera_id[c])
    if dtype is None:
        dtype = (np.result_type(np.float32, bundle.pixel_features.dtype)
                 if by_frame else np.float64)
    feats = np.zeros((n, D), dtype=dtype)
    valid = np.zeros(n, dtype=bool)
    for f, cams in by_frame.items():
        sel = np.flatnonzero(frame_ids == f)
        for c in cams:
            pending = sel[~valid[sel]]
            if pending.size == 0:
                break
            uv, in_view = project_points(points[pending], bundle, c)
            take = pending[in_view]
            feats[take] = sample_feature_reference(bundle.feature_map(c),
                                                   uv[in_view])
            valid[take] = True
    return feats, valid


def pool_image_features_reference(F_pts, F_pts_valid, P_ind, kinds, n_elem,
                                  T):
    """Mean of the valid per-point rows of ``F_pts`` per (element, frame)
    cell, open-set elements averaged over their non-empty frames and
    broadcast to every slot."""
    D = F_pts.shape[1]
    sums, counts = segment_sum(F_pts, cell_index(P_ind, T), n_elem * T,
                               pixel=per_point_ids(F_pts_valid))
    F_img = np.zeros((n_elem * T, D))
    nonzero = counts > 0
    F_img[nonzero] = sums[nonzero] / counts[nonzero, None]
    F_img = F_img.reshape(n_elem, T, D)
    F_img_valid = nonzero.reshape(n_elem, T)
    openset = np.asarray(kinds) == KIND_CODES[KIND_OPENSET]
    if openset.any():
        valid_f = F_img_valid[openset]
        n_valid = valid_f.sum(axis=1)
        avg = (F_img[openset] * valid_f[:, :, None]).sum(axis=1)
        has = n_valid > 0
        avg[has] /= n_valid[has, None]
        F_img[openset] = avg[:, None, :]
        F_img_valid[openset] = has[:, None]
    return F_img, F_img_valid
