import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from scenetok import build_point_features, project_points, sample_feature
from scenetok.bundle import CameraFrame
from scenetok.errors import DimensionMismatch


def build_point_features_reference(points, frame_ids, cameras, D,
                                   interp="nearest", overlap="first"):
    """The float64 build: one float64 row per point whatever the map dtype."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    frame_ids = np.asarray(frame_ids, dtype=np.int64).reshape(-1)
    n = points.shape[0]
    feats = np.zeros((n, D), dtype=np.float64)
    valid = np.zeros(n, dtype=bool)
    hits = np.zeros(n, dtype=np.int64)
    by_frame = {}
    for cam in cameras:
        if cam.valid:
            by_frame.setdefault(cam.frame_index, []).append(cam)
    for cams in by_frame.values():
        cams.sort(key=lambda c: c.camera_id)
    for f, cams in by_frame.items():
        sel = np.flatnonzero(frame_ids == f)
        for cam in cams:
            pending = sel[~valid[sel]] if overlap == "first" else sel
            if pending.size == 0:
                break
            uv, in_view = project_points(points[pending], cam)
            take = pending[in_view]
            if take.size == 0:
                continue
            sampled = sample_feature(cam.feature_map, uv[in_view], interp)
            if overlap == "first":
                feats[take] = sampled
            else:
                feats[take] += sampled
                hits[take] += 1
            valid[take] = True
    if overlap == "mean":
        seen = hits > 0
        feats[seen] /= hits[seen, None]
    feats[~valid] = 0.0
    return feats, valid


def scene_points(bundle):
    frame_ids = np.repeat(np.arange(bundle.frame_size.size),
                          bundle.frame_size)
    return bundle.points, frame_ids


def make_camera(camera_id=0, frame_index=0, res=(100, 100), D=4,
                fx=100.0, fy=100.0, cx=50.0, cy=50.0, fill=None,
                rotation=None, translation=None):
    fm = np.zeros((res[0], res[1], D))
    if fill is not None:
        fm[:] = fill
    return CameraFrame(camera_id=camera_id, frame_index=frame_index,
                       feature_map=fm, fx=fx, fy=fy, cx=cx, cy=cy,
                       rotation=np.eye(3) if rotation is None else rotation,
                       translation=np.zeros(3) if translation is None else translation)


class TestProjectPoints:
    def test_optical_axis_hits_principal_point(self):
        cam = make_camera()
        uv, ok = project_points(np.array([[0.0, 0.0, 5.0]]), cam)
        assert ok.tolist() == [True]
        np.testing.assert_allclose(uv[0], [50.0, 50.0])

    def test_pinhole_u_offset(self):
        # camera-frame point (1, 0, 5): u = fx * 1/5 + cx = 70
        cam = make_camera()
        uv, ok = project_points(np.array([[1.0, 0.0, 5.0]]), cam)
        assert ok.tolist() == [True]
        np.testing.assert_allclose(uv[0, 0], 70.0)

    def test_point_behind_camera_masked(self):
        cam = make_camera()
        _, ok = project_points(np.array([[0.0, 0.0, -1.0]]), cam)
        assert ok.tolist() == [False]

    def test_out_of_frame_masked(self):
        cam = make_camera()
        _, ok = project_points(np.array([[10.0, 0.0, 5.0]]), cam)  # u = 250
        assert ok.tolist() == [False]

    def test_scale_consistency(self):
        cam = make_camera()  # identity pose: world frame == camera frame
        p = np.array([[0.4, -0.2, 3.0]])
        uv1, _ = project_points(p, cam)
        uv2, _ = project_points(7.5 * p, cam)
        np.testing.assert_allclose(uv1, uv2, atol=1e-12)


class TestSampleFeature:
    def test_floor_cell(self):
        fm = np.arange(16, dtype=float).reshape(4, 4, 1)
        out = sample_feature(fm, np.array([[0.4, 0.4]]))
        assert out[0, 0] == fm[0, 0, 0]

    def test_last_column(self):
        fm = np.arange(16, dtype=float).reshape(4, 4, 1)
        out = sample_feature(fm, np.array([[3.5, 0.2]]))
        assert out[0, 0] == fm[0, 3, 0]

    def test_matches_floor_indexing_oracle(self):
        rng = np.random.default_rng(0)
        fm = rng.normal(size=(7, 9, 3))
        uv = np.column_stack([rng.uniform(0, 9, 200), rng.uniform(0, 7, 200)])
        uv = np.clip(uv, 0, [9 - 1e-9, 7 - 1e-9])
        out = sample_feature(fm, uv)
        for k in range(200):
            expected = fm[int(np.floor(uv[k, 1])), int(np.floor(uv[k, 0]))]
            np.testing.assert_array_equal(out[k], expected)

    def test_bilinear_constant_map_is_exact(self):
        fm = np.full((6, 6, 2), 3.5)
        out = sample_feature(fm, np.array([[2.3, 4.7], [0.1, 0.1]]),
                             interp="bilinear")
        np.testing.assert_allclose(out, 3.5)

    def test_bilinear_reproduces_linear_ramp(self):
        # a map linear in u is interpolated exactly away from the edges
        cols = np.arange(8, dtype=float) + 0.5  # cell-center u coordinates
        fm = np.tile(cols[None, :, None], (8, 1, 1))
        uv = np.array([[2.75, 3.0], [4.1, 6.9], [1.5, 1.5]])
        out = sample_feature(fm, uv, interp="bilinear")
        np.testing.assert_allclose(out[:, 0], uv[:, 0], atol=1e-12)


class TestBuildPointFeatures:
    def test_unseen_point_is_zero_and_invalid(self):
        cam = make_camera(fill=1.0)
        feats, valid = build_point_features(
            np.array([[0.0, 0.0, -5.0]]), np.array([0]), [cam], D=4)
        assert not valid[0]
        assert (feats[0] == 0).all()

    def test_point_seen_only_by_one_camera(self):
        # camera 3 looks backwards (z_cam = -z_world)
        flip = np.diag([1.0, -1.0, -1.0])
        cams = [make_camera(camera_id=0, fill=1.0),
                make_camera(camera_id=3, fill=7.0, rotation=flip)]
        feats, valid = build_point_features(
            np.array([[0.0, 0.0, -5.0]]), np.array([0]), cams, D=4)
        assert valid[0]
        np.testing.assert_allclose(feats[0], 7.0)

    def test_first_camera_priority_in_overlap(self):
        cams = [make_camera(camera_id=2, fill=2.0),
                make_camera(camera_id=1, fill=1.0)]
        feats, valid = build_point_features(
            np.array([[0.0, 0.0, 5.0]]), np.array([0]), cams, D=4)
        assert valid[0]
        np.testing.assert_allclose(feats[0], 1.0)  # lowest camera_id wins

    def test_mean_overlap_mode(self):
        cams = [make_camera(camera_id=0, fill=1.0),
                make_camera(camera_id=1, fill=3.0)]
        feats, _ = build_point_features(
            np.array([[0.0, 0.0, 5.0]]), np.array([0]), cams, D=4,
            overlap="mean")
        np.testing.assert_allclose(feats[0], 2.0)

    def test_invalid_camera_skipped(self):
        cam = make_camera(fill=5.0)
        cam.valid = False
        feats, valid = build_point_features(
            np.array([[0.0, 0.0, 5.0]]), np.array([0]), [cam], D=4)
        assert not valid[0]

    def test_dimension_mismatch(self):
        cam = make_camera(D=8)
        with pytest.raises(DimensionMismatch):
            build_point_features(np.array([[0.0, 0.0, 5.0]]), np.array([0]),
                                 [cam], D=4)

    def test_invalid_implies_zero_row(self):
        rng = np.random.default_rng(1)
        cam = make_camera(fill=2.0)
        pts = rng.uniform(-10, 10, (500, 3))
        feats, valid = build_point_features(pts, np.zeros(500, dtype=int),
                                            [cam], D=4)
        assert (feats[~valid] == 0).all()

    @settings(max_examples=60, deadline=None)
    @given(hs.floats(-50, 50), hs.floats(-50, 50), hs.floats(-50, 50))
    def test_in_view_points_never_index_out_of_bounds(self, x, y, z):
        fm = np.zeros((5, 11, 1))
        cam = CameraFrame(camera_id=0, frame_index=0, feature_map=fm,
                          fx=10.0, fy=10.0, cx=5.5, cy=2.5,
                          rotation=np.eye(3), translation=np.zeros(3))
        uv, ok = project_points(np.array([[x, y, z]]), cam)
        if ok[0]:
            sample_feature(fm, uv)  # would raise IndexError on a bad index
            col = int(np.floor(uv[0, 0]))
            row = int(np.floor(uv[0, 1]))
            assert 0 <= col < 11 and 0 <= row < 5


class TestPointFeatureDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_follows_feature_maps(self, dtype):
        cam = make_camera(fill=1.5)
        cam.feature_map = cam.feature_map.astype(dtype)
        feats, valid = build_point_features(
            np.array([[0.0, 0.0, 5.0]]), np.array([0]), [cam], D=4)
        assert feats.dtype == dtype and valid[0]

    def test_float64_without_a_valid_camera(self):
        cam = make_camera(fill=1.5)
        cam.feature_map = cam.feature_map.astype(np.float32)
        cam.valid = False
        feats, _ = build_point_features(
            np.array([[0.0, 0.0, 5.0]]), np.array([0]), [cam], D=4)
        assert feats.dtype == np.float64

    def test_nearest_first_equals_float64_build_exactly(self, small_scene,
                                                        small_spec):
        bundle = small_scene.bundle
        assert {c.feature_map.dtype for c in bundle.cameras} == {np.dtype(np.float32)}
        points, frame_ids = scene_points(bundle)
        feats, valid = build_point_features(points, frame_ids, bundle.cameras,
                                            small_spec.D)
        want, want_valid = build_point_features_reference(
            points, frame_ids, bundle.cameras, small_spec.D)
        assert feats.dtype == np.float32 and 0 < valid.sum() < valid.size
        np.testing.assert_array_equal(valid, want_valid)
        np.testing.assert_array_equal(feats.astype(np.float64), want)

    @pytest.mark.parametrize("interp, overlap", [("bilinear", "first"),
                                                 ("nearest", "mean"),
                                                 ("bilinear", "mean")])
    def test_blends_round_once_to_map_dtype(self, interp, overlap):
        # three overlapping cameras with random float32 maps: a float32
        # running sum of three features rounds differently from one rounding
        rng = np.random.default_rng(4)
        cams = [make_camera(camera_id=i, cx=50.0 + 7.3 * i, D=4)
                for i in range(3)]
        for cam in cams:
            cam.feature_map = rng.normal(size=cam.feature_map.shape
                                         ).astype(np.float32)
        points = rng.uniform([-1.0, -1.0, 4.0], [1.0, 1.0, 9.0], (400, 3))
        frame_ids = np.zeros(400, dtype=np.int64)
        feats, valid = build_point_features(points, frame_ids, cams, 4,
                                            interp, overlap)
        want, want_valid = build_point_features_reference(
            points, frame_ids, cams, 4, interp, overlap)
        assert feats.dtype == np.float32 and valid.all()
        np.testing.assert_array_equal(valid, want_valid)
        np.testing.assert_array_equal(feats, want.astype(np.float32))
