import numpy as np
import pytest
from camera_helpers import (
    build_point_features_reference,
    camera_bundle,
    per_point_ids,
    pool_image_features_reference,
)
from hypothesis import given, settings
from hypothesis import strategies as hs

from scenetok import (
    PipelineConfig,
    SceneSpec,
    build_point_features,
    generate_scene,
    pixel_index,
    project_points,
    tokenize_bundle,
)
from scenetok.bundle import KIND_CODES
from scenetok.compact import pool_image_features
from scenetok.errors import DimensionMismatch
from scenetok import pooling
from scenetok.pooling import cell_index, point_features, segment_sum


def scene_points(bundle):
    frame_ids = np.repeat(np.arange(bundle.frame_size.size),
                          bundle.frame_size)
    return bundle.points, frame_ids


def make_camera(camera_id=0, frame_index=0, res=(100, 100), D=4,
                fx=100.0, fy=100.0, cx=50.0, cy=50.0, fill=None,
                rotation=None, translation=None, valid=True, dtype=np.float64):
    """One camera's map and table columns, for ``cameras``."""
    fm = np.zeros((res[0], res[1], D), dtype=dtype)
    if fill is not None:
        fm[:] = fill
    return dict(map=fm, camera_id=camera_id, frame_index=frame_index,
                intrinsics=[fx, fy, cx, cy],
                rotation=np.eye(3) if rotation is None else rotation,
                translation=np.zeros(3) if translation is None else translation,
                valid=valid)


def cameras(*cams, **bundle_kwargs):
    """A bundle whose camera table holds ``cams`` in the given order."""
    column = {key: [cam[key] for cam in cams]
              for key in ("camera_id", "frame_index", "intrinsics", "rotation",
                          "translation", "valid")}
    return camera_bundle([cam["map"] for cam in cams], **column,
                         **bundle_kwargs)


def features(points, frame_ids, bundle, D):
    """(F_pts, valid) as the pipeline's scene gathers them on demand."""
    table, pixel = build_point_features(points, frame_ids, bundle, D)
    return point_features(table, pixel), pixel >= 0


def sample(fm, uv):
    """Feature vectors of ``fm`` at in-view ``uv`` through ``pixel_index``."""
    h, w, d = fm.shape
    return fm.reshape(h * w, d)[pixel_index(uv, w)]


class TestProjectPoints:
    def test_optical_axis_hits_principal_point(self):
        uv, ok = project_points(np.array([[0.0, 0.0, 5.0]]),
                                cameras(make_camera()), 0)
        assert ok.tolist() == [True]
        np.testing.assert_allclose(uv[0], [50.0, 50.0])

    def test_pinhole_u_offset(self):
        # camera-frame point (1, 0, 5): u = fx * 1/5 + cx = 70
        uv, ok = project_points(np.array([[1.0, 0.0, 5.0]]),
                                cameras(make_camera()), 0)
        assert ok.tolist() == [True]
        np.testing.assert_allclose(uv[0, 0], 70.0)

    def test_point_behind_camera_masked(self):
        _, ok = project_points(np.array([[0.0, 0.0, -1.0]]),
                               cameras(make_camera()), 0)
        assert ok.tolist() == [False]

    def test_out_of_frame_masked(self):
        _, ok = project_points(np.array([[10.0, 0.0, 5.0]]),  # u = 250
                               cameras(make_camera()), 0)
        assert ok.tolist() == [False]

    def test_scale_consistency(self):
        bundle = cameras(make_camera())  # identity pose: world == camera
        p = np.array([[0.4, -0.2, 3.0]])
        uv1, _ = project_points(p, bundle, 0)
        uv2, _ = project_points(7.5 * p, bundle, 0)
        np.testing.assert_allclose(uv1, uv2, atol=1e-12)


class TestSampleFeature:
    def test_floor_cell(self):
        fm = np.arange(16, dtype=float).reshape(4, 4, 1)
        out = sample(fm, np.array([[0.4, 0.4]]))
        assert out[0, 0] == fm[0, 0, 0]

    def test_last_column(self):
        fm = np.arange(16, dtype=float).reshape(4, 4, 1)
        out = sample(fm, np.array([[3.5, 0.2]]))
        assert out[0, 0] == fm[0, 3, 0]

    @settings(max_examples=100, deadline=None)
    @given(hs.integers(1, 40), hs.integers(1, 40), hs.data())
    def test_pixel_index_is_the_row_major_floor_cell(self, height, width,
                                                     data):
        u = data.draw(hs.floats(0.0, width, exclude_max=True))
        v = data.draw(hs.floats(0.0, height, exclude_max=True))
        got = pixel_index(np.array([[u, v]]), width)
        assert got.dtype == np.int64
        want = np.ravel_multi_index((int(np.floor(v)), int(np.floor(u))),
                                    (height, width))
        assert got.tolist() == [want]

    def test_matches_floor_indexing_oracle(self):
        rng = np.random.default_rng(0)
        fm = rng.normal(size=(7, 9, 3))
        uv = np.column_stack([rng.uniform(0, 9, 200), rng.uniform(0, 7, 200)])
        uv = np.clip(uv, 0, [9 - 1e-9, 7 - 1e-9])
        out = sample(fm, uv)
        for k in range(200):
            expected = fm[int(np.floor(uv[k, 1])), int(np.floor(uv[k, 0]))]
            np.testing.assert_array_equal(out[k], expected)


class TestBuildPointFeatures:
    def test_unseen_point_is_zero_and_invalid(self):
        feats, valid = features(np.array([[0.0, 0.0, -5.0]]), np.array([0]),
                                cameras(make_camera(fill=1.0)), D=4)
        assert not valid[0]
        assert (feats[0] == 0).all()

    def test_point_seen_only_by_one_camera(self):
        # camera 3 looks backwards (z_cam = -z_world)
        flip = np.diag([1.0, -1.0, -1.0])
        bundle = cameras(make_camera(camera_id=0, fill=1.0),
                         make_camera(camera_id=3, fill=7.0, rotation=flip))
        feats, valid = features(np.array([[0.0, 0.0, -5.0]]), np.array([0]),
                                bundle, D=4)
        assert valid[0]
        np.testing.assert_allclose(feats[0], 7.0)

    def test_first_camera_priority_in_overlap(self):
        bundle = cameras(make_camera(camera_id=2, fill=2.0),
                         make_camera(camera_id=1, fill=1.0))
        feats, valid = features(np.array([[0.0, 0.0, 5.0]]), np.array([0]),
                                bundle, D=4)
        assert valid[0]
        np.testing.assert_allclose(feats[0], 1.0)  # lowest camera_id wins

    def test_invalid_camera_skipped(self):
        feats, valid = features(np.array([[0.0, 0.0, 5.0]]), np.array([0]),
                                cameras(make_camera(fill=5.0, valid=False)),
                                D=4)
        assert not valid[0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_point_features(np.array([[0.0, 0.0, 5.0]]), np.array([0]),
                                 cameras(make_camera(D=8)), D=4)

    def test_invalid_implies_zero_row(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-10, 10, (500, 3))
        feats, valid = features(pts, np.zeros(500, dtype=int),
                                cameras(make_camera(fill=2.0)), D=4)
        assert (feats[~valid] == 0).all()

    def test_default_path_gives_one_pixel_id_per_point(self):
        # points of frame 1 read camera row 1, whose map starts after the
        # 100 x 100 pixels of row 0; unseen points get -1
        bundle = cameras(make_camera(frame_index=0),
                         make_camera(frame_index=1, res=(50, 20)))
        points = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0],
                           [0.0, 0.0, -5.0]])
        table, pixel = build_point_features(points, np.array([0, 1, 1]),
                                            bundle, D=4)
        assert table is bundle.pixel_features and pixel.dtype == np.int64
        # (u, v) = (50, 50): row 50 col 50 of the first map; row 50 of the
        # 50 x 20 map is outside it, so the second point is unseen
        assert pixel.tolist() == [50 * 100 + 50, -1, -1]

    @settings(max_examples=60, deadline=None)
    @given(hs.floats(-50, 50), hs.floats(-50, 50), hs.floats(-50, 50))
    def test_in_view_points_never_index_out_of_bounds(self, x, y, z):
        bundle = cameras(make_camera(res=(5, 11), D=1, fx=10.0, fy=10.0,
                                     cx=5.5, cy=2.5))
        uv, ok = project_points(np.array([[x, y, z]]), bundle, 0)
        if ok[0]:
            rows = pixel_index(uv, 11)
            assert ((0 <= rows) & (rows < 55)).all()
            col = int(np.floor(uv[0, 0]))
            row = int(np.floor(uv[0, 1]))
            assert 0 <= col < 11 and 0 <= row < 5


class TestPointFeatureDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_follows_feature_maps(self, dtype):
        feats, valid = features(np.array([[0.0, 0.0, 5.0]]), np.array([0]),
                                cameras(make_camera(fill=1.5, dtype=dtype)),
                                D=4)
        assert feats.dtype == dtype and valid[0]

    def test_float64_without_a_valid_camera(self):
        bundle = cameras(make_camera(fill=1.5, dtype=np.float32, valid=False))
        feats, _ = features(np.array([[0.0, 0.0, 5.0]]), np.array([0]),
                            bundle, D=4)
        assert feats.dtype == np.float64

    def test_nearest_first_equals_float64_build_exactly(self, small_scene,
                                                        small_spec):
        bundle = small_scene.bundle
        assert bundle.pixel_features.dtype == np.float32
        points, frame_ids = scene_points(bundle)
        feats, valid = features(points, frame_ids, bundle, small_spec.D)
        want, want_valid = build_point_features_reference(
            points, frame_ids, bundle, small_spec.D, dtype=np.float64)
        assert feats.dtype == np.float32 and 0 < valid.sum() < valid.size
        np.testing.assert_array_equal(valid, want_valid)
        np.testing.assert_array_equal(feats.astype(np.float64), want)


# Camera layouts for the pooling reference: (maps, camera columns) builders
# over a random generator, each with frames 0..2.
def _tie_prone(rng):
    # integer-valued maps of few levels: many equal pixels, and points on
    # exact cell borders (u, v integers) below
    return [rng.integers(0, 3, (6, 8, 5)).astype(np.float32)
            for _ in range(3)], dict(frame_index=[0, 1, 2])


def _overlapping(rng):
    # two cameras per frame with shifted principal points: both see most
    # points, so the lower camera_id must win
    return ([rng.normal(size=(6, 8, 5)).astype(np.float32) for _ in range(6)],
            dict(frame_index=[0, 0, 1, 1, 2, 2], camera_id=[4, 1] * 3,
                 intrinsics=[[4.0, 4.0, 4.0 + 0.7 * i, 3.0] for i in range(6)]))


def _invalid(rng):
    maps, cols = _overlapping(rng)
    return maps, dict(cols, valid=[True, False, False, True, False, False])


def _empty_frame(rng):
    # frame 1 has no camera, and frame 2 no points (see _points)
    return ([rng.normal(size=(6, 8, 5)).astype(np.float32) for _ in range(2)],
            dict(frame_index=[0, 2]))


def _sizes(rng):
    return ([rng.normal(size=shape).astype(np.float32)
             for shape in ((6, 8, 5), (3, 11, 5), (9, 2, 5), (1, 1, 5))],
            dict(frame_index=[0, 0, 1, 2], camera_id=[0, 1, 0, 0]))


def _mixed(rng):
    # float32 and float64 maps: the table is float64, and the float32 maps'
    # values are held exactly
    return ([rng.normal(size=(6, 8, 5)).astype(dtype)
             for dtype in (np.float32, np.float64, np.float32, np.float64)],
            dict(frame_index=[0, 1, 1, 2], camera_id=[0, 0, 1, 0]))


_LAYOUTS = {"tie_prone": _tie_prone, "overlapping": _overlapping,
            "invalid": _invalid, "empty_frame": _empty_frame,
            "sizes": _sizes, "mixed": _mixed}


def _points(rng, layout, n=3000):
    """Points in front of the identity-pose cameras, their frames, and
    (P_ind, kinds) for 12 elements of all three kinds over 3 frames."""
    points = rng.uniform([-1.5, -1.5, 0.5], [1.5, 1.5, 3.0], (n, 3))
    if layout == "tie_prone":
        # u = 4 x / z + 4 lands on integers: cell borders
        points[:, :2] = np.round(points[:, :2] * 4) / 4
        points[:, 2] = 1.0
    frame = rng.integers(0, 3, n)
    if layout == "empty_frame":
        frame[frame == 2] = 0
    P_ind = np.stack([frame, rng.integers(0, 12, n)], axis=1)
    kinds = np.array([KIND_CODES[k] for k in
                      ("agent", "open-set", "ground") * 4])
    return points, P_ind, kinds


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
class TestPixelPoolingMatchesPerPointReference:
    """The pipeline's pixel-id pooling against the per-point reference it
    replaced: one feature row per point, then pooled."""

    def _run(self, layout, seed=0):
        rng = np.random.default_rng(seed)
        maps, columns = _LAYOUTS[layout](rng)
        columns.setdefault("intrinsics", [[4.0, 4.0, 4.0, 3.0]] * len(maps))
        bundle = camera_bundle(maps, **columns)
        points, P_ind, kinds = _points(rng, layout)
        table, pixel = build_point_features(points, P_ind[:, 0], bundle, 5)
        valid = pixel >= 0
        got = pool_image_features(table, pixel, P_ind, kinds, 12, 3)
        return bundle, points, P_ind, kinds, valid, got

    def test_default_path_is_bit_identical(self, layout):
        bundle, points, P_ind, kinds, valid, (F_img, ok) = self._run(layout)
        F_pts, want_valid = build_point_features_reference(
            points, P_ind[:, 0], bundle, 5)
        want, want_ok = pool_image_features_reference(F_pts, want_valid,
                                                      P_ind, kinds, 12, 3)
        assert 0 < valid.sum() < valid.size
        np.testing.assert_array_equal(valid, want_valid)
        np.testing.assert_array_equal(ok, want_ok)
        np.testing.assert_array_equal(F_img, want)
        if layout == "mixed":
            assert bundle.pixel_features.dtype == np.float64
            assert F_pts.dtype == np.float64

    def test_pixel_ids_name_the_reference_rows(self, layout):
        bundle, points, P_ind, _, _, _ = self._run(layout)
        table, pixel = build_point_features(points, P_ind[:, 0], bundle, 5)
        F_pts, want_valid = build_point_features_reference(
            points, P_ind[:, 0], bundle, 5)
        assert pixel.dtype == np.int64
        assert (pixel[~want_valid] == -1).all()
        np.testing.assert_array_equal(pixel >= 0, want_valid)
        np.testing.assert_array_equal(table[pixel[want_valid]],
                                      F_pts[want_valid])

    def test_each_pixel_is_in_the_first_seeing_camera_of_its_frame(self,
                                                                   layout):
        bundle, points, P_ind, _, valid, _ = self._run(layout)
        _, pixel = build_point_features(points, P_ind[:, 0], bundle, 5)
        base = bundle.camera_base
        area = bundle.camera_size.prod(axis=1)
        owner = np.searchsorted(base, pixel[valid], side="right") - 1
        frame = P_ind[valid, 0]
        assert bundle.camera_valid[owner].all()
        np.testing.assert_array_equal(bundle.camera_frame[owner], frame)
        assert (pixel[valid] < base[owner] + area[owner]).all()
        # no valid camera of the same frame with a lower camera_id sees it
        seen = points[valid]
        for c in np.flatnonzero(bundle.camera_valid).tolist():
            _, in_view = project_points(seen, bundle, c)
            earlier = ((bundle.camera_frame[c] == frame)
                       & (bundle.camera_id[c] < bundle.camera_id[owner]))
            assert not (in_view & earlier).any()

    def test_point_features_equal_reference_rows(self, layout, monkeypatch):
        monkeypatch.setattr(pooling, "_POOL_BUFFER", 7)  # chunks of 1 row
        bundle, points, P_ind, _, _, _ = self._run(layout)
        table, pixel = build_point_features(points, P_ind[:, 0], bundle, 5)
        F_pts, _ = build_point_features_reference(points, P_ind[:, 0],
                                                  bundle, 5)
        got = point_features(table, pixel)
        assert got.dtype == F_pts.dtype
        np.testing.assert_array_equal(got, F_pts)

    def test_pixel_sums_equal_per_point_row_sums(self, layout, monkeypatch):
        monkeypatch.setattr(pooling, "_POOL_BUFFER", 23)
        bundle, points, P_ind, _, valid, _ = self._run(layout)
        table, pixel = build_point_features(points, P_ind[:, 0], bundle, 5)
        F_pts, _ = build_point_features_reference(points, P_ind[:, 0],
                                                  bundle, 5)
        cell = cell_index(P_ind, 3)
        got = segment_sum(table, cell, 36, pixel=pixel)
        want = segment_sum(F_pts, cell, 36, pixel=per_point_ids(valid))
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("seed", [1, 7])
def test_pipeline_image_features_match_per_point_reference(seed):
    """Through ``tokenize_bundle``: F_img and F_img_valid bit-identical to
    the per-point reference on a two-camera synthetic scene."""
    spec = SceneSpec(n_agents=3, n_clutter=4, T=4, area_m=50.0, cameras=3,
                     D=8)
    config = PipelineConfig(T=4, D=8, n_pts_ground=3000, n_pts_agent=2000,
                            n_pts_openset=1000)
    bundle = generate_scene(seed, spec).bundle
    result = tokenize_bundle(bundle, config)
    scene = result.scene
    F_pts, valid = build_point_features_reference(
        scene.P_xyz, scene.P_ind[:, 0], bundle, config.D)
    want, want_ok = pool_image_features_reference(
        F_pts, valid, scene.P_ind, scene.kind, scene.n_elem, config.T)
    np.testing.assert_array_equal(scene.F_pts_valid, valid)
    np.testing.assert_array_equal(scene.F_pts, F_pts)
    np.testing.assert_array_equal(result.F_img_valid, want_ok)
    np.testing.assert_array_equal(result.F_img, want)
