import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from camera_helpers import camera_bundle

from scenetok import PipelineConfig, SceneBundle, validate_bundle
from scenetok.bundle import check_bundle, check_tables, normalize_heading
from scenetok.errors import (
    BadRotation,
    BundleValidationError,
    DuplicateCameraFrame,
    DuplicateTrackFrame,
    FrameCountMismatch,
    NonFiniteCoordinate,
)


def _frames(T, n=4):
    """Point table columns for T frames of n points each."""
    rng = np.random.default_rng(0)
    return dict(points=rng.normal(size=(T * n, 3)), frame_size=[n] * T)


def test_empty_bundle_frame_count_mismatch():
    config = PipelineConfig(T=11)
    with pytest.raises(FrameCountMismatch):
        validate_bundle(SceneBundle(points=np.empty((0, 3)), frame_size=[]),
                        config)


def test_clean_bundle_accepted():
    config = PipelineConfig(T=3)
    bundle = camera_bundle([np.zeros((4, 4, 256))],
                           intrinsics=[[1, 1, 2, 2]], **_frames(3),
                           agent_track=[0], agent_frame=[0],
                           agent_box=[[0, 0, 0, 1, 1, 1, 0.5]],
                           agent_label=[""])
    assert validate_bundle(bundle, config) is bundle


def test_validation_idempotent():
    config = PipelineConfig(T=2)
    bundle = SceneBundle(**_frames(2))
    assert validate_bundle(validate_bundle(bundle, config), config) is bundle


def test_nan_point_names_frame_and_row():
    config = PipelineConfig(T=2)
    frames = _frames(2)
    frames["points"][4 + 2, 1] = np.nan
    with pytest.raises(NonFiniteCoordinate) as exc:
        validate_bundle(SceneBundle(**frames), config)
    assert "frame 1" in str(exc.value)
    assert "row 2" in str(exc.value)


def test_bad_rotation_rejected():
    config = PipelineConfig(T=1)
    bundle = camera_bundle([np.zeros((2, 2, 256))], rotation=[np.eye(3) * 1.5],
                           **_frames(1))
    with pytest.raises(BadRotation):
        validate_bundle(bundle, config)


def test_duplicate_track_frame_rejected():
    config = PipelineConfig(T=1)
    agents = dict(agent_track=[3, 3], agent_frame=[0, 0],
                  agent_box=[[0, 0, 0, 1, 1, 1, 0.0]] * 2,
                  agent_label=["", ""])
    with pytest.raises(DuplicateTrackFrame):
        validate_bundle(SceneBundle(**_frames(1), **agents), config)


def test_all_violations_reported():
    config = PipelineConfig(T=2)
    frames = _frames(2)
    frames["points"][0, 0] = np.inf
    agents = dict(agent_track=[1, 1], agent_frame=[0, 0],
                  agent_box=[[0, 0, 0, 1, 1, 1, 0.0]] * 2,
                  agent_label=["", ""])
    with pytest.raises(NonFiniteCoordinate) as exc:
        validate_bundle(SceneBundle(**frames, **agents), config)
    assert len(exc.value.violations) == 2


def check_agents_reference(bundle, T):
    """The per-box agent checks that the array checks replaced."""
    problems = []
    seen = set()
    for track_id, frame_index, row in zip(bundle.agent_track.tolist(),
                                          bundle.agent_frame.tolist(),
                                          bundle.agent_box.tolist()):
        center, size, heading = np.array(row[:3]), np.array(row[3:6]), row[6]
        key = (track_id, frame_index)
        if key in seen:
            problems.append(DuplicateTrackFrame(
                f"track {track_id} appears twice in frame {frame_index}"))
        seen.add(key)
        if not (np.isfinite(center).all() and np.isfinite(size).all()
                and math.isfinite(heading)):
            problems.append(NonFiniteCoordinate(
                f"track {track_id} frame {frame_index}: non-finite box attribute"))
            continue
        if (size <= 0).any():
            problems.append(BundleValidationError(
                f"track {track_id} frame {frame_index}: non-positive size"))
        if (np.abs(np.array(row[:6])) > 1e9).any():
            problems.append(BundleValidationError(
                f"track {track_id} frame {frame_index}: center or size "
                f"beyond 1e+09 m"))
        if not (-math.pi <= heading < math.pi):
            problems.append(BundleValidationError(
                f"track {track_id} frame {frame_index}: "
                f"heading {heading} outside [-pi, pi)"))
        if not (0 <= frame_index < T):
            problems.append(FrameCountMismatch(
                f"track {track_id}: frame_index {frame_index} outside [0, {T})"))
    return problems


_BOX_VALUES = hs.sampled_from([0.5, 1.0, 2.0, 0.0, -1.0, math.pi, -math.pi,
                               -3.5, np.nextafter(math.pi, 0), np.nan,
                               np.inf, -np.inf, 1e9, -1e9, 2e9, -1e300])


@settings(max_examples=300, deadline=None)
@given(rows=hs.lists(hs.tuples(hs.integers(0, 3), hs.integers(-2, 4),
                               hs.lists(_BOX_VALUES, min_size=7, max_size=7)),
                     max_size=12))
def test_agent_checks_match_per_box_reference(rows):
    T = 3
    bundle = SceneBundle(**_frames(T),
                         agent_track=[r[0] for r in rows],
                         agent_frame=[r[1] for r in rows],
                         agent_box=[r[2] for r in rows],
                         agent_label=[""] * len(rows))
    got = check_bundle(bundle, PipelineConfig(T=T))
    want = check_agents_reference(bundle, T)
    assert [(type(p), str(p)) for p in got] == [(type(p), str(p))
                                                for p in want]


def test_agent_columns_of_unequal_length_rejected():
    bundle = SceneBundle(**_frames(1), agent_track=[0, 1],
                         agent_frame=[0],
                         agent_box=[[0, 0, 0, 1, 1, 1, 0.0]] * 2,
                         agent_label=["", ""])
    with pytest.raises(BundleValidationError) as exc:
        validate_bundle(bundle, PipelineConfig(T=1))
    assert exc.value.violations == [
        "agent columns track, frame, box, label differ in length: "
        "(2, 1, 2, 2)"]


def test_normalize_heading_range():
    h = normalize_heading(np.array([-np.pi, np.pi, 3 * np.pi, -7.5, 0.0]))
    assert ((h >= -np.pi) & (h < np.pi)).all()
    assert h[0] == -np.pi
    assert h[1] == -np.pi  # pi wraps to -pi
    np.testing.assert_allclose(h[4], 0.0)


def test_config_invariants():
    with pytest.raises(ValueError):
        PipelineConfig(T=0)
    with pytest.raises(ValueError):
        PipelineConfig(tile_size_m=-1.0)
    cfg = PipelineConfig()
    assert cfg.n_elem == 768
    assert cfg.n_pts == 65536


def check_points_reference(frames, T):
    """The per-frame point checks that the point table's checks replaced;
    ``frames`` holds each frame's (n, 3) points, frame_index = position."""
    problems = []
    if len(frames) != T:
        problems.append(FrameCountMismatch(
            f"bundle has {len(frames)} frames, config expects T={T}"))
    for frame_index, points in enumerate(frames):
        bad = ~np.isfinite(points)
        if bad.any():
            row = int(np.argwhere(bad.any(axis=1))[0, 0])
            problems.append(NonFiniteCoordinate(
                f"frame {frame_index}: non-finite point coordinate at row {row}"))
    for frame_index, points in enumerate(frames):
        far = (np.isfinite(points).all(axis=1)
               & (np.abs(points) > 1e9).any(axis=1))
        if far.any():
            problems.append(BundleValidationError(
                f"frame {frame_index}: point coordinate beyond 1e+09 m at row "
                f"{int(np.argmax(far))}"))
    return problems


_COORDS = hs.sampled_from([0.0, 1.5, -2.0, np.nan, np.inf, -np.inf, 1e9,
                           -1e9, np.nextafter(1e9, np.inf), -3e9, 1e300])


@settings(max_examples=300, deadline=None)
@given(frames=hs.lists(hs.lists(hs.tuples(_COORDS, _COORDS, _COORDS),
                                max_size=5), max_size=6),
       T=hs.integers(1, 6))
def test_point_checks_match_per_frame_reference(frames, T):
    """Empty frames, non-finite rows and rows beyond the coordinate bound
    in several frames give the violations of the per-frame checks, in the
    same order."""
    frames = [np.array(rows, dtype=np.float64).reshape(-1, 3)
              for rows in frames]
    bundle = SceneBundle(points=np.concatenate([np.empty((0, 3)), *frames]),
                         frame_size=[len(points) for points in frames])
    got = check_bundle(bundle, PipelineConfig(T=T))
    want = check_points_reference(frames, T)
    assert [(type(p), str(p)) for p in got] == [(type(p), str(p))
                                                for p in want]


@pytest.mark.parametrize("frame_size, message", [
    ([4, 5], "frame_size [4, 5] must be non-negative and sum to the 8 points"),
    ([10, -2],
     "frame_size [10, -2] must be non-negative and sum to the 8 points"),
])
def test_frame_sizes_that_do_not_split_the_points(frame_size, message):
    """One violation, and no per-frame, camera or agent check after it."""
    frames = _frames(2)
    frames["points"][0, 0] = np.nan
    bundle = camera_bundle([np.zeros((2, 2, 4))], frame_index=[5],
                           points=frames["points"], frame_size=frame_size,
                           agent_track=[0], agent_frame=[9],
                           agent_box=[[0, 0, 0, 1, 1, 1, 0.0]])
    with pytest.raises(BundleValidationError) as exc:
        validate_bundle(bundle, PipelineConfig(T=2))
    assert type(exc.value) is BundleValidationError
    assert exc.value.violations == [message]


@pytest.mark.parametrize("shape", [(16,), (4, 4), (2, 2, 2, 4), (0, 4, 4),
                                   (4, 0, 4)])
def test_empty_or_not_3d_feature_map_is_a_validation_error(shape):
    """A pixel table that does not hold a 4 x 4 camera's (16, D) pixels."""
    bundle = camera_bundle([np.zeros((4, 4, 4))], camera_id=[1], **_frames(1))
    bundle.pixel_features = np.zeros(shape)
    with pytest.raises(BundleValidationError) as exc:
        validate_bundle(bundle, PipelineConfig(T=1))
    assert exc.value.violations == [
        f"pixel table must be (16, D) for the cameras' 16 pixels, got shape "
        f"{shape}"]


@pytest.mark.parametrize("size, D", [((0, 4), 4), ((4, 0), 4), ((-1, -4), 4),
                                     ((4, 4), 0)])
def test_empty_feature_map_is_a_validation_error(size, D):
    pixels = max(size[0] * size[1], 0)
    bundle = SceneBundle(**_frames(1), camera_id=[1], camera_frame=[0],
                         camera_intrinsics=[[1, 1, 0, 0]],
                         camera_rotation=[np.eye(3)],
                         camera_translation=[[0, 0, 0]], camera_valid=[True],
                         camera_size=[size], pixel_features=np.zeros((pixels, D)))
    with pytest.raises(BundleValidationError) as exc:
        validate_bundle(bundle, PipelineConfig(T=1))
    assert exc.value.violations[0] == (
        f"camera 1 frame 0: feature map must be a non-empty (H, W, D) array, "
        f"got shape {(*size, D)}")


def test_camera_columns_of_unequal_length_rejected():
    bundle = camera_bundle([np.zeros((2, 2, 4))] * 2, **_frames(1))
    bundle.camera_valid = np.ones(3, dtype=bool)
    for check in (check_tables, lambda b: validate_bundle(b, PipelineConfig(T=1))):
        with pytest.raises(BundleValidationError) as exc:
            check(bundle)
        assert exc.value.violations == [
            "camera columns id, frame, intrinsics, rotation, translation, "
            "valid, size differ in length: (2, 2, 2, 2, 2, 3, 2)"]


def test_duplicate_camera_frame_rejected():
    """Two maps of one (camera, frame) pair would be written to one blob;
    both table checks name the repeat."""
    bundle = camera_bundle([np.zeros((2, 2, 4)), np.ones((2, 2, 4)),
                            np.zeros((3, 3, 4))], camera_id=[0, 1, 0],
                           frame_index=[1, 1, 1], **_frames(2))
    message = "camera 0 appears twice in frame 1"
    with pytest.raises(DuplicateCameraFrame) as exc:
        check_tables(bundle)
    assert exc.value.violations == [message]
    problems = check_bundle(bundle, PipelineConfig(T=2))
    assert [(type(p), str(p)) for p in problems] == [
        (DuplicateCameraFrame, message)]
    with pytest.raises(DuplicateCameraFrame):
        validate_bundle(bundle, PipelineConfig(T=2))


def test_camera_checks_report_each_camera_in_order():
    maps = [np.zeros((2, 3, 2)) for _ in range(4)]
    maps[1][1, 2, 0] = np.nan
    maps[2][0, 0, 1] = -np.inf
    bundle = camera_bundle(maps, camera_id=[0, 1, 2, 3],
                           frame_index=[0, 3, 1, -1],
                           rotation=[np.eye(3), np.eye(3) * 2, np.eye(3),
                                     np.full((3, 3), np.nan)],
                           **_frames(3))
    problems = check_bundle(bundle, PipelineConfig(T=3))
    assert [(type(p), str(p)) for p in problems] == [
        (BadRotation, "camera 1 frame 3: rotation not orthonormal "
                      "(|R^T R - I| = 3)"),
        (NonFiniteCoordinate, "camera 1 frame 3: non-finite feature values"),
        (FrameCountMismatch, "camera 1: frame_index 3 outside [0, 3)"),
        (NonFiniteCoordinate, "camera 2 frame 1: non-finite feature values"),
        (BadRotation, "camera 3 frame -1: rotation not orthonormal "
                      "(|R^T R - I| = nan)"),
        (FrameCountMismatch, "camera 3: frame_index -1 outside [0, 3)")]


@pytest.mark.parametrize("scale", [1e39, 1e200])
def test_huge_point_coordinates_listed_per_frame(small_spec, scale):
    from scenetok import generate_scene

    bundle = generate_scene(1, small_spec).bundle
    bundle.points = bundle.points * scale
    with pytest.raises(BundleValidationError) as exc:
        validate_bundle(bundle, PipelineConfig(T=small_spec.T))
    assert exc.value.violations == [
        f"frame {f}: point coordinate beyond 1e+09 m at row 0"
        for f in range(small_spec.T)]


def test_camera_translations_within_the_coordinate_bound():
    maps = [np.zeros((2, 3, 2)) for _ in range(4)]
    bundle = camera_bundle(maps, translation=[[0.0, -1e9, 1e9],
                                              [0.0, 0.0, 2e9],
                                              [np.nan, 0.0, 0.0],
                                              [-1e300, 0.0, 0.0]],
                           **_frames(1))
    problems = check_bundle(bundle, PipelineConfig(T=1))
    assert [(type(p), str(p)) for p in problems] == [
        (BundleValidationError,
         f"camera {c} frame 0: translation non-finite or beyond 1e+09 m")
        for c in (1, 2, 3)]
