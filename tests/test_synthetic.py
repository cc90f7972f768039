import numpy as np
import pytest

from scenetok import (
    KIND_GROUND,
    PipelineConfig,
    SceneSpec,
    drop_agents,
    generate_scene,
    tokenize_bundle,
)
from scenetok.synthetic import _sample_box_shell


def bundles_equal(a, b):
    if (not np.array_equal(a.frame_size, b.frame_size)
            or a.agent_track.size != b.agent_track.size):
        return False
    if not np.array_equal(a.points, b.points):
        return False
    if not (np.array_equal(a.pixel_features, b.pixel_features)
            and np.array_equal(a.camera_size, b.camera_size)
            and np.array_equal(a.camera_rotation, b.camera_rotation)
            and np.array_equal(a.camera_translation, b.camera_translation)):
        return False
    return (np.array_equal(a.agent_track, b.agent_track)
            and np.array_equal(a.agent_frame, b.agent_frame)
            and np.array_equal(a.agent_box, b.agent_box))


def test_same_seed_bit_identical(small_spec):
    a = generate_scene(3, small_spec)
    b = generate_scene(3, small_spec)
    assert bundles_equal(a.bundle, b.bundle)
    for la, lb in zip(a.truth.labels, b.truth.labels):
        np.testing.assert_array_equal(la, lb)


def test_different_seed_differs(small_spec):
    a = generate_scene(3, small_spec)
    b = generate_scene(4, small_spec)
    assert not bundles_equal(a.bundle, b.bundle)


def test_pure_ground_scene_decomposes_to_tiles_only(small_config):
    spec = SceneSpec(n_agents=0, n_clutter=0, T=5, area_m=40.0, D=8)
    scene = generate_scene(11, spec)
    result = tokenize_bundle(scene.bundle, small_config)
    assert len(result.scene.elements) > 0
    assert all(el.kind == KIND_GROUND for el in result.scene.elements)


def test_agent_kinematics_by_construction():
    spec = SceneSpec(n_agents=3, n_clutter=0, T=11, area_m=80.0, D=8,
                     min_speed=1.0, max_speed=1.0, dt_s=0.1)
    scene = generate_scene(5, spec)
    boxes = {}
    for track_id, frame_index, row in zip(scene.bundle.agent_track.tolist(),
                                          scene.bundle.agent_frame.tolist(),
                                          scene.bundle.agent_box):
        boxes.setdefault(track_id, {})[frame_index] = row[:3]
    for track in boxes.values():
        for f in range(1, 11):
            step = np.linalg.norm(track[f] - track[f - 1])
            np.testing.assert_allclose(step, 0.1, atol=1e-12)


def test_truth_labels_cover_every_point(small_scene):
    for f, size in enumerate(small_scene.bundle.frame_size):
        assert small_scene.truth.labels[f].shape[0] == size


def test_feature_maps_encode_camera_and_label(small_scene):
    # non-zero cells hold exactly one label channel at value camera_id + 1
    bundle = small_scene.bundle
    for c, camera_id in enumerate(bundle.camera_id.tolist()):
        fm = bundle.feature_map(c)
        occupied = fm.sum(axis=2) > 0
        if not occupied.any():
            continue
        vals = fm[occupied]
        assert ((vals == 0) | (vals == camera_id + 1)).all()
        assert ((vals > 0).sum(axis=1) == 1).all()


def sample_box_shell_reference(rng, size, n):
    """The per-face loop that _sample_box_shell replaced."""
    l, w, h = size
    areas = np.array([w * h, w * h, l * h, l * h, l * w, l * w])
    face = rng.choice(6, size=n, p=areas / areas.sum())
    a = rng.uniform(-0.5, 0.5, size=n)
    b = rng.uniform(-0.5, 0.5, size=n)
    pts = np.empty((n, 3))
    for i, (axis, sign) in enumerate(((0, 1), (0, -1), (1, 1), (1, -1),
                                      (2, 1), (2, -1))):
        sel = face == i
        if axis == 0:
            pts[sel] = np.stack([np.full(sel.sum(), sign * l / 2),
                                 a[sel] * w, b[sel] * h], axis=1)
        elif axis == 1:
            pts[sel] = np.stack([a[sel] * l, np.full(sel.sum(), sign * w / 2),
                                 b[sel] * h], axis=1)
        else:
            pts[sel] = np.stack([a[sel] * l, b[sel] * w,
                                 np.full(sel.sum(), sign * h / 2)], axis=1)
    return pts


@pytest.mark.parametrize("seed", range(20))
def test_box_shell_equals_per_face_loop(seed):
    # same points bit for bit, from the same draws
    size = np.random.default_rng(seed).uniform(0.1, 5.0, 3)
    n = 37 * seed
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    pts = _sample_box_shell(rng, size, n)
    assert pts.tobytes() == sample_box_shell_reference(ref_rng, size,
                                                       n).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_spec_requires_room_for_labels():
    with pytest.raises(ValueError):
        SceneSpec(D=2)


class TestDropAgents:
    def test_ratio_zero_is_identity(self, small_scene):
        out, dropped = drop_agents(small_scene.bundle, 0.0, seed=1)
        assert dropped == []
        assert bundles_equal(out, small_scene.bundle)

    def test_floor_rule_and_determinism(self):
        spec = SceneSpec(n_agents=10, n_clutter=0, T=3, area_m=120.0, D=8)
        scene = generate_scene(2, spec)
        out1, d1 = drop_agents(scene.bundle, 0.5, seed=9)
        out2, d2 = drop_agents(scene.bundle, 0.5, seed=9)
        assert len(d1) == 5 and d1 == d2
        assert np.unique(out1.agent_track).size == 5

    def test_points_never_touched(self, small_scene):
        out, _ = drop_agents(small_scene.bundle, 0.5, seed=0)
        before = small_scene.bundle.points.shape[0]
        after = out.points.shape[0]
        assert before == after

    def test_dropped_agents_become_open_set(self, small_scene, small_config):
        base = tokenize_bundle(small_scene.bundle, small_config)
        ablated, dropped = drop_agents(small_scene.bundle, 0.5, seed=3)
        assert dropped
        out = tokenize_bundle(ablated, small_config)

        def count(res, kind):
            return sum(el.kind == kind for el in res.scene.elements)

        assert count(out, "open-set") >= count(base, "open-set")
        assert count(out, "agent") < count(base, "agent")

    def test_bad_ratio_rejected(self, small_scene):
        with pytest.raises(ValueError):
            drop_agents(small_scene.bundle, 1.5, seed=0)
