import numpy as np
import pytest

from scenetok import (
    PipelineConfig,
    PointCloudFrame,
    SceneBundle,
    SceneSpec,
    generate_scene,
    init_fusion_params,
    read_tokens,
    tokenize_bundle,
    write_tokens,
)
from scenetok.decompose import LABEL_AGENT, LABEL_DISCARDED, LABEL_GROUND, LABEL_OPENSET
from scenetok.errors import BudgetOverflowWarning, ShapeMismatch


class TestAssignTokenIds:
    @staticmethod
    def _agent(track_id, T=3):
        from scenetok.bundle import SceneElement

        return SceneElement(token_id=-1, kind="agent",
                            boxes=np.ones((T, 7)),
                            frame_valid=np.ones(T, dtype=bool),
                            source_id=track_id)

    @staticmethod
    def _track(n_points, T=3):
        from scenetok.tracking import TrackedElement

        return TrackedElement(boxes=np.zeros((T, 7)),
                              frame_valid=np.ones(T, dtype=bool),
                              members=[], total_points=n_points)

    @staticmethod
    def _tile(T=3):
        from scenetok.bundle import SceneElement

        return SceneElement(token_id=-1, kind="ground",
                            boxes=np.zeros((T, 7)),
                            frame_valid=np.ones(T, dtype=bool))

    def test_two_agents_one_cluster_one_tile_ordering(self):
        from scenetok.pipeline import assign_token_ids

        config = PipelineConfig(T=3, D=4, n_elem_agent=4, n_elem_openset=4,
                                n_elem_ground=4, n_pts_ground=10,
                                n_pts_agent=10, n_pts_openset=10)
        elements, agent_token, openset_token = assign_token_ids(
            {7: self._agent(7), 3: self._agent(3)}, [self._track(5)],
            [self._tile()], config)
        assert [el.kind for el in elements] == ["agent", "agent", "open-set",
                                                "ground"]
        assert [el.token_id for el in elements] == [0, 1, 2, 3]
        assert agent_token == {3: 0, 7: 1}  # sorted by track id
        assert openset_token == {0: 2}

    def test_openset_overflow_drops_16_smallest_of_400(self):
        from scenetok.errors import BudgetOverflowWarning
        from scenetok.pipeline import assign_token_ids

        config = PipelineConfig(T=3, D=4, n_pts_ground=10, n_pts_agent=10,
                                n_pts_openset=10)  # default budget 384
        tracks = [self._track(n_points=1000 + i) for i in range(400)]
        with pytest.warns(BudgetOverflowWarning) as record:
            elements, _, openset_token = assign_token_ids({}, tracks, [],
                                                          config)
        assert len(elements) == 384
        # the 16 smallest tracks are indices 0..15 (point counts ascend)
        dropped = sorted(set(range(400)) - set(openset_token))
        assert dropped == list(range(16))
        assert str(dropped) in str(record[0].message)


def test_union_of_token_point_sets_is_exact_partition(small_scene,
                                                      small_config):
    result = tokenize_bundle(small_scene.bundle, small_config)
    scene = result.scene
    # each compacted point carries exactly one token id, and every token id
    # in use belongs to a live element
    per_token = {el.token_id: int((scene.P_ind[:, 1] == el.token_id).sum())
                 for el in scene.elements}
    assert sum(per_token.values()) == scene.n_pts
    assert set(np.unique(scene.P_ind[:, 1])) <= set(per_token)


def test_every_point_labeled_and_tokens_partition(small_scene, small_config):
    result = tokenize_bundle(small_scene.bundle, small_config)
    for lab in result.partition.labels:
        assert np.isin(lab, [LABEL_GROUND, LABEL_AGENT, LABEL_OPENSET,
                             LABEL_DISCARDED]).all()
    # every compacted point references a live element of the matching kind
    scene = result.scene
    assert (scene.P_ind[:, 0] >= 0).all()
    assert (scene.P_ind[:, 0] < small_config.T).all()
    assert (scene.P_ind[:, 1] >= 0).all()
    assert (scene.P_ind[:, 1] < scene.n_elem).all()


def test_token_ids_are_block_ordered(small_scene, small_config):
    result = tokenize_bundle(small_scene.bundle, small_config)
    kinds = [el.kind for el in result.scene.elements]
    ids = [el.token_id for el in result.scene.elements]
    assert ids == list(range(len(ids)))
    order = {"agent": 0, "open-set": 1, "ground": 2}
    ranks = [order[k] for k in kinds]
    assert ranks == sorted(ranks)


def test_agent_budget_overflow_warns_and_keeps_nearest():
    spec = SceneSpec(n_agents=6, n_clutter=0, T=3, area_m=110.0, D=8)
    scene = generate_scene(1, spec)
    config = PipelineConfig(T=3, D=8, n_elem_agent=3, n_elem_openset=8,
                            n_elem_ground=64, n_pts_ground=2000,
                            n_pts_agent=1500, n_pts_openset=500)
    with pytest.warns(BudgetOverflowWarning):
        result = tokenize_bundle(scene.bundle, config)
    agents = [el for el in result.scene.elements if el.kind == "agent"]
    assert len(agents) == 3
    kept = {el.source_id for el in agents}
    dist = {a["track_id"]: np.linalg.norm(a["start"][:2])
            for a in scene.agent_specs}
    kept_d = max(dist[t] for t in kept)
    dropped_d = min(d for t, d in dist.items() if t not in kept)
    assert kept_d <= dropped_d + 1.0  # nearest mean-center wins (speed jitter)
    # points of a dropped agent track are discarded, not given a token
    dropped = [t for t in dist if t not in kept]
    for lab, owner in zip(result.partition.labels,
                          result.partition.agent_track):
        assert (lab[np.isin(owner, dropped)] == LABEL_DISCARDED).all()
        assert np.isin(owner[lab == LABEL_AGENT], list(kept)).all()


def test_openset_budget_overflow_keeps_largest():
    spec = SceneSpec(n_agents=0, n_clutter=5, T=3, area_m=80.0, D=8,
                     clutter_points=40)
    scene = generate_scene(6, spec)
    config = PipelineConfig(T=3, D=8, n_elem_agent=4, n_elem_openset=2,
                            n_elem_ground=64, n_pts_ground=2000,
                            n_pts_agent=500, n_pts_openset=500)
    with pytest.warns(BudgetOverflowWarning) as record:
        result = tokenize_bundle(scene.bundle, config)
    assert "dropped smallest tracks" in str(record[0].message)
    opensets = [el for el in result.scene.elements if el.kind == "open-set"]
    assert len(opensets) == 2


def test_empty_scene_no_crash():
    config = PipelineConfig(T=3, D=4, n_elem_agent=2, n_elem_openset=2,
                            n_elem_ground=2, n_pts_ground=10, n_pts_agent=10,
                            n_pts_openset=10)
    bundle = SceneBundle(frames=[PointCloudFrame(frame_index=f,
                                                 points=np.empty((0, 3)))
                                 for f in range(3)])
    result = tokenize_bundle(bundle, config)
    assert result.scene.n_pts == 0
    assert result.scene.n_elem == 0
    assert result.plane is None


def test_tokenize_deterministic(small_scene, small_config):
    a = tokenize_bundle(small_scene.bundle, small_config)
    b = tokenize_bundle(small_scene.bundle, small_config)
    np.testing.assert_array_equal(a.scene.P_xyz, b.scene.P_xyz)
    np.testing.assert_array_equal(a.scene.P_ind, b.scene.P_ind)
    np.testing.assert_array_equal(a.F_img, b.F_img)


def test_fusion_params_shape_checked(small_scene, small_config):
    bad = init_fusion_params(T=small_config.T + 1, D=small_config.D)
    with pytest.raises(ShapeMismatch):
        tokenize_bundle(small_scene.bundle, small_config, params=bad)


def test_full_run_with_fusion(small_scene, small_config):
    params = init_fusion_params(T=small_config.T, D=small_config.D, seed=2)
    result = tokenize_bundle(small_scene.bundle, small_config, params=params)
    assert result.tokens is not None
    F = result.tokens.F_elem
    assert F.shape == (result.scene.n_elem, small_config.D)
    assert np.isfinite(F).all()
    # every element in this scene has at least one valid frame
    assert (np.abs(F).sum(axis=1) > 0).all()


def test_invalid_feature_rows_are_zero(small_scene, small_config):
    result = tokenize_bundle(small_scene.bundle, small_config)
    scene = result.scene
    assert (scene.F_pts[~scene.F_pts_valid] == 0).all()


def test_float32_params_write_float32_tokens(small_scene, small_config,
                                             tmp_path):
    params = init_fusion_params(T=small_config.T, D=small_config.D, seed=2,
                                dtype=np.float32)
    result = tokenize_bundle(small_scene.bundle, small_config, params=params)
    path = tmp_path / "tokens.most"
    write_tokens(path, result.tokens)
    assert read_tokens(path).F_elem.dtype == np.float32
