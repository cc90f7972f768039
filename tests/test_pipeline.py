import tracemalloc

import numpy as np
import pytest

from scenetok import (
    PipelineConfig,
    SceneBundle,
    SceneSpec,
    drop_agents,
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
    def _track(index, T=3):
        from scenetok.bundle import SceneElement

        return SceneElement(token_id=-1, kind="open-set",
                            boxes=np.zeros((T, 7)),
                            frame_valid=np.ones(T, dtype=bool),
                            source_id=index)

    @staticmethod
    def _tile(T=3):
        from scenetok.bundle import SceneElement

        return SceneElement(token_id=-1, kind="ground",
                            boxes=np.zeros((T, 7)),
                            frame_valid=np.ones(T, dtype=bool))

    @staticmethod
    def _assign(agent_tracks, openset_tracks, openset_points,
                ground_elements, config):
        """The element-list form of ``assign_token_ids`` over its block call:
        (kept elements with token ids set, a token map by agent rank in
        ``sorted(agent_tracks)``, a token map by open-set track index)."""
        from scenetok.pipeline import assign_token_ids

        T = config.T
        agents = [agent_tracks[t] for t in sorted(agent_tracks)]
        keep = assign_token_ids(
            np.array(sorted(agent_tracks), dtype=np.int64),
            np.array([el.boxes for el in agents]).reshape(-1, T, 7),
            np.array([el.frame_valid for el in agents]).reshape(-1, T),
            np.asarray(openset_points), np.zeros(len(ground_elements)),
            config)
        elements, token_maps = [], []
        for block, kept in zip((agents, openset_tracks, ground_elements), keep):
            token_map = np.full(len(block), -1, dtype=np.int64)
            token_map[kept] = len(elements) + np.arange(kept.size)
            token_maps.append(token_map)
            elements += [block[i] for i in kept]
        for token_id, el in enumerate(elements):
            el.token_id = token_id
        return elements, token_maps[0], token_maps[1]

    def test_two_agents_one_cluster_one_tile_ordering(self):
        config = PipelineConfig(T=3, D=4, n_elem_agent=4, n_elem_openset=4,
                                n_elem_ground=4, n_pts_ground=10,
                                n_pts_agent=10, n_pts_openset=10)
        elements, agent_token, openset_token = self._assign(
            {7: self._agent(7), 3: self._agent(3)}, [self._track(0)],
            np.array([5]), [self._tile()], config)
        assert [el.kind for el in elements] == ["agent", "agent", "open-set",
                                                "ground"]
        assert [el.token_id for el in elements] == [0, 1, 2, 3]
        assert [el.source_id for el in elements[:2]] == [3, 7]
        # indexed by rank among the sorted track ids 3, 7
        assert agent_token.dtype == openset_token.dtype == np.int64
        assert agent_token.tolist() == [0, 1]
        assert openset_token.tolist() == [2]

    def test_openset_overflow_drops_16_smallest_of_400(self):
        from scenetok.errors import BudgetOverflowWarning

        config = PipelineConfig(T=3, D=4, n_pts_ground=10, n_pts_agent=10,
                                n_pts_openset=10)  # default budget 384
        tracks = [self._track(i) for i in range(400)]
        with pytest.warns(BudgetOverflowWarning) as record:
            elements, _, openset_token = self._assign(
                {}, tracks, 1000 + np.arange(400), [], config)
        assert len(elements) == 384
        # the 16 smallest tracks are indices 0..15 (point counts ascend)
        dropped = np.flatnonzero(openset_token < 0).tolist()
        assert dropped == list(range(16))
        assert str(dropped) in str(record[0].message)
        assert openset_token[16:].tolist() == list(range(384))

    def test_budgets_match_per_element_reference(self):
        import warnings

        from scenetok.bundle import SceneElement

        rng = np.random.default_rng(8)
        T = 11
        config = PipelineConfig(T=T, D=4, n_elem_agent=12, n_elem_openset=20,
                                n_pts_ground=10, n_pts_agent=10,
                                n_pts_openset=10)
        for _ in range(30):
            agent_tracks = {}
            for track_id in rng.choice(1000, rng.integers(0, 30),
                                       replace=False).tolist():
                valid = rng.random(T) < rng.random()
                valid[rng.integers(T)] = True
                agent_tracks[track_id] = SceneElement(
                    token_id=-1, kind="agent",
                    boxes=rng.normal(0, 30, (T, 7)) * valid[:, None],
                    frame_valid=valid, source_id=track_id)
            if agent_tracks:  # a copied track ties on mean distance
                copy = agent_tracks[min(agent_tracks)]
                agent_tracks[1000] = SceneElement(
                    token_id=-1, kind="agent", boxes=copy.boxes.copy(),
                    frame_valid=copy.frame_valid.copy(), source_id=1000)
            n_open = int(rng.integers(0, 40))
            tracks = [self._track(i, T) for i in range(n_open)]
            points = rng.integers(1, 5, n_open).astype(float)  # many ties
            runs = []
            for assign in (assign_token_ids_reference, self._assign):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    elements, agent_token, openset_token = assign(
                        agent_tracks, tracks, points, [], config)
                runs.append(([(el.kind, el.source_id) for el in elements],
                             agent_token.tolist(), openset_token.tolist(),
                             [str(w.message) for w in caught]))
            assert runs[0] == runs[1]


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
    bundle = SceneBundle(points=np.empty((0, 3)), frame_size=[0, 0, 0])
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
    assert 0 < scene.F_pts_valid.sum() < scene.n_pts
    np.testing.assert_array_equal(scene.F_pts_valid, scene.pixel >= 0)


def test_float32_params_write_float32_tokens(small_scene, small_config,
                                             tmp_path):
    params = init_fusion_params(T=small_config.T, D=small_config.D, seed=2,
                                dtype=np.float32)
    result = tokenize_bundle(small_scene.bundle, small_config, params=params)
    path = tmp_path / "tokens.most"
    write_tokens(path, result.tokens)
    assert read_tokens(path).F_elem.dtype == np.float32


def group_agent_tracks_reference(bundle, T):
    """One (T, 7) box tensor + validity mask per agent track, by track id:
    the per-box grouping the agent candidate table replaced."""
    from scenetok.bundle import SceneElement

    tracks = {}
    for track_id, frame_index, row in zip(bundle.agent_track.tolist(),
                                          bundle.agent_frame.tolist(),
                                          bundle.agent_box):
        el = tracks.get(track_id)
        if el is None:
            el = SceneElement(token_id=-1, kind="agent",
                              boxes=np.zeros((T, 7)),
                              frame_valid=np.zeros(T, dtype=bool),
                              source_id=track_id)
            tracks[track_id] = el
        el.boxes[frame_index] = row
        el.frame_valid[frame_index] = True
    return tracks


def assign_token_ids_reference(agent_tracks, openset_tracks, openset_points,
                               ground_elements, config):
    """Per-element token assignment: the agent and open-set budgets applied
    with Python sorts, then token ids set on each kept element.

    Returns the kept elements plus int64 token maps (-1 where dropped) by
    agent rank in ``sorted(agent_tracks)`` and by open-set track index.
    """
    import warnings

    agent_ids = sorted(agent_tracks)
    agent_rank = list(range(len(agent_ids)))
    if len(agent_ids) > config.n_elem_agent:
        def mean_dist(r):
            el = agent_tracks[agent_ids[r]]
            centers = el.boxes[el.frame_valid, :3]
            return float(np.linalg.norm(centers, axis=1).mean())
        ranked = sorted(agent_rank, key=lambda r: (mean_dist(r), r))
        kept = ranked[:config.n_elem_agent]
        dropped = [agent_ids[r] for r in sorted(set(agent_rank) - set(kept))]
        warnings.warn(
            f"agent budget {config.n_elem_agent} exceeded by {len(dropped)}; "
            f"dropped farthest tracks {dropped}", BudgetOverflowWarning)
        agent_rank = sorted(kept)

    track_idx = list(range(len(openset_tracks)))
    if len(track_idx) > config.n_elem_openset:
        ranked = sorted(track_idx, key=lambda i: (-openset_points[i], i))
        kept = ranked[:config.n_elem_openset]
        dropped = sorted(set(track_idx) - set(kept))
        warnings.warn(
            f"open-set budget {config.n_elem_openset} exceeded by "
            f"{len(dropped)}; dropped smallest tracks {dropped}",
            BudgetOverflowWarning)
        track_idx = sorted(kept)

    elements = []
    agent_token = np.full(len(agent_ids), -1, dtype=np.int64)
    for r in agent_rank:
        agent_token[r] = len(elements)
        elements.append(agent_tracks[agent_ids[r]])
    openset_token = np.full(len(openset_tracks), -1, dtype=np.int64)
    for i in track_idx:
        openset_token[i] = len(elements)
        elements.append(openset_tracks[i])
    elements.extend(ground_elements)
    for token_id, el in enumerate(elements):
        el.token_id = token_id
    return elements, agent_token, openset_token


def compact_reference(bundle, config):
    """The per-frame, per-kind pool assembly that the flat pass replaced.

    Re-runs every stage up to projection and returns (P_xyz, P_ind, F_pts,
    labels, elements) with the labels of dropped points set to
    LABEL_DISCARDED.  Each cluster is boxed on its own by the per-cluster
    reference fit, each open-set track's boxes and point count are
    gathered cluster by cluster from the tracker's member table, the ground
    is tiled under its budget by the ``np.unique`` reference, and elements
    are grouped and given token ids one by one.
    """
    from camera_helpers import build_point_features_reference

    from scenetok import decompose, ground, tracking
    from scenetok.bundle import SceneElement
    from scenetok.compact import downsample
    from test_decompose import fit_tight_box_reference
    from test_ground import tile_reference

    T = config.T
    split = np.cumsum(bundle.frame_size)[:-1]
    frames = np.split(bundle.points, split)
    if bundle.points.shape[0] >= 3:
        _, ground_mask = ground.fit_and_segment(bundle.points, config)
        ground_masks = np.split(ground_mask, split)
    else:
        ground_masks = [np.zeros(points.shape[0], dtype=bool)
                        for points in frames]
    labels, agent_track, cluster_id, frame_boxes, frame_sizes = ([], [], [],
                                                                  [], [])
    for f, points in enumerate(frames):
        rows = bundle.agent_frame == f
        lab, atr, cid = decompose.decompose_frame(
            points, ground_masks[f], bundle.agent_track[rows],
            bundle.agent_box[rows], config.cluster.radius_m,
            config.cluster.min_points)
        labels.append(lab)
        agent_track.append(atr)
        cluster_id.append(cid)
        clusters = range(cid.max(initial=-1) + 1)
        frame_boxes.append(np.array(
            [fit_tight_box_reference(points[cid == c])
             for c in clusters]).reshape(-1, 7))
        frame_sizes.append([int((cid == c).sum()) for c in clusters])
    members = tracking.track_open_set(frame_boxes, T, config.track)
    openset_tracks, openset_points = [], []
    for i, row in enumerate(members):
        boxes, n_points = np.zeros((T, 7)), 0
        for f, c in enumerate(row):
            if c >= 0:
                boxes[f] = frame_boxes[f][c]
                n_points += frame_sizes[f][c]
        openset_tracks.append(SceneElement(token_id=-1, kind="open-set",
                                           boxes=boxes, frame_valid=row >= 0,
                                           source_id=i))
        openset_points.append(n_points)

    ground_pts = [points[labels[f] == LABEL_GROUND]
                  for f, points in enumerate(frames)]
    ground_elements, tile_of_point = tile_reference(
        np.concatenate(ground_pts, axis=0), config.tile_size_m,
        config.n_elem_ground, T)
    agent_tracks = group_agent_tracks_reference(bundle, T)
    elements, agent_rank_token, openset_token = assign_token_ids_reference(
        agent_tracks, openset_tracks, np.array(openset_points),
        ground_elements, config)
    agent_token = dict(zip(sorted(agent_tracks), agent_rank_token.tolist()))
    ground_token_base = len(elements) - len(ground_elements)
    cluster_token = [np.full(len(boxes), -1, dtype=np.int64)
                     for boxes in frame_boxes]
    for i, row in enumerate(members):
        for f, c in enumerate(row):
            if c >= 0:
                cluster_token[f][c] = openset_token[i]

    pool_parts = {kind: ([], [], []) for kind in ("agent", "open-set",
                                                  "ground")}
    ground_offset = 0
    for f, points in enumerate(frames):
        lab = labels[f]
        token = np.full(lab.shape[0], -1, dtype=np.int64)
        g_sel = lab == LABEL_GROUND
        n_g = int(g_sel.sum())
        tiles = tile_of_point[ground_offset:ground_offset + n_g]
        ground_offset += n_g
        token[g_sel] = np.where(tiles >= 0, ground_token_base + tiles, -1)
        for i in np.flatnonzero(lab == LABEL_AGENT):
            token[i] = agent_token.get(int(agent_track[f][i]), -1)
        o_sel = lab == LABEL_OPENSET
        token[o_sel] = cluster_token[f][cluster_id[f][o_sel]]
        lab[(token < 0) & (lab != LABEL_DISCARDED)] = LABEL_DISCARDED
        for kind, code in (("ground", LABEL_GROUND), ("agent", LABEL_AGENT),
                           ("open-set", LABEL_OPENSET)):
            sel = (lab == code) & (token >= 0)
            if sel.any():
                xs, fs, ts = pool_parts[kind]
                xs.append(points[sel])
                fs.append(np.full(int(sel.sum()), f, dtype=np.int64))
                ts.append(token[sel])

    budgets = {"agent": config.n_pts_agent, "open-set": config.n_pts_openset,
               "ground": config.n_pts_ground}
    parts = []
    for offset, kind in enumerate(("agent", "open-set", "ground")):
        xs, fs, ts = pool_parts[kind]
        if xs:
            xyz, fr, tk = (np.concatenate(xs), np.concatenate(fs),
                           np.concatenate(ts))
        else:
            xyz, fr, tk = (np.empty((0, 3)), np.empty(0, dtype=np.int64),
                           np.empty(0, dtype=np.int64))
        sel = downsample(len(xyz), budgets[kind], seed=config.seed + offset + 1)
        parts.append((xyz[sel], fr[sel], tk[sel]))
    P_xyz = np.concatenate([p[0] for p in parts], axis=0)
    P_ind = np.stack([np.concatenate([p[1] for p in parts]),
                      np.concatenate([p[2] for p in parts])], axis=1)
    F_pts, _ = build_point_features_reference(P_xyz, P_ind[:, 0], bundle,
                                              config.D)
    return P_xyz, P_ind, F_pts, labels, elements


def _compaction_case(name, small_scene, small_config):
    import dataclasses

    if name == "small_scene":
        return small_scene.bundle, small_config
    if name == "agent_overflow":
        scene = generate_scene(1, SceneSpec(n_agents=6, n_clutter=0, T=3,
                                            area_m=110.0, D=8))
        return scene.bundle, PipelineConfig(
            T=3, D=8, n_elem_agent=3, n_elem_openset=8, n_elem_ground=64,
            n_pts_ground=2000, n_pts_agent=1500, n_pts_openset=500)
    if name == "openset_overflow":
        scene = generate_scene(6, SceneSpec(n_agents=0, n_clutter=5, T=3,
                                            area_m=80.0, D=8,
                                            clutter_points=40))
        return scene.bundle, PipelineConfig(
            T=3, D=8, n_elem_agent=4, n_elem_openset=2, n_elem_ground=64,
            n_pts_ground=2000, n_pts_agent=500, n_pts_openset=500)
    if name == "perception_dropout":
        # The agents' points fall through to clustering: open-set tracks of
        # uneven sizes and lifetimes, the largest 8 of 32 kept.
        bundle, _ = drop_agents(small_scene.bundle, 1.0, seed=0)
        return bundle, dataclasses.replace(small_config, n_elem_openset=8)
    if name == "pools_over_budget":
        return small_scene.bundle, dataclasses.replace(
            small_config, n_pts_agent=90, n_pts_openset=70, n_pts_ground=300)
    assert name == "pointless_frame"
    bundle = small_scene.bundle
    end = np.cumsum(bundle.frame_size)
    size = bundle.frame_size.copy()
    size[2] = 0
    return (dataclasses.replace(
        bundle, points=np.delete(bundle.points, np.s_[end[1]:end[2]], axis=0),
        frame_size=size), dataclasses.replace(small_config, n_pts_ground=500))


@pytest.mark.filterwarnings("ignore::scenetok.errors.BudgetOverflowWarning")
@pytest.mark.parametrize("case", ["small_scene", "agent_overflow",
                                  "openset_overflow", "perception_dropout",
                                  "pools_over_budget",
                                  "pointless_frame"])
def test_compaction_matches_per_frame_reference(case, small_scene,
                                                small_config):
    bundle, config = _compaction_case(case, small_scene, small_config)
    P_xyz, P_ind, F_pts, labels, elements = compact_reference(bundle, config)
    result = tokenize_bundle(bundle, config)
    scene = result.scene
    for got, want in ((scene.P_xyz, P_xyz), (scene.P_ind, P_ind),
                      (scene.F_pts, F_pts)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert len(result.partition.labels) == len(labels)
    for got, want in zip(result.partition.labels, labels):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert len(scene.elements) == len(elements)
    for got, want in zip(scene.elements, elements):
        assert (got.token_id, got.kind, got.source_id) == (
            want.token_id, want.kind, want.source_id)
        np.testing.assert_array_equal(got.boxes, want.boxes)
        np.testing.assert_array_equal(got.frame_valid, want.frame_valid)


def _full_size_tokenize_peak_mb(params=None):
    """The criterion-11 scene (65 536 points, D = 256), tokenized once to
    warm up, then once under tracemalloc: (result, peak MB)."""
    spec = SceneSpec(n_agents=16, n_clutter=60, T=11, area_m=160.0,
                     cameras=2, D=256, ground_points_per_frame=3200,
                     agent_points=60, clutter_points=40, min_separation_m=6.0,
                     feature_res=32)
    bundle, config = generate_scene(100, spec).bundle, PipelineConfig()
    tokenize_bundle(bundle, config, params=params)  # first-call imports and caches
    tracemalloc.start()
    try:
        result = tokenize_bundle(bundle, config, params=params)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return result, peak_mb


def test_full_size_tokenize_builds_no_point_feature_table():
    """Image features are pooled from the camera pixel table, so tokenizing
    the full-size scene (65 536 points, D = 256) never holds an (N_pts, D)
    table: one in float32 alone is 64 MB.  The tracemalloc peak of
    ``tokenize_bundle`` without fusion measured 30.9 MB here; the build
    that made one feature row per point peaked at 94.4 MB."""
    result, peak_mb = _full_size_tokenize_peak_mb()
    config = PipelineConfig()
    assert result.scene.n_pts * config.D * 4 / 2**20 == 64.0
    assert result.F_img_valid.any()
    assert peak_mb < 40.0


def test_full_size_tokenize_with_fusion_keeps_no_backward_state():
    """With float32 fusion params, tokenizing the criterion-11 scene peaks
    at 47.9 MB (tracemalloc).  A fusion that kept every activation a
    backward pass reads, and attended over all groups of a length at once,
    peaked at 82.2 MB."""
    config = PipelineConfig()
    params = init_fusion_params(T=config.T, D=config.D, seed=0,
                                dtype=np.float32)
    result, peak_mb = _full_size_tokenize_peak_mb(params)
    assert result.tokens.F_elem.dtype == np.float32
    assert peak_mb < 56.0
