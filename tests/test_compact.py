import numpy as np
import pytest
from scipy.stats import hypergeom

from scenetok import PipelineConfig, build_tokenized_scene, downsample
from scenetok.bundle import KIND_AGENT, KIND_CODES, KIND_GROUND, KIND_OPENSET, SceneElement
from scenetok.compact import pool_image_features
from scenetok.errors import BudgetMismatch


class TestDownsample:
    def test_small_pool_kept_whole(self):
        assert downsample(10, 20, seed=0).tolist() == list(range(10))

    def test_deterministic(self):
        a = downsample(1000, 100, seed=5)
        b = downsample(1000, 100, seed=5)
        np.testing.assert_array_equal(a, b)
        assert len(np.unique(a)) == 100

    def test_per_frame_share_is_hypergeometric(self):
        # pool of 100k points split evenly over 2 frames, budget 10k:
        # frame-0 draw count ~ Hypergeom(N=100000, K=50000, n=10000)
        N, K, n = 100_000, 50_000, 10_000
        sigma = np.sqrt(hypergeom.var(N, K, n))
        frame_ids = np.repeat([0, 1], K)
        sel = downsample(N, n, seed=11)
        count0 = int((frame_ids[sel] == 0).sum())
        assert abs(count0 - hypergeom.mean(N, K, n)) <= 3 * sigma


def _element(token_id, kind, T, row=None):
    boxes = np.zeros((T, 7))
    valid = np.zeros(T, dtype=bool)
    if row is not None:
        boxes[:] = row
        valid[:] = True
    return SceneElement(token_id=token_id, kind=kind, boxes=boxes,
                        frame_valid=valid)


def _table(elements, T):
    """The element table (B, elem_valid, kind, source_id) of ``elements``,
    one row per element in list order."""
    return (np.array([el.boxes for el in elements]).reshape(-1, T, 7),
            np.array([el.frame_valid for el in elements]).reshape(-1, T),
            np.array([KIND_CODES[el.kind] for el in elements], dtype=np.int64),
            np.array([el.source_id for el in elements], dtype=np.int64))


class TestBuildTokenizedScene:
    def make_config(self, **kw):
        defaults = dict(T=3, D=2, n_elem_agent=4, n_elem_openset=4,
                        n_elem_ground=4, n_pts_agent=8, n_pts_openset=8,
                        n_pts_ground=8)
        defaults.update(kw)
        return PipelineConfig(**defaults)

    def test_single_element_three_points(self):
        config = self.make_config()
        elements = [_element(0, KIND_AGENT, 3, row=[1, 2, 3, 1, 1, 1, 0])]
        scene = build_tokenized_scene(np.zeros((3, 3)),
                                      np.zeros((3, 2), dtype=np.int64),
                                      np.zeros((3, 2)), np.ones(3, dtype=bool),
                                      *_table(elements, config.T), config)
        assert scene.P_ind.tolist() == [[0, 0], [0, 0], [0, 0]]
        assert scene.n_elem == 1 and scene.n_pts == 3

    def test_element_without_points_still_has_boxes(self):
        config = self.make_config()
        elements = [_element(0, KIND_OPENSET, 3, row=[5, 5, 1, 1, 1, 1, 0])]
        scene = build_tokenized_scene(np.zeros((0, 3)),
                                      np.zeros((0, 2), dtype=np.int64),
                                      np.zeros((0, 2)), np.zeros(0, dtype=bool),
                                      *_table(elements, config.T), config)
        assert scene.n_pts == 0
        assert scene.elem_valid[0].all()
        np.testing.assert_allclose(scene.B[0, 0], [5, 5, 1, 1, 1, 1, 0])

    def test_over_budget_pool_rejected(self):
        # each kind in turn: two elements of the kind share three points
        P_ind = np.array([[0, 1], [1, 2], [2, 1]])
        for kind, budget in ((KIND_AGENT, "n_pts_agent"),
                             (KIND_OPENSET, "n_pts_openset"),
                             (KIND_GROUND, "n_pts_ground")):
            config = self.make_config(**{budget: 2})
            elements = [_element(0, KIND_AGENT, 3), _element(1, kind, 3),
                        _element(2, kind, 3)]
            with pytest.raises(BudgetMismatch,
                               match=f"{kind} pool has 3 points"):
                build_tokenized_scene(np.zeros((3, 3)), P_ind,
                                      np.zeros((3, 2)), np.ones(3, dtype=bool),
                                      *_table(elements, config.T), config)
            build_tokenized_scene(np.zeros((2, 3)), P_ind[:2],
                                  np.zeros((2, 2)), np.ones(2, dtype=bool),
                                  *_table(elements, config.T), config)

    def test_misaligned_feature_rows_rejected(self):
        config = self.make_config()
        elements = [_element(0, KIND_AGENT, 3)]
        with pytest.raises(BudgetMismatch, match="F_pts has 2 rows for 3"):
            build_tokenized_scene(np.zeros((3, 3)),
                                  np.zeros((3, 2), dtype=np.int64),
                                  np.zeros((2, 2)), np.ones(2, dtype=bool),
                                  *_table(elements, config.T), config)

    def test_gather_reconstitutes_per_element_sets(self):
        rng = np.random.default_rng(0)
        config = self.make_config(n_pts_agent=64, n_pts_openset=64,
                                  n_pts_ground=64)
        T = config.T
        parts, expected = [], {}
        for tokens in ([0, 1], [2], [3, 4]):
            n = rng.integers(5, 20)
            xyz = rng.normal(size=(n, 3))
            tk = rng.choice(tokens, n)
            parts.append((xyz, np.stack([rng.integers(0, T, n), tk], axis=1)))
            for i in range(n):
                expected.setdefault(int(tk[i]), []).append(tuple(xyz[i]))
        P_xyz = np.concatenate([xyz for xyz, _ in parts])
        P_ind = np.concatenate([ind for _, ind in parts])
        total = P_xyz.shape[0]
        elements = [_element(t, k, T) for t, k in
                    zip(range(5), [KIND_AGENT, KIND_AGENT, KIND_OPENSET,
                                   KIND_GROUND, KIND_GROUND])]
        scene = build_tokenized_scene(P_xyz, P_ind, np.zeros((total, 2)),
                                      np.ones(total, dtype=bool),
                                      *_table(elements, T), config)
        for token, pts in expected.items():
            got = scene.P_xyz[scene.P_ind[:, 1] == token]
            assert sorted(map(tuple, got)) == sorted(pts)


def pool_oracle(F_pts, valid, P_ind, n_elem, T):
    """O(N*E*T) brute-force group-by mean."""
    D = F_pts.shape[1]
    out = np.zeros((n_elem, T, D))
    ok = np.zeros((n_elem, T), dtype=bool)
    for e in range(n_elem):
        for t in range(T):
            rows = [i for i in range(len(F_pts))
                    if valid[i] and P_ind[i, 1] == e and P_ind[i, 0] == t]
            if rows:
                out[e, t] = F_pts[rows].mean(axis=0)
                ok[e, t] = True
    return out, ok


class TestPoolImageFeatures:
    def test_two_point_mean(self):
        F_pts = np.array([[1.0, 3.0], [3.0, 5.0]])
        P_ind = np.array([[0, 0], [0, 0]])
        kinds = np.array([KIND_CODES[KIND_AGENT]])
        F_img, ok = pool_image_features(F_pts, np.ones(2, dtype=bool), P_ind,
                                        kinds, 1, 1)
        np.testing.assert_allclose(F_img[0, 0], [2.0, 4.0])
        assert ok[0, 0]

    def test_invalid_points_do_not_contribute(self):
        F_pts = np.array([[1.0, 1.0], [9.0, 9.0]])
        P_ind = np.array([[0, 0], [0, 0]])
        kinds = np.array([KIND_CODES[KIND_AGENT]])
        F_img, ok = pool_image_features(F_pts, np.array([False, False]),
                                        P_ind, kinds, 1, 1)
        assert not ok[0, 0]
        assert (F_img == 0).all()

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        n, n_elem, T, D = 400, 6, 4, 5
        F_pts = rng.normal(size=(n, D))
        valid = rng.random(n) > 0.3
        P_ind = np.stack([rng.integers(0, T, n), rng.integers(0, n_elem, n)],
                         axis=1)
        kinds = np.full(n_elem, KIND_CODES[KIND_AGENT])
        F_img, ok = pool_image_features(F_pts, valid, P_ind, kinds, n_elem, T)
        exp, exp_ok = pool_oracle(F_pts, valid, P_ind, n_elem, T)
        assert np.abs(F_img - exp).max() < 1e-6
        np.testing.assert_array_equal(ok, exp_ok)

    def test_openset_temporal_average_broadcast(self):
        # open-set element seen at t=0 (feature 2) and t=2 (feature 4):
        # stored value is the 2-frame average 3, broadcast to every slot
        F_pts = np.array([[2.0], [4.0]])
        P_ind = np.array([[0, 0], [2, 0]])
        kinds = np.array([KIND_CODES[KIND_OPENSET]])
        F_img, ok = pool_image_features(F_pts, np.ones(2, dtype=bool), P_ind,
                                        kinds, 1, 3)
        np.testing.assert_allclose(F_img[0], [[3.0], [3.0], [3.0]])
        assert ok[0].all()

    def test_agent_features_stay_per_frame(self):
        F_pts = np.array([[2.0], [4.0]])
        P_ind = np.array([[0, 0], [2, 0]])
        kinds = np.array([KIND_CODES[KIND_AGENT]])
        F_img, ok = pool_image_features(F_pts, np.ones(2, dtype=bool), P_ind,
                                        kinds, 1, 3)
        np.testing.assert_allclose(F_img[0, :, 0], [2.0, 0.0, 4.0])
        assert ok[0].tolist() == [True, False, True]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        n = 200
        F_pts = rng.normal(size=(n, 3))
        valid = rng.random(n) > 0.2
        P_ind = np.stack([rng.integers(0, 3, n), rng.integers(0, 4, n)], axis=1)
        kinds = np.array([KIND_CODES[KIND_AGENT]] * 4)
        a, _ = pool_image_features(F_pts, valid, P_ind, kinds, 4, 3)
        perm = rng.permutation(n)
        b, _ = pool_image_features(F_pts[perm], valid[perm], P_ind[perm],
                                   kinds, 4, 3)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_mass_conservation(self):
        rng = np.random.default_rng(3)
        n, n_elem, T = 300, 5, 4
        F_pts = rng.normal(size=(n, 2))
        valid = rng.random(n) > 0.4
        P_ind = np.stack([rng.integers(0, T, n), rng.integers(0, n_elem, n)],
                         axis=1)
        kinds = np.full(n_elem, KIND_CODES[KIND_GROUND])
        F_img, ok = pool_image_features(F_pts, valid, P_ind, kinds, n_elem, T)
        counts = np.zeros((n_elem, T))
        for i in range(n):
            if valid[i]:
                counts[P_ind[i, 1], P_ind[i, 0]] += 1
        total = (F_img * counts[:, :, None]).sum(axis=(0, 1))
        np.testing.assert_allclose(total, F_pts[valid].sum(axis=0), atol=1e-5)
