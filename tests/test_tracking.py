import itertools

import numpy as np

from scenetok import TrackConfig, associate, predict, track_open_set, update
from scenetok.tracking import TrackState


def make_state(pos=(0, 0, 0), vel=(0, 0, 0), pos_var=1e-2, vel_var=1.0):
    mean = np.concatenate([pos, vel]).astype(float)
    cov = np.zeros((6, 6))
    cov[:3, :3] = np.eye(3) * pos_var
    cov[3:, 3:] = np.eye(3) * vel_var
    return TrackState(mean=mean, cov=cov)


class TestPredict:
    def test_linear_motion(self):
        st = make_state(vel=(1, 0, 0))
        out = predict(st, 0.1)
        np.testing.assert_allclose(out.mean[:3], [0.1, 0, 0])
        np.testing.assert_allclose(out.mean[3:], [1, 0, 0])

    def test_zero_noise_zero_cov_stays_zero(self):
        st = make_state(pos_var=0.0, vel_var=0.0)
        out = predict(st, 0.1, process_noise_vel=0.0)
        assert (out.cov == 0).all()

    def test_nonpositive_dt_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            predict(make_state(), 0.0)

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.normal(size=(6, 6))
            st = TrackState(mean=rng.normal(size=6), cov=A @ A.T)
            out = predict(st, 0.25)
            np.testing.assert_allclose(out.cov, out.cov.T, atol=1e-9)
            assert np.linalg.eigvalsh(out.cov).min() > -1e-9


class TestUpdate:
    def test_exact_measurement_pins_position(self):
        st = make_state(pos=(1, 2, 3))
        z = np.array([1.5, 2.5, 3.5, 1, 1, 1, 0.0])
        out = update(st, z, measurement_noise_pos=0.0)
        np.testing.assert_allclose(out.mean[:3], z[:3], atol=1e-12)

    def test_measurement_equal_to_prediction_is_noop(self):
        st = make_state(pos=(1, 2, 3))
        z = np.concatenate([st.mean[:3], [1, 1, 1, 0.0]])
        out = update(st, z, measurement_noise_pos=1e-2)
        np.testing.assert_allclose(out.mean, st.mean, atol=1e-12)

    def test_scalar_kalman_gain_closed_form(self):
        # 1-D case hand-evaluated: K = P / (P + R)
        P, R = 0.5, 0.125
        K = P / (P + R)
        x_prior, z = 2.0, 3.0
        expected_mean = x_prior + K * (z - x_prior)
        expected_var = (1 - K) * P

        st = make_state(pos=(x_prior, 0, 0), pos_var=P, vel_var=0.0)
        out = update(st, np.array([z, 0, 0, 1, 1, 1, 0.0]),
                     measurement_noise_pos=R)
        np.testing.assert_allclose(out.mean[0], expected_mean)
        np.testing.assert_allclose(out.cov[0, 0], expected_var)

    def test_converges_to_constant_velocity_truth(self):
        cfg = TrackConfig()
        truth_v = np.array([2.0, -1.0, 0.0])
        st = make_state(pos=(0, 0, 0), vel=(0, 0, 0))
        pos = np.zeros(3)
        for k in range(1, 4):
            st = predict(st, cfg.dt_s, cfg.process_noise_vel)
            pos = truth_v * (k * cfg.dt_s)
            st = update(st, np.concatenate([pos, [1, 1, 1, 0]]),
                        measurement_noise_pos=0.0)
        pred = predict(st, cfg.dt_s, cfg.process_noise_vel)
        np.testing.assert_allclose(pred.mean[:3], truth_v * (4 * cfg.dt_s),
                                   atol=1e-6)


def optimal_assignment_oracle(dist, gate):
    """Exhaustive min-sum assignment over all injective matchings."""
    nt, nd = dist.shape
    best_cost, best_pairs = np.inf, []
    k = min(nt, nd)
    for size in range(k, -1, -1):
        for tracks in itertools.combinations(range(nt), size):
            for dets in itertools.permutations(range(nd), size):
                pairs = [(t, d) for t, d in zip(tracks, dets)
                         if dist[t, d] <= gate]
                if len(pairs) < size:
                    continue
                cost = sum(dist[t, d] for t, d in pairs)
                if len(pairs) > len(best_pairs) or (
                        len(pairs) == len(best_pairs) and cost < best_cost):
                    best_cost, best_pairs = cost, pairs
    return best_cost, set(best_pairs)


class TestAssociate:
    def test_match_within_gate(self):
        m, ut, ud = associate(np.array([[0.0, 0, 0]]),
                              np.array([[0.3, 0, 0]]), gate=2.0)
        assert m == [(0, 0)] and ut == [] and ud == []

    def test_far_detection_unmatched(self):
        m, ut, ud = associate(np.array([[0.0, 0, 0]]),
                              np.array([[5.0, 0, 0]]), gate=2.0)
        assert m == [] and ut == [0] and ud == [0]

    def test_equal_distances_resolve_by_track_then_detection(self):
        tracks = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        dets = np.array([[1.0, 0, 0], [1.0, 0, 0]])  # every distance is 1
        m, ut, ud = associate(tracks, dets, gate=2.0)
        assert m == [(0, 0), (1, 1)] and ut == [] and ud == []
        m, ut, ud = associate(tracks, dets[:1], gate=2.0)
        assert m == [(0, 0)] and ut == [1] and ud == []

    def test_equals_tuple_sort_reference_on_ties(self):
        # integer grids make many equal distances
        rng = np.random.default_rng(4)
        for _ in range(30):
            tracks = rng.integers(0, 3, (rng.integers(1, 6), 3)).astype(float)
            dets = rng.integers(0, 3, (rng.integers(1, 6), 3)).astype(float)
            dist = np.linalg.norm(tracks[:, None] - dets[None, :], axis=2)
            pairs = sorted((dist[t, d], t, d) for t in range(len(tracks))
                           for d in range(len(dets)) if dist[t, d] <= 2.0)
            expected, used_t, used_d = [], set(), set()
            for _, t, d in pairs:
                if t not in used_t and d not in used_d:
                    used_t.add(t)
                    used_d.add(d)
                    expected.append((t, d))
            assert associate(tracks, dets, gate=2.0)[0] == expected

    def test_greedy_vs_optimal_oracle(self):
        # Greedy is not always min-sum optimal; on random gated instances it
        # usually is.  Where it differs it must still be a maximal valid
        # matching (the known failure mode is cost, not validity).
        rng = np.random.default_rng(1)
        agree = 0
        total = 40
        for _ in range(total):
            nt, nd = rng.integers(2, 5, size=2)
            tracks = rng.uniform(0, 4, (nt, 3))
            dets = rng.uniform(0, 4, (nd, 3))
            gate = 3.0
            dist = np.linalg.norm(tracks[:, None] - dets[None, :], axis=2)
            m, ut, ud = associate(tracks, dets, gate)
            opt_cost, opt_pairs = optimal_assignment_oracle(dist, gate)

            greedy_cost = sum(dist[t, d] for t, d in m)
            assert all(dist[t, d] <= gate for t, d in m)
            # maximal: no leftover track/detection pair inside the gate
            for t in ut:
                for d in ud:
                    assert dist[t, d] > gate
            if set(m) == opt_pairs:
                agree += 1
            else:
                # known greedy failure modes: a maximal-but-not-maximum
                # matching, or the same size at higher total cost
                assert len(m) <= len(opt_pairs)
                if len(m) == len(opt_pairs):
                    assert greedy_cost >= opt_cost
        assert agree >= total * 0.7


class TestTrackOpenSet:
    @staticmethod
    def dets_from_centers(centers, n_points=20):
        return [[(np.concatenate([c, [1, 1, 1, 0.0]]), n_points)
                 for c in frame] for frame in centers]

    def test_constant_velocity_single_track(self):
        T = 11
        centers = [[np.array([0.1 * f, 0.0, 0.5])] for f in range(T)]
        tracks = track_open_set(self.dets_from_centers(centers), T,
                                TrackConfig())
        assert len(tracks) == 1
        assert tracks[0].frame_valid.all()
        assert tracks[0].total_points == 20 * T

    def test_single_frame_appearance(self):
        T = 11
        centers = [[] for _ in range(T)]
        centers[7] = [np.array([3.0, 1.0, 0.5])]
        tracks = track_open_set(self.dets_from_centers(centers), T,
                                TrackConfig())
        assert len(tracks) == 1
        expected = np.zeros(T, dtype=bool)
        expected[7] = True
        np.testing.assert_array_equal(tracks[0].frame_valid, expected)
        assert (tracks[0].boxes[~expected] == 0).all()

    def test_crossing_clusters_no_id_switch(self):
        T = 11
        cfg = TrackConfig()
        # cross in y with nearest approach 3 m > gate 2 m
        a = [np.array([0.5 * f, 0.0, 0.5]) for f in range(T)]
        b = [np.array([5.0 - 0.5 * f, 3.0, 0.5]) for f in range(T)]
        centers = [[a[f], b[f]] for f in range(T)]
        tracks = track_open_set(self.dets_from_centers(centers), T, cfg)
        assert len(tracks) == 2
        for tr, truth in zip(tracks, (a, b)):
            assert tr.frame_valid.all()
            np.testing.assert_allclose(tr.boxes[:, :3], np.array(truth))

    def test_each_cluster_in_exactly_one_track(self):
        rng = np.random.default_rng(2)
        T = 6
        centers = [[rng.uniform(0, 50, 3) for _ in range(rng.integers(0, 4))]
                   for _ in range(T)]
        dets = self.dets_from_centers(centers)
        tracks = track_open_set(dets, T, TrackConfig())
        seen = set()
        for tr in tracks:
            for member in tr.members:
                assert member not in seen
                seen.add(member)
        assert len(seen) == sum(len(c) for c in centers)
        assert len(tracks) <= len(seen)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        T = 5
        centers = [[rng.uniform(0, 20, 3) for _ in range(3)] for _ in range(T)]
        dets = self.dets_from_centers(centers)
        a = track_open_set(dets, T, TrackConfig())
        b = track_open_set(dets, T, TrackConfig())
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.boxes, y.boxes)
            np.testing.assert_array_equal(x.frame_valid, y.frame_valid)
            assert x.members == y.members
