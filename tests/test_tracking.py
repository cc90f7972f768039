import itertools
from dataclasses import dataclass, replace

import numpy as np
import pytest

from scenetok import TrackConfig, associate, predict, track_open_set, update


# -- the per-track loop that the stacked tracker replaced ------------------

@dataclass
class TrackState:
    mean: np.ndarray
    cov: np.ndarray


def _transition(dt):
    F = np.eye(6)
    F[0, 3] = F[1, 4] = F[2, 5] = dt
    return F


def predict_reference(state, dt, process_noise_vel=1e-2):
    if dt <= 0:
        raise ValueError("dt must be > 0")
    F = _transition(dt)
    Q = np.zeros((6, 6))
    Q[3:, 3:] = np.eye(3) * process_noise_vel
    mean = F @ state.mean
    cov = F @ state.cov @ F.T + Q
    cov = (cov + cov.T) / 2.0
    return replace(state, mean=mean, cov=cov)


def update_reference(state, measured_box, measurement_noise_pos=1e-2):
    measured_box = np.asarray(measured_box, dtype=np.float64).reshape(7)
    z = measured_box[:3]
    H = np.zeros((3, 6))
    H[:, :3] = np.eye(3)
    R = np.eye(3) * measurement_noise_pos
    S = H @ state.cov @ H.T + R
    K = np.linalg.solve(S.T, (state.cov @ H.T).T).T
    mean = state.mean + K @ (z - H @ state.mean)
    cov = (np.eye(6) - K @ H) @ state.cov
    cov = (cov + cov.T) / 2.0
    return replace(state, mean=mean, cov=cov)


def track_open_set_reference(frame_boxes, T, config):
    """Per-track predict/update; returns each track's (frame, cluster) list."""
    states, members = [], []
    for f in range(T):
        det_boxes = np.reshape(frame_boxes[f] if f < len(frame_boxes) else [],
                               (-1, 7))
        for i, st in enumerate(states):
            states[i] = predict_reference(st, config.dt_s,
                                          config.process_noise_vel)
        track_centers = np.array([st.mean[:3] for st in states]).reshape(-1, 3)
        matches, _, unmatched_d = associate(track_centers, det_boxes[:, :3],
                                            config.gate_m)
        for t, d in matches:
            states[t] = update_reference(states[t], det_boxes[d],
                                         config.measurement_noise_pos)
        for d in unmatched_d:
            mean = np.zeros(6)
            mean[:3] = det_boxes[d, :3]
            cov = np.zeros((6, 6))
            cov[:3, :3] = np.eye(3) * config.init_pos_var
            cov[3:, 3:] = np.eye(3) * config.init_vel_var
            states.append(TrackState(mean=mean, cov=cov))
            members.append([])
            matches.append((len(members) - 1, d))
        for t, d in matches:
            members[t].append((f, d))
    return members


def member_table(members, T):
    table = np.full((len(members), T), -1, dtype=np.int64)
    for t, track in enumerate(members):
        for f, c in track:
            table[t, f] = c
    return table


def random_stack(rng, n):
    A = rng.normal(size=(n, 6, 6))
    return rng.normal(size=(n, 6)), A @ np.swapaxes(A, 1, 2)


def make_state(pos=(0, 0, 0), vel=(0, 0, 0), pos_var=1e-2, vel_var=1.0):
    """A stack of one state."""
    mean = np.concatenate([pos, vel]).astype(float)[None]
    cov = np.zeros((1, 6, 6))
    cov[0, :3, :3] = np.eye(3) * pos_var
    cov[0, 3:, 3:] = np.eye(3) * vel_var
    return mean, cov


class TestPredict:
    def test_linear_motion(self):
        mean, _ = predict(*make_state(vel=(1, 0, 0)), 0.1)
        np.testing.assert_allclose(mean[0, :3], [0.1, 0, 0])
        np.testing.assert_allclose(mean[0, 3:], [1, 0, 0])

    def test_zero_noise_zero_cov_stays_zero(self):
        _, cov = predict(*make_state(pos_var=0.0, vel_var=0.0), 0.1,
                         process_noise_vel=0.0)
        assert (cov == 0).all()

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            predict(*make_state(), 0.0)

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(0)
        _, cov = predict(*random_stack(rng, 20), 0.25)
        for c in cov:
            np.testing.assert_allclose(c, c.T, atol=1e-9)
            assert np.linalg.eigvalsh(c).min() > -1e-9

    @pytest.mark.parametrize("n", range(9))
    def test_stack_equals_per_track_loop_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            mean, cov = random_stack(rng, n)
            dt, q = rng.uniform(0.01, 1.0), rng.uniform(0.0, 1.0)
            got_mean, got_cov = predict(mean, cov, dt, q)
            assert got_mean.shape == (n, 6) and got_cov.shape == (n, 6, 6)
            for i in range(n):
                want = predict_reference(TrackState(mean[i], cov[i]), dt, q)
                np.testing.assert_array_equal(got_mean[i], want.mean)
                np.testing.assert_array_equal(got_cov[i], want.cov)


class TestUpdate:
    def test_exact_measurement_pins_position(self):
        z = np.array([[1.5, 2.5, 3.5]])
        mean, _ = update(*make_state(pos=(1, 2, 3)), z,
                         measurement_noise_pos=0.0)
        np.testing.assert_allclose(mean[0, :3], z[0], atol=1e-12)

    def test_measurement_equal_to_prediction_is_noop(self):
        mean, cov = make_state(pos=(1, 2, 3))
        out, _ = update(mean, cov, mean[:, :3], measurement_noise_pos=1e-2)
        np.testing.assert_allclose(out, mean, atol=1e-12)

    def test_scalar_kalman_gain_closed_form(self):
        # 1-D case hand-evaluated: K = P / (P + R)
        P, R = 0.5, 0.125
        K = P / (P + R)
        x_prior, z = 2.0, 3.0
        expected_mean = x_prior + K * (z - x_prior)
        expected_var = (1 - K) * P

        mean, cov = update(*make_state(pos=(x_prior, 0, 0), pos_var=P,
                                       vel_var=0.0),
                           np.array([[z, 0, 0]]), measurement_noise_pos=R)
        np.testing.assert_allclose(mean[0, 0], expected_mean)
        np.testing.assert_allclose(cov[0, 0, 0], expected_var)

    def test_converges_to_constant_velocity_truth(self):
        cfg = TrackConfig()
        truth_v = np.array([2.0, -1.0, 0.0])
        mean, cov = make_state(pos=(0, 0, 0), vel=(0, 0, 0))
        for k in range(1, 4):
            mean, cov = predict(mean, cov, cfg.dt_s, cfg.process_noise_vel)
            mean, cov = update(mean, cov, (truth_v * (k * cfg.dt_s))[None],
                               measurement_noise_pos=0.0)
        pred, _ = predict(mean, cov, cfg.dt_s, cfg.process_noise_vel)
        np.testing.assert_allclose(pred[0, :3], truth_v * (4 * cfg.dt_s),
                                   atol=1e-6)

    @pytest.mark.parametrize("n", range(9))
    def test_stack_equals_per_track_loop_bit_for_bit(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(10):
            mean, cov = random_stack(rng, n)
            boxes = rng.normal(size=(n, 7))
            r = rng.uniform(0.0, 1.0)
            got_mean, got_cov = update(mean, cov, boxes[:, :3], r)
            assert got_mean.shape == (n, 6) and got_cov.shape == (n, 6, 6)
            for i in range(n):
                want = update_reference(TrackState(mean[i], cov[i]), boxes[i],
                                        r)
                np.testing.assert_array_equal(got_mean[i], want.mean)
                np.testing.assert_array_equal(got_cov[i], want.cov)


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
    def boxes_from_centers(centers):
        return [np.array([np.concatenate([c, [1, 1, 1, 0.0]]) for c in frame])
                .reshape(-1, 7) for frame in centers]

    def test_constant_velocity_single_track(self):
        T = 11
        centers = [[np.array([0.1 * f, 0.0, 0.5])] for f in range(T)]
        members = track_open_set(self.boxes_from_centers(centers), T,
                                 TrackConfig())
        np.testing.assert_array_equal(members, np.zeros((1, T)))
        assert members.dtype == np.int64

    def test_single_frame_appearance(self):
        T = 11
        centers = [[] for _ in range(T)]
        centers[7] = [np.array([3.0, 1.0, 0.5])]
        members = track_open_set(self.boxes_from_centers(centers), T,
                                 TrackConfig())
        expected = np.full((1, T), -1)
        expected[0, 7] = 0
        np.testing.assert_array_equal(members, expected)

    def test_crossing_clusters_no_id_switch(self):
        T = 11
        cfg = TrackConfig()
        # cross in y with nearest approach 3 m > gate 2 m
        a = [np.array([0.5 * f, 0.0, 0.5]) for f in range(T)]
        b = [np.array([5.0 - 0.5 * f, 3.0, 0.5]) for f in range(T)]
        centers = [[a[f], b[f]] for f in range(T)]
        members = track_open_set(self.boxes_from_centers(centers), T, cfg)
        np.testing.assert_array_equal(members, [[0] * T, [1] * T])

    def test_each_cluster_in_exactly_one_track(self):
        rng = np.random.default_rng(2)
        T = 6
        centers = [[rng.uniform(0, 50, 3) for _ in range(rng.integers(0, 4))]
                   for _ in range(T)]
        members = track_open_set(self.boxes_from_centers(centers), T,
                                 TrackConfig())
        # every (frame, cluster) appears exactly once in the table
        for f in range(T):
            held = np.sort(members[:, f][members[:, f] >= 0])
            np.testing.assert_array_equal(held, np.arange(len(centers[f])))
        assert (members >= 0).any(axis=1).all()

    def test_determinism(self):
        rng = np.random.default_rng(3)
        T = 5
        centers = [[rng.uniform(0, 20, 3) for _ in range(3)] for _ in range(T)]
        boxes = self.boxes_from_centers(centers)
        np.testing.assert_array_equal(track_open_set(boxes, T, TrackConfig()),
                                      track_open_set(boxes, T, TrackConfig()))

    def test_missing_frames_hold_no_cluster(self):
        T = 4
        boxes = self.boxes_from_centers([[np.array([1.0, 2.0, 0.5])]])
        members = track_open_set(boxes, T, TrackConfig())
        np.testing.assert_array_equal(members, [[0, -1, -1, -1]])
        assert track_open_set([], T, TrackConfig()).shape == (0, T)

    @pytest.mark.parametrize("seed", range(12))
    def test_table_equals_per_track_loop(self, seed):
        """Random detections with gaps, empty frames, crossing clusters and
        (on odd seeds) integer-grid centers whose distances tie."""
        rng = np.random.default_rng(seed)
        cfg = TrackConfig()
        T = int(rng.integers(1, 12))
        n = int(rng.integers(1, 8))
        start = rng.uniform(0, 6, (n, 3))
        vel = rng.uniform(-3, 3, (n, 3))  # paths cross within the window
        frame_boxes = []
        for f in range(T):
            centers = start + vel * (f * cfg.dt_s)
            centers = centers[rng.uniform(size=n) < 0.7]  # gaps
            if rng.uniform() < 0.2:
                centers = centers[:0]  # an empty frame
            if seed % 2:
                centers = np.round(centers)  # many equal distances
            centers = np.concatenate(
                [centers, rng.uniform(0, 6, (int(rng.integers(0, 3)), 3))])
            rng.shuffle(centers)
            boxes = np.zeros((len(centers), 7))
            boxes[:, :3] = centers
            boxes[:, 3:6] = rng.uniform(0.5, 2, (len(centers), 3))
            frame_boxes.append(boxes)
        want = member_table(track_open_set_reference(frame_boxes, T, cfg), T)
        np.testing.assert_array_equal(track_open_set(frame_boxes, T, cfg),
                                      want)
