"""Constant-velocity Kalman tracking of open-set clusters across frames.

State is (center xyz, velocity xyz) with position-only measurements; the
measured box's size and heading are carried through unfiltered.  Greedy
nearest-first association with a distance gate is deliberately minimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import TrackConfig


@dataclass
class TrackState:
    """Kalman state: mean (6,), covariance (6, 6) symmetric PSD."""

    mean: np.ndarray
    cov: np.ndarray
    last_box: np.ndarray  # (7,) most recent measured box row
    age: int = 0
    missed: int = 0


@dataclass
class TrackedElement:
    """One open-set track over the whole scene window."""

    boxes: np.ndarray        # (T, 7), zero rows where invalid
    frame_valid: np.ndarray  # (T,) bool
    members: list[tuple[int, int]] = field(default_factory=list)  # (frame, cluster id)
    total_points: int = 0


def _transition(dt: float) -> np.ndarray:
    F = np.eye(6)
    F[0, 3] = F[1, 4] = F[2, 5] = dt
    return F


def predict(state: TrackState, dt: float,
            process_noise_vel: float = 1e-2) -> TrackState:
    """Advance the state by ``dt`` seconds under constant velocity."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    F = _transition(dt)
    Q = np.zeros((6, 6))
    Q[3:, 3:] = np.eye(3) * process_noise_vel
    mean = F @ state.mean
    cov = F @ state.cov @ F.T + Q
    cov = (cov + cov.T) / 2.0
    return replace(state, mean=mean, cov=cov, age=state.age + 1)


def update(state: TrackState, measured_box: np.ndarray,
           measurement_noise_pos: float = 1e-2) -> TrackState:
    """Kalman update with the box center as a position-only observation."""
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
    return replace(state, mean=mean, cov=cov, last_box=measured_box, missed=0)


def associate(track_centers: np.ndarray, det_centers: np.ndarray,
              gate: float) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Greedy nearest-first matching under a distance gate.

    Returns (matches, unmatched_tracks, unmatched_detections); each track
    and detection is used at most once.  Ties break on (track, detection)
    index for determinism.
    """
    nt = track_centers.shape[0] if track_centers.size else 0
    nd = det_centers.shape[0] if det_centers.size else 0
    if nt == 0 or nd == 0:
        return [], list(range(nt)), list(range(nd))

    dist = np.linalg.norm(track_centers[:, None, :] - det_centers[None, :, :], axis=2)
    pairs = [(dist[t, d], t, d) for t in range(nt) for d in range(nd)
             if dist[t, d] <= gate]
    pairs.sort()

    matches = []
    used_t = np.zeros(nt, dtype=bool)
    used_d = np.zeros(nd, dtype=bool)
    for _, t, d in pairs:
        if used_t[t] or used_d[d]:
            continue
        used_t[t] = used_d[d] = True
        matches.append((t, d))
    return (matches,
            [t for t in range(nt) if not used_t[t]],
            [d for d in range(nd) if not used_d[d]])


def track_open_set(frame_detections: list[list[tuple[np.ndarray, int]]],
                   T: int, config: TrackConfig) -> list[TrackedElement]:
    """Associate per-frame cluster detections into tracks.

    ``frame_detections[f]`` lists (box row, point count) pairs for frame f,
    indexed by cluster id.  Unmatched frames stay invalid with zero box
    rows; tracks never merge.  Track order is creation order, which is
    deterministic for identical inputs.
    """
    states: list[TrackState] = []
    elements: list[TrackedElement] = []

    for f in range(T):
        dets = frame_detections[f] if f < len(frame_detections) else []
        det_boxes = np.array([b for b, _ in dets]).reshape(-1, 7)

        for i, st in enumerate(states):
            states[i] = predict(st, config.dt_s, config.process_noise_vel)
        track_centers = np.array([st.mean[:3] for st in states]).reshape(-1, 3)

        matches, _, unmatched_d = associate(track_centers, det_boxes[:, :3],
                                            config.gate_m)
        for t, d in matches:
            states[t] = update(states[t], det_boxes[d],
                               config.measurement_noise_pos)
            el = elements[t]
            el.boxes[f] = det_boxes[d]
            el.frame_valid[f] = True
            el.members.append((f, d))
            el.total_points += dets[d][1]

        matched_t = {t for t, _ in matches}
        for i in range(len(states)):
            if i not in matched_t:
                states[i].missed += 1

        for d in unmatched_d:
            mean = np.zeros(6)
            mean[:3] = det_boxes[d, :3]
            cov = np.zeros((6, 6))
            cov[:3, :3] = np.eye(3) * config.init_pos_var
            cov[3:, 3:] = np.eye(3) * config.init_vel_var
            states.append(TrackState(mean=mean, cov=cov, last_box=det_boxes[d].copy()))
            el = TrackedElement(boxes=np.zeros((T, 7)),
                                frame_valid=np.zeros(T, dtype=bool))
            el.boxes[f] = det_boxes[d]
            el.frame_valid[f] = True
            el.members.append((f, d))
            el.total_points += dets[d][1]
            elements.append(el)

    return elements
