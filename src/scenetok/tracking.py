"""Constant-velocity Kalman tracking of open-set clusters across frames.

State is (center xyz, velocity xyz) with position-only measurements; the
measured box's size and heading are carried through unfiltered.  All tracks
are filtered as one stack: means (n, 6), covariances (n, 6, 6).  Greedy
nearest-first association with a distance gate is deliberately minimal.
"""

from __future__ import annotations

import numpy as np

from .config import TrackConfig


def _transition(dt: float) -> np.ndarray:
    F = np.eye(6)
    F[0, 3] = F[1, 4] = F[2, 5] = dt
    return F


def _symmetrize(cov: np.ndarray) -> np.ndarray:
    return (cov + np.swapaxes(cov, -1, -2)) / 2.0


def predict(mean: np.ndarray, cov: np.ndarray, dt: float,
            process_noise_vel: float = 1e-2) -> tuple[np.ndarray, np.ndarray]:
    """Advance (n, 6) means and (n, 6, 6) covariances by ``dt`` seconds
    under constant velocity."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    F = _transition(dt)
    Q = np.zeros((6, 6))
    Q[3:, 3:] = np.eye(3) * process_noise_vel
    # F times each mean as a column rounds exactly as the single-state
    # product F @ mean; mean @ F.T does not.
    return (F @ mean[..., None])[..., 0], _symmetrize(F @ cov @ F.T + Q)


def update(mean: np.ndarray, cov: np.ndarray, z: np.ndarray,
           measurement_noise_pos: float = 1e-2) -> tuple[np.ndarray, np.ndarray]:
    """Kalman update of (n, 6) means and (n, 6, 6) covariances with (n, 3)
    measured box centers as position-only observations."""
    H = np.zeros((3, 6))
    H[:, :3] = np.eye(3)
    R = np.eye(3) * measurement_noise_pos
    S = H @ cov @ H.T + R
    K = np.swapaxes(np.linalg.solve(np.swapaxes(S, -1, -2),
                                    np.swapaxes(cov @ H.T, -1, -2)), -1, -2)
    innov = z - mean[..., :3]
    mean = mean + (K @ innov[..., None])[..., 0]
    return mean, _symmetrize((np.eye(6) - K @ H) @ cov)


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
    ts, ds = np.nonzero(dist <= gate)
    order = np.lexsort((ds, ts, dist[ts, ds]))

    matches = []
    used_t = np.zeros(nt, dtype=bool)
    used_d = np.zeros(nd, dtype=bool)
    for t, d in zip(ts[order].tolist(), ds[order].tolist()):
        if used_t[t] or used_d[d]:
            continue
        used_t[t] = used_d[d] = True
        matches.append((t, d))
    return (matches,
            [t for t in range(nt) if not used_t[t]],
            [d for d in range(nd) if not used_d[d]])


def track_open_set(frame_boxes: list[np.ndarray], T: int,
                   config: TrackConfig) -> np.ndarray:
    """Associate per-frame cluster boxes into tracks.

    ``frame_boxes[f]`` is an (n_f, 7) array of frame f's cluster boxes,
    indexed by cluster id.  Returns the (n_tracks, T) int64 member table:
    the cluster id each track holds in each frame, -1 where it holds none.
    Tracks never merge.  An unmatched track coasts on its prediction to the
    end of the window and never ends.  Track order is creation order, which
    is deterministic for identical inputs.
    """
    mean = np.empty((0, 6))
    cov = np.empty((0, 6, 6))
    members = np.empty((0, T), dtype=np.int64)
    init_cov = np.diag([config.init_pos_var] * 3 + [config.init_vel_var] * 3)

    for f in range(T):
        boxes = np.reshape(frame_boxes[f] if f < len(frame_boxes) else [],
                           (-1, 7))
        mean, cov = predict(mean, cov, config.dt_s, config.process_noise_vel)
        matches, _, new = associate(mean[:, :3], boxes[:, :3], config.gate_m)
        t, d = np.array(matches, dtype=np.int64).reshape(-1, 2).T
        mean[t], cov[t] = update(mean[t], cov[t], boxes[d, :3],
                                 config.measurement_noise_pos)
        members[t, f] = d

        born = np.zeros((len(new), 6))
        born[:, :3] = boxes[new, :3]
        mean = np.concatenate([mean, born])
        cov = np.concatenate([cov, np.broadcast_to(init_cov, (len(new), 6, 6))])
        rows = np.full((len(new), T), -1, dtype=np.int64)
        rows[:, f] = new
        members = np.concatenate([members, rows])

    return members
