"""Deterministic synthetic scenes with ground-truth labels.

Scenes are built from primitives whose decomposition is known in closed
form: a flat (optionally sloped) ground sheet, box-shaped agent shells on
constant-velocity trajectories, and static clutter blobs standing in for
open-set objects.  Camera feature maps encode (camera id, semantic label)
so pooled features can be checked analytically: the feature of a pixel
showing label L from camera k is one_hot(L) * (k + 1).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .bundle import AGENT_COLUMNS, SceneBundle, normalize_heading
from .decompose import LABEL_AGENT, LABEL_GROUND, LABEL_OPENSET, PointPartition
from .errors import InvalidInput


@dataclass(frozen=True)
class SceneSpec:
    """Knobs for the synthetic scene generator."""

    n_agents: int = 4
    n_clutter: int = 6
    area_m: float = 60.0
    T: int = 11
    cameras: int = 2
    D: int = 256  # matches the default pipeline feature dimension
    ground_points_per_frame: int = 600
    agent_points: int = 150   # per agent per frame
    clutter_points: int = 60  # per blob per frame
    slope: float = 0.0
    dt_s: float = 0.1
    min_speed: float = 0.5
    max_speed: float = 1.5
    agent_clearance_m: float = 0.4   # gap between box bottom and ground
    clutter_z_m: float = 0.8
    clutter_radius_m: float = 0.35
    min_separation_m: float = 8.0
    feature_res: int = 32

    def __post_init__(self):
        # Every float field must be finite; slope may be negative, so the
        # config's "> 0 and finite" bound rule does not fit here.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidInput(f"{f.name} must be finite, got {value}")
        if self.D < 3:
            raise InvalidInput("D must be >= 3 to hold the label channels")
        if self.T <= 0 or self.area_m <= 0:
            raise InvalidInput("T and area_m must be > 0")
        if self.feature_res <= 0:
            raise InvalidInput("feature_res must be > 0")
        for name in ("n_agents", "n_clutter", "cameras",
                     "ground_points_per_frame", "agent_points",
                     "clutter_points"):
            if getattr(self, name) < 0:
                raise InvalidInput(f"{name} must be >= 0")


@dataclass
class SyntheticScene:
    """A generated bundle plus its ground truth."""

    bundle: SceneBundle
    truth: PointPartition
    spec: SceneSpec
    agent_specs: list[dict] = field(default_factory=list)


def _place_centers(rng, n, area, margin, min_sep, max_tries=10_000):
    centers = []
    tries = 0
    while len(centers) < n:
        tries += 1
        if tries > max_tries:
            raise InvalidInput(
                f"could not place {n} objects with separation {min_sep} in "
                f"area {area}; enlarge the area or reduce the count")
        cand = rng.uniform(margin, area - margin, size=2)
        if all(np.linalg.norm(cand - c) >= min_sep for c in centers):
            centers.append(cand)
    return np.array(centers).reshape(-1, 2)


# Per box face: the axis it is normal to, then the two axes it spans.  Faces
# come in +/- pairs, so face i lies at sign (-1)**i along its axis.
_FACE_AXES = np.array([[0, 1, 2], [0, 1, 2], [1, 0, 2], [1, 0, 2],
                       [2, 0, 1], [2, 0, 1]])


def _sample_box_shell(rng, size, n):
    """Uniform points on the surface of an axis-aligned box at the origin."""
    l, w, h = size
    areas = np.array([w * h, w * h, l * h, l * h, l * w, l * w])
    face = rng.choice(6, size=n, p=areas / areas.sum())
    a = rng.uniform(-0.5, 0.5, size=n)
    b = rng.uniform(-0.5, 0.5, size=n)
    axes = _FACE_AXES[face]
    pts = np.empty((n, 3))
    pts[np.arange(n)[:, None], axes] = (
        np.stack([0.5 - face % 2, a, b], axis=1) * np.asarray(size)[axes])
    return pts


def _sample_ball(rng, radius, n):
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    r = radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / 3.0)
    return direction * r[:, None]


def _camera_pose(yaw: float, center: np.ndarray):
    """World->camera rotation for a camera at ``center`` looking along yaw."""
    c, s = math.cos(yaw), math.sin(yaw)
    x_cam = np.array([s, -c, 0.0])
    y_cam = np.array([0.0, 0.0, -1.0])
    z_cam = np.array([c, s, 0.0])
    R = np.stack([x_cam, y_cam, z_cam], axis=0)
    t = -R @ center
    return R, t


def _render_feature_map(fm, points, labels, R, t, fx, fy, cx, cy, res, camera_id):
    """Z-buffered label splat into the zeroed (res * res, D) pixel rows
    ``fm``: each cell takes the nearest point's label."""
    p_cam = points @ R.T + t
    z = p_cam[:, 2]
    front = z > 1e-6
    u = fx * p_cam[front, 0] / z[front] + cx
    v = fy * p_cam[front, 1] / z[front] + cy
    ok = (u >= 0) & (u < res) & (v >= 0) & (v < res)
    rows = np.floor(v[ok]).astype(np.int64)
    cols = np.floor(u[ok]).astype(np.int64)
    lab = labels[front][ok]
    depth = z[front][ok]
    cell = rows * res + cols
    order = np.argsort(depth, kind="stable")
    _, first = np.unique(cell[order], return_index=True)
    winner = order[first]  # nearest point per occupied cell
    fm[cell[winner], lab[winner]] = float(camera_id + 1)


def generate_scene(seed: int, spec: SceneSpec) -> SyntheticScene:
    """Build one reproducible scene with per-point ground-truth labels."""
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    area = spec.area_m

    n_obj = spec.n_agents + spec.n_clutter
    centers = _place_centers(rng, n_obj, area, margin=6.0,
                             min_sep=spec.min_separation_m)
    agent_xy = centers[:spec.n_agents]
    clutter_xy = centers[spec.n_agents:]

    agent_specs = []
    for k in range(spec.n_agents):
        speed = rng.uniform(spec.min_speed, spec.max_speed)
        direction = rng.uniform(-math.pi, math.pi)
        vel = np.array([math.cos(direction), math.sin(direction), 0.0]) * speed
        size = np.array([rng.uniform(3.6, 4.8), rng.uniform(1.7, 2.1),
                         rng.uniform(1.4, 1.8)])
        cz = spec.agent_clearance_m + size[2] / 2.0
        agent_specs.append({
            "track_id": k,
            "start": np.array([agent_xy[k, 0], agent_xy[k, 1], cz]),
            "velocity": vel,
            "size": size,
            "heading": float(normalize_heading(direction)),
        })

    clutter_centers = np.column_stack([
        clutter_xy, np.full(spec.n_clutter, spec.clutter_z_m)])

    frame_points, box_track, box_frame, box_rows = [], [], [], []
    labels, agent_track, cluster_id = [], [], []

    for f in range(spec.T):
        parts = []  # (points, label, agent track id, cluster id) per object

        gxy = rng.uniform(0.0, area, size=(spec.ground_points_per_frame, 2))
        gz = spec.slope * gxy[:, 0]
        parts.append((np.column_stack([gxy, gz]), LABEL_GROUND, -1, -1))

        for a in agent_specs:
            center = a["start"] + a["velocity"] * (f * spec.dt_s)
            # inset so rotation roundoff cannot push surface points outside
            shell = _sample_box_shell(rng, a["size"], spec.agent_points) * 0.999
            c, s = math.cos(a["heading"]), math.sin(a["heading"])
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            parts.append((shell @ rot.T + center, LABEL_AGENT, a["track_id"], -1))
            box_track.append(a["track_id"])
            box_frame.append(f)
            box_rows.append([*center, *a["size"], a["heading"]])

        for j in range(spec.n_clutter):
            blob = clutter_centers[j] + _sample_ball(rng, spec.clutter_radius_m,
                                                     spec.clutter_points)
            parts.append((blob, LABEL_OPENSET, -1, j))

        points, label, track, cluster = zip(*parts)
        sizes = [len(p) for p in points]
        frame_points.append(np.concatenate(points, axis=0))
        labels.append(np.repeat(np.array(label, dtype=np.int64), sizes))
        agent_track.append(np.repeat(np.array(track, dtype=np.int64), sizes))
        cluster_id.append(np.repeat(np.array(cluster, dtype=np.int64), sizes))

    # Camera k's map of frame f is camera row k * T + f.
    n_cams = spec.cameras * spec.T
    cam_center = np.array([area / 2.0, area / 2.0, 1.8])
    res = spec.feature_res
    fx = fy = res / 2.0
    cx = cy = res / 2.0
    poses = [_camera_pose(2.0 * math.pi * k / spec.cameras, cam_center)
             for k in range(spec.cameras)]
    pixels = np.zeros((n_cams * res * res, spec.D), dtype=np.float32)
    for c, fm in enumerate(pixels.reshape(n_cams, res * res, spec.D)):
        k, f = divmod(c, spec.T)
        _render_feature_map(fm, frame_points[f], labels[f], *poses[k],
                            fx, fy, cx, cy, res, k)

    bundle = SceneBundle(points=np.concatenate(frame_points),
                         frame_size=[len(points) for points in frame_points],
                         agent_track=box_track, agent_frame=box_frame,
                         agent_box=box_rows,
                         agent_label=["vehicle"] * len(box_track),
                         camera_id=np.repeat(np.arange(spec.cameras), spec.T),
                         camera_frame=np.tile(np.arange(spec.T), spec.cameras),
                         camera_intrinsics=[[fx, fy, cx, cy]] * n_cams,
                         camera_rotation=[R for R, _ in poses for _ in range(spec.T)],
                         camera_translation=[t for _, t in poses
                                             for _ in range(spec.T)],
                         camera_valid=np.ones(n_cams, dtype=bool),
                         camera_size=[[res, res]] * n_cams,
                         pixel_features=pixels)
    truth = PointPartition(labels=labels, agent_track=agent_track,
                           cluster_id=cluster_id)
    return SyntheticScene(bundle=bundle, truth=truth, spec=spec,
                          agent_specs=agent_specs)


def drop_agents(bundle: SceneBundle, ratio: float, seed: int) -> tuple[SceneBundle, list[int]]:
    """Simulate perception failure: remove a fixed ratio of agent tracks.

    Exactly floor(ratio * n_tracks) tracks are removed (all their frames),
    chosen by a seeded uniform draw.  Points are never touched, so the
    dropped agents' returns flow into open-set clustering downstream.
    Returns the ablated bundle and the sorted dropped track ids.
    """
    if not 0.0 <= ratio <= 1.0:
        raise InvalidInput(f"ratio must be in [0, 1], got {ratio}")
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    track_ids = np.unique(bundle.agent_track)
    n_drop = int(math.floor(ratio * track_ids.size))
    rng = np.random.default_rng(seed)
    dropped = sorted(rng.choice(track_ids, size=n_drop, replace=False).tolist())
    keep = ~np.isin(bundle.agent_track, dropped)
    return dataclasses.replace(bundle, **{
        name: getattr(bundle, name)[keep] for name in AGENT_COLUMNS}), dropped
