"""Scene decomposition: agent membership, open-set clustering, tight boxes.

Non-ground points are split into agent points (inside perception boxes) and
open-set clusters (connected components of what remains).  Every input point
ends up with exactly one label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, cKDTree
from scipy.spatial import QhullError

from .bundle import AgentBox

# Per-point label codes.
LABEL_GROUND = 0
LABEL_AGENT = 1
LABEL_OPENSET = 2
LABEL_DISCARDED = 3

SIZE_FLOOR = 0.05  # minimum box edge, meters


@dataclass
class PointPartition:
    """Per-frame point labels for one scene.

    Each list has one array per frame, aligned with the frame's points:
    ``labels`` holds LABEL_* codes, ``agent_track`` the owning track_id for
    agent points (-1 elsewhere), ``cluster_id`` the per-frame open-set
    cluster index (-1 elsewhere).
    """

    labels: list[np.ndarray]
    agent_track: list[np.ndarray]
    cluster_id: list[np.ndarray]


def points_in_box(points: np.ndarray, box: AgentBox) -> np.ndarray:
    """Membership mask for one oriented box; boundaries are inclusive."""
    d = points - box.center
    c, s = np.cos(box.heading), np.sin(box.heading)
    # rotate by -heading about z
    x = c * d[:, 0] + s * d[:, 1]
    y = -s * d[:, 0] + c * d[:, 1]
    z = d[:, 2]
    half = box.size / 2.0
    return (np.abs(x) <= half[0]) & (np.abs(y) <= half[1]) & (np.abs(z) <= half[2])


def extract_agent_elements(points: np.ndarray, boxes: list[AgentBox]) -> np.ndarray:
    """Assign each point to at most one agent box.

    Returns the owning track_id per point, -1 for points outside every box.
    A point inside several boxes goes to the box with the nearest center;
    ties go to the lower track_id.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    owner = np.full(n, -1, dtype=np.int64)
    if n == 0 or not boxes:
        return owner

    best_dist = np.full(n, np.inf)
    for box in sorted(boxes, key=lambda b: b.track_id):
        inside = points_in_box(points, box)
        if not inside.any():
            continue
        dist = np.linalg.norm(points[inside] - box.center, axis=1)
        idx = np.flatnonzero(inside)
        better = dist < best_dist[idx]  # strict: ties keep the lower track_id
        sel = idx[better]
        owner[sel] = box.track_id
        best_dist[sel] = dist[better]
    return owner


def cluster_open_set(points: np.ndarray, radius: float,
                     min_points: int) -> np.ndarray:
    """Connected components over the <= radius neighbor graph.

    Returns one cluster id per point (-1 for components smaller than
    ``min_points``).  Points are canonically reordered before the search,
    so the labeling is independent of input order; cluster ids increase
    with the smallest canonical point index in the component.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels

    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
    pairs = cKDTree(points[order]).query_pairs(radius, output_type="ndarray")

    # Min-label propagation over both directions of every pair, with pointer
    # jumping: each point ends up holding the smallest canonical index in
    # its component.
    root = np.arange(n)
    while True:
        nxt = root.copy()
        np.minimum.at(nxt, pairs.ravel(), root[pairs[:, ::-1].ravel()])
        nxt = nxt[nxt]
        if np.array_equal(nxt, root):
            break
        root = nxt

    _, component, size = np.unique(root, return_inverse=True,
                                   return_counts=True)
    keep = size >= min_points
    labels[order] = np.where(keep, np.cumsum(keep) - 1, -1)[component]
    return labels


def _min_area_rect(xy: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """Minimum-area oriented rectangle of 2-D points.

    Rotating calipers over the convex hull: the optimal rectangle has a side
    collinear with a hull edge.  Returns (center, length, width, heading)
    with length >= width and heading in [0, pi); area ties pick the smallest
    heading.
    """
    hull = ConvexHull(xy)
    hp = xy[hull.vertices]
    edges = np.roll(hp, -1, axis=0) - hp
    theta = np.unique(np.mod(np.arctan2(edges[:, 1], edges[:, 0]), np.pi))

    # Project the hull onto every candidate axis at once: (angles, vertices).
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    u = hp[:, 0] * c + hp[:, 1] * s
    v = -hp[:, 0] * s + hp[:, 1] * c
    ext_u = u.max(axis=1) - u.min(axis=1)
    ext_v = v.max(axis=1) - v.min(axis=1)
    area = ext_u * ext_v
    heading = np.where(ext_u >= ext_v, theta, np.mod(theta + np.pi / 2, np.pi))

    best = 0
    for k in range(1, theta.shape[0]):
        if area[k] < area[best] - 1e-12 or (
                abs(area[k] - area[best]) <= 1e-12
                and heading[k] < heading[best] - 1e-12):
            best = k

    mu = (u[best].max() + u[best].min()) / 2.0
    mv = (v[best].max() + v[best].min()) / 2.0
    cb, sb = c[best, 0], s[best, 0]
    center = np.array([mu * cb - mv * sb, mu * sb + mv * cb])
    length, width = sorted((ext_u[best], ext_v[best]), reverse=True)
    return center, length, width, heading[best]


def _degenerate_rect(xy: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """Rectangle for collinear or tiny clusters via the principal direction."""
    centroid = xy.mean(axis=0)
    d = xy - centroid
    cov = d.T @ d
    w, v = np.linalg.eigh(cov)
    axis = v[:, -1]
    if w[-1] < 1e-18:
        return centroid, 0.0, 0.0, 0.0
    heading = float(np.mod(np.arctan2(axis[1], axis[0]), np.pi))
    u = d @ axis
    length = float(u.max() - u.min())
    perp = np.array([-axis[1], axis[0]])
    vv = d @ perp
    width = float(vv.max() - vv.min())
    mid = centroid + axis * (u.max() + u.min()) / 2.0 + perp * (vv.max() + vv.min()) / 2.0
    return mid, length, width, heading


def fit_tight_box(points: np.ndarray) -> np.ndarray:
    """Tightest 7-float box (center 3, size 3, heading) around a cluster.

    The xy footprint is the minimum-area oriented rectangle; the z extent
    comes from min/max z.  Heading is the long-axis direction in [0, pi).
    All sizes are floored at SIZE_FLOOR so degenerate clusters still make
    usable boxes.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if points.shape[0] == 0:
        raise ValueError("cannot fit a box around zero points")

    xy = points[:, :2]
    try:
        center2, length, width, heading = _min_area_rect(xy)
    except (QhullError, ValueError):  # fewer than 3 points, or collinear
        center2, length, width, heading = _degenerate_rect(xy)

    z_min, z_max = points[:, 2].min(), points[:, 2].max()
    length = max(length, SIZE_FLOOR)
    width = max(width, SIZE_FLOOR)
    height = max(z_max - z_min, SIZE_FLOOR)
    return np.array([center2[0], center2[1], (z_min + z_max) / 2.0,
                     length, width, height, heading])


def decompose_frame(points: np.ndarray, ground_mask: np.ndarray,
                    boxes: list[AgentBox], radius: float,
                    min_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label one frame's points: ground, agent, open-set, or discarded.

    Ground wins over boxes; agent boxes claim the non-ground points they
    contain; connected components over the residual produce open-set
    clusters, with undersized components discarded.
    """
    n = points.shape[0]
    labels = np.full(n, LABEL_DISCARDED, dtype=np.int64)
    agent_track = np.full(n, -1, dtype=np.int64)
    cluster_id = np.full(n, -1, dtype=np.int64)

    labels[ground_mask] = LABEL_GROUND

    rest = ~ground_mask
    owner = extract_agent_elements(points[rest], boxes)
    rest_idx = np.flatnonzero(rest)
    agent_sel = rest_idx[owner >= 0]
    labels[agent_sel] = LABEL_AGENT
    agent_track[agent_sel] = owner[owner >= 0]

    resid_idx = rest_idx[owner < 0]
    cl = cluster_open_set(points[resid_idx], radius, min_points)
    open_sel = resid_idx[cl >= 0]
    labels[open_sel] = LABEL_OPENSET
    cluster_id[open_sel] = cl[cl >= 0]
    # residual points in undersized components keep LABEL_DISCARDED
    return labels, agent_track, cluster_id
