"""Scene decomposition: agent membership, open-set clustering, tight boxes.

Non-ground points are split into agent points (inside perception boxes) and
open-set clusters (connected components of what remains).  Every input point
ends up with exactly one label.  Each open-set cluster gets a tight box: all
of a scene's clusters are hulled together by a batched, certified gift wrap,
with Qhull only for hulls the wrap cannot certify; both go into one table of
hull vertex indices, and one batched caliper fold over it fits the rectangles.
``scipy.spatial`` is imported where it runs, not when this module loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .ground import lexicographic_order

# Per-point label codes.
LABEL_GROUND = 0
LABEL_AGENT = 1
LABEL_OPENSET = 2
LABEL_DISCARDED = 3

SIZE_FLOOR = 0.05  # minimum box edge, meters

# Float64 entries per (clusters, angles, vertices) projection block (2 MB),
# and per (clusters, points) gift-wrap block.
_FOLD_BUFFER = 1 << 18
# Hull vertices a cluster may have before it goes to Qhull instead.
_WRAP_STEPS = 64
# Relative margin by which every point must lie inside a wrapped edge.
_WRAP_MARGIN = 1e-9


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


def extract_agent_elements(points: np.ndarray, track_ids: np.ndarray,
                           boxes: np.ndarray) -> np.ndarray:
    """Assign each point to at most one agent box.

    ``track_ids`` (n,) and ``boxes`` (n, 7: center, size, heading) are one
    frame's rows of the agent table.  Returns the owning track_id per
    point, -1 for points outside every box.  A point is inside a box when
    its offset from the center, rotated by -heading about z, is within half
    the size on every axis; boundaries are inclusive.  A point inside
    several boxes goes to the box with the nearest center; ties go to the
    lower track_id, and boxes with equal track_ids keep their input order.

    Candidates come from one ``cKDTree.query_ball_point`` over the points,
    at each box's half-diagonal widened by 1e-9 relative + 1e-9 absolute, so
    rounding cannot lose a point the oriented test keeps.  The oriented test
    runs on the candidate (point, box) pairs only, with one cos/sin per
    box, and one lexsort by point, center distance and track rank picks
    each point's owner.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    owner = np.full(points.shape[0], -1, dtype=np.int64)
    if owner.size == 0 or len(track_ids) == 0:
        return owner

    by_track = np.argsort(track_ids, kind="stable")  # row = track rank
    track_id, boxes = track_ids[by_track], boxes[by_track]
    center, half = boxes[:, :3], boxes[:, 3:6] / 2.0
    # One cos/sin per box, broadcast over its candidate points.
    cos_sin = np.column_stack([np.cos(boxes[:, 6]), np.sin(boxes[:, 6])])
    radius = np.linalg.norm(half, axis=1)
    from scipy.spatial import cKDTree

    # A sliding-midpoint tree builds faster, and one query per box is all
    # it serves.
    tree = cKDTree(points, balanced_tree=False, compact_nodes=False)
    hits = tree.query_ball_point(center, radius * (1 + 1e-9) + 1e-9)
    box = np.repeat(np.arange(track_id.size), [len(h) for h in hits])
    pt = np.fromiter(chain.from_iterable(hits), dtype=np.int64, count=box.size)

    d = points[pt] - center[box]
    c, s = cos_sin[box, 0], cos_sin[box, 1]
    x = c * d[:, 0] + s * d[:, 1]
    y = -s * d[:, 0] + c * d[:, 1]
    h = half[box]
    inside = ((np.abs(x) <= h[:, 0]) & (np.abs(y) <= h[:, 1])
              & (np.abs(d[:, 2]) <= h[:, 2]))
    pt, box = pt[inside], box[inside]
    dist = np.linalg.norm(d[inside], axis=1)

    order = np.lexsort((box, dist, pt))
    pt, box = pt[order], box[order]
    first = np.ones(pt.size, dtype=bool)
    np.not_equal(pt[1:], pt[:-1], out=first[1:])
    owner[pt[first]] = track_id[box[first]]
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

    from scipy.spatial import cKDTree

    order = lexicographic_order(points)
    pairs = cKDTree(points[order]).query_pairs(radius, output_type="ndarray")

    # Min-label propagation over both directions of every pair, with pointer
    # jumping: each point ends up holding the smallest canonical index in
    # its component.
    head, tail = pairs.ravel(), pairs[:, ::-1].ravel()
    root = np.arange(n)
    while True:
        nxt = root.copy()
        np.minimum.at(nxt, head, root[tail])
        nxt = nxt[nxt]
        if np.array_equal(nxt, root):
            break
        root = nxt

    _, component, size = np.unique(root, return_inverse=True,
                                   return_counts=True)
    keep = size >= min_points
    labels[order] = np.where(keep, np.cumsum(keep) - 1, -1)[component]
    return labels


def _min_area_rects(hull: np.ndarray, n_vertices: np.ndarray
                    ) -> tuple[np.ndarray, ...]:
    """Minimum-area oriented rectangles of a stack of convex polygons.

    ``hull`` is (polygons, H, 2): row r holds a counter-clockwise vertex
    cycle of ``n_vertices[r]`` vertices, padded to H by repeating its last
    vertex.  Rotating calipers: the optimal rectangle has a side collinear
    with a hull edge, so each row is projected onto all of its edge angles
    in one (polygons, vertices, angles) product.  Returns (center (n, 2),
    length, width, heading) with length >= width and heading in [0, pi).

    Each row's angles are visited in increasing order.  A later angle wins
    only with an area smaller by more than 1e-12, or an area within 1e-12
    and a heading smaller by more than 1e-12; so a repeated angle never
    wins, and rows need no deduplication: padding repeats the last edge.
    """
    rows = np.arange(hull.shape[0])
    tail = np.minimum(np.arange(hull.shape[1]), n_vertices[:, None] - 1)
    head = np.where(tail + 1 < n_vertices[:, None], tail + 1, 0)
    edges = hull[rows[:, None], head] - hull[rows[:, None], tail]
    theta = np.sort(np.mod(np.arctan2(edges[..., 1], edges[..., 0]), np.pi),
                    axis=1)

    # Project every vertex onto every candidate axis: (polygons, vertices,
    # angles), reduced over the vertex axis.
    c, s = np.cos(theta)[:, None, :], np.sin(theta)[:, None, :]
    x, y = hull[:, :, None, 0], hull[:, :, None, 1]
    u = x * c + y * s
    v = -x * s + y * c
    ext_u = u.max(axis=1) - u.min(axis=1)
    ext_v = v.max(axis=1) - v.min(axis=1)
    area = ext_u * ext_v
    heading = np.where(ext_u >= ext_v, theta, np.mod(theta + np.pi / 2, np.pi))

    best = np.zeros(hull.shape[0], dtype=np.int64)
    for k in range(1, theta.shape[1]):
        area_best, heading_best = area[rows, best], heading[rows, best]
        better = (area[:, k] < area_best - 1e-12) | (
            (np.abs(area[:, k] - area_best) <= 1e-12)
            & (heading[:, k] < heading_best - 1e-12))
        best[better] = k

    u, v = u[rows, :, best], v[rows, :, best]
    mu = (u.max(axis=1) + u.min(axis=1)) / 2.0
    mv = (v.max(axis=1) + v.min(axis=1)) / 2.0
    cb, sb = c[rows, 0, best], s[rows, 0, best]
    center = np.stack([mu * cb - mv * sb, mu * sb + mv * cb], axis=1)
    eu, ev = ext_u[rows, best], ext_v[rows, best]
    return center, np.maximum(eu, ev), np.minimum(eu, ev), heading[rows, best]


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


def _wrap_hulls(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified convex hulls of a stack of point clouds, by gift wrapping.

    Column c of ``x`` and ``y`` (points, clouds) holds cloud c, padded by
    repeating a point.  All clouds step together, one hull vertex a step
    (Jarvis march): from each cloud's lexicographic minimum, the next vertex
    is the point of smallest counter-clockwise turn from the previous edge,
    the argmax of u / (|u| + v) with u = e.d and v = e x d; copies of the
    current vertex are never chosen.  An edge is certified when every point
    but exact copies of its two ends has e x d > _WRAP_MARGIN * |e|_1 *
    (|d|_1 + M), M being the cloud's largest |x| + |y|, which a NaN fails;
    the M term covers Qhull's roundoff, which grows with the coordinates.
    Returns (vertices (clouds, S), n_vertices):
    cloud c's counter-clockwise cycle is ``vertices[c, :n_vertices[c]]``,
    and n_vertices is 0 where a cloud fails an edge, has fewer than 3
    vertices or is not closed within _WRAP_STEPS vertices.  Clouds leave
    the stack as they close or fail.
    """
    k = x.shape[1]
    live = cols = np.arange(k)
    cur = np.where(x == x.min(axis=0), y, np.inf).argmin(axis=0)
    first_x, first_y = x[cur, cols], y[cur, cols]
    scale = (np.abs(x) + np.abs(y)).max(axis=0)
    # Heading down from the lexicographic minimum, every point lies within
    # a left turn of pi; the previous vertex starts as one nothing equals.
    ex, ey = np.zeros(k), np.full(k, -1.0)
    px = py = np.full(k, np.nan)
    vertices = np.zeros((k, _WRAP_STEPS + 1), dtype=np.int64)
    n_vertices = np.zeros(k, dtype=np.int64)
    for step in range(_WRAP_STEPS + 1):
        ax, ay = x[cur, cols], y[cur, cols]
        dx, dy = x - ax, y - ay
        u = ex * dx + ey * dy
        v = ex * dy - ey * dx
        l1 = np.abs(dx) + np.abs(dy)
        at_cur = l1 == 0
        if step:
            margin = (l1 + scale) * (_WRAP_MARGIN * (np.abs(ex) + np.abs(ey)))
            certified = ((v > margin)
                         | at_cur | ((x == px) & (y == py))).all(axis=0)
            closed = (ax == first_x) & (ay == first_y)
            n_vertices[live[closed & certified]] = step
            keep = certified & ~closed
            if not keep.any():
                break
        vertices[live, step] = cur
        with np.errstate(invalid="ignore", divide="ignore"):
            turn = u / (np.abs(u) + v)
        turn[at_cur] = -np.inf
        cur = turn.argmax(axis=0)
        px, py = ax, ay
        ex, ey = x[cur, cols] - ax, y[cur, cols] - ay
        if step and not keep.all():
            live, x, y = live[keep], x[:, keep], y[:, keep]
            cur, ex, ey, px, py = cur[keep], ex[keep], ey[keep], px[keep], py[keep]
            first_x, first_y, scale = first_x[keep], first_y[keep], scale[keep]
            cols = cols[:live.size]
    n_vertices[n_vertices < 3] = 0
    return vertices[:, :n_vertices.max()], n_vertices


def fit_tight_box(points: np.ndarray, sizes) -> np.ndarray:
    """Tightest 7-float boxes (center 3, size 3, heading), one per cluster.

    ``points`` holds every cluster's points back to back, ``sizes[c]`` of
    them for cluster c; returns a ``(len(sizes), 7)`` array.  The xy
    footprint is the minimum-area oriented rectangle of the cluster's
    convex hull; the z extent comes from min/max z.  Heading is the
    long-axis direction in [0, pi); of rectangles whose areas are within
    1e-12, the one with the smallest heading (by more than 1e-12) wins.
    All sizes are floored at SIZE_FLOOR so degenerate clusters still make
    usable boxes.

    Clusters are hulled together by a batched gift wrap (``_wrap_hulls``)
    over blocks of clusters of similar size, padded to fit the buffer.  It
    keeps only hulls whose every edge has all other points strictly inside
    by a margin relative to their distance and to the coordinates'
    magnitude; those are exactly Qhull's hulls.  Any other cluster (fewer
    than 3 points, collinear or nearly so, a hull of more than _WRAP_STEPS
    vertices, a NaN) gets its hull from Qhull, or its rectangle from its
    principal direction where Qhull cannot hull it.  Every hull, wrapped or
    not, goes into one table of vertex indices into ``points``, and one
    padded projection over blocks of hulls of similar size fits all the
    rectangles (``_min_area_rects``).  The result for each cluster does not
    depend on the other clusters in the call.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    if (sizes <= 0).any():
        raise ValueError("cannot fit a box around zero points")
    if sizes.sum() != points.shape[0]:
        raise ValueError(f"cluster sizes sum to {sizes.sum()}, "
                         f"but {points.shape[0]} points were given")
    n = sizes.size
    if n == 0:
        return np.empty((0, 7))

    start = np.cumsum(sizes) - sizes
    xy = points[:, :2]
    center, length = np.empty((n, 2)), np.empty(n)
    width, heading = np.empty(n), np.empty(n)
    rect = (center, length, width, heading)
    # Hull table: each hull's vertex indices into points, and their cluster.
    hull, owner = [], []
    # Clusters by size, in blocks whose padded clouds fit the buffer.
    by_size = np.argsort(sizes, kind="stable")
    while by_size.size:
        cost = np.arange(1, by_size.size + 1) * sizes[by_size]
        k = max(1, np.searchsorted(cost, _FOLD_BUFFER, side="right"))
        block, by_size = by_size[:k], by_size[k:]
        m = sizes[block]
        index = start[block] + np.minimum(np.arange(m[-1])[:, None], m - 1)
        vertices, n_vertices = _wrap_hulls(points[index, 0], points[index, 1])
        on_hull = np.arange(vertices.shape[1]) < n_vertices[:, None]
        hull.append(index[vertices, np.arange(k)[:, None]][on_hull])
        owner.append(np.repeat(block, n_vertices))
        for c in block[n_vertices == 0]:
            from scipy.spatial import ConvexHull, QhullError

            cluster_xy = xy[start[c]:start[c] + sizes[c]]
            try:
                vertices = ConvexHull(cluster_xy).vertices
            except (QhullError, ValueError):  # under 3 points, or collinear
                for out, value in zip(rect, _degenerate_rect(cluster_xy)):
                    out[c] = value
                continue
            hull.append(start[c] + vertices)
            owner.append(np.full(vertices.size, c))

    # Hulls by size, in blocks whose padded projection fits the buffer.
    hull = np.concatenate(hull)
    hulled, first, n_vertices = np.unique(
        np.concatenate(owner), return_index=True, return_counts=True)
    rows = np.argsort(n_vertices, kind="stable")
    while rows.size:
        cost = np.arange(1, rows.size + 1) * n_vertices[rows] ** 2
        k = max(1, np.searchsorted(cost, _FOLD_BUFFER, side="right"))
        block, rows = rows[:k], rows[k:]
        h = n_vertices[block]
        cycle = hull[first[block, None]
                     + np.minimum(np.arange(h[-1]), h[:, None] - 1)]
        for out, value in zip(rect, _min_area_rects(xy[cycle], h)):
            out[hulled[block]] = value

    z_min = np.minimum.reduceat(points[:, 2], start)
    z_max = np.maximum.reduceat(points[:, 2], start)
    return np.column_stack([
        center, (z_min + z_max) / 2.0, np.maximum(length, SIZE_FLOOR),
        np.maximum(width, SIZE_FLOOR), np.maximum(z_max - z_min, SIZE_FLOOR),
        heading])


def decompose_frame(points: np.ndarray, ground_mask: np.ndarray,
                    track_ids: np.ndarray, boxes: np.ndarray, radius: float,
                    min_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label one frame's points: ground, agent, open-set, or discarded.

    ``track_ids`` and ``boxes`` are the frame's rows of the agent table.
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
    owner = extract_agent_elements(points[rest], track_ids, boxes)
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
