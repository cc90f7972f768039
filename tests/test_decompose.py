import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp
from scipy.spatial import ConvexHull, QhullError

from scenetok import cluster_open_set, extract_agent_elements, fit_tight_box
from scenetok import decompose
from scenetok.decompose import (
    LABEL_AGENT,
    LABEL_DISCARDED,
    LABEL_GROUND,
    LABEL_OPENSET,
    decompose_frame,
)


def points_in_box(points, box):
    """Membership mask for one oriented box; boundaries are inclusive."""
    d = points - box.center
    c, s = np.cos(box.heading), np.sin(box.heading)
    # rotate by -heading about z
    x = c * d[:, 0] + s * d[:, 1]
    y = -s * d[:, 0] + c * d[:, 1]
    z = d[:, 2]
    half = box.size / 2.0
    return (np.abs(x) <= half[0]) & (np.abs(y) <= half[1]) & (np.abs(z) <= half[2])


Box = namedtuple("Box", "track_id center size heading")


def box(track_id=0, center=(0, 0, 0), size=(2, 2, 2), heading=0.0):
    return Box(track_id, np.asarray(center, dtype=np.float64),
               np.asarray(size, dtype=np.float64), float(heading))


def table(boxes):
    """The (track ids, (n, 7) box rows) agent table of a list of boxes."""
    return (np.array([b.track_id for b in boxes], dtype=np.int64),
            np.array([[*b.center, *b.size, b.heading]
                      for b in boxes]).reshape(-1, 7))


def boxes_of(track_ids, rows):
    """The boxes of an agent table, one per row."""
    return [box(t, r[:3], r[3:6], r[6]) for t, r in zip(track_ids.tolist(),
                                                      rows)]


def membership_oracle(point, b):
    """Brute-force transform into the box frame."""
    d = np.asarray(point, dtype=float) - b.center
    c, s = math.cos(-b.heading), math.sin(-b.heading)
    x = c * d[0] - s * d[1]
    y = s * d[0] + c * d[1]
    return (abs(x) <= b.size[0] / 2 and abs(y) <= b.size[1] / 2
            and abs(d[2]) <= b.size[2] / 2)


def extract_agent_elements_reference(points, boxes):
    """Reference: every box tested against every point, in track order."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    owner = np.full(points.shape[0], -1, dtype=np.int64)
    if points.shape[0] == 0 or not boxes:
        return owner
    best_dist = np.full(points.shape[0], np.inf)
    for b in sorted(boxes, key=lambda b: b.track_id):
        inside = points_in_box(points, b)
        if not inside.any():
            continue
        dist = np.linalg.norm(points[inside] - b.center, axis=1)
        idx = np.flatnonzero(inside)
        better = dist < best_dist[idx]  # strict: ties keep the lower track_id
        owner[idx[better]] = b.track_id
        best_dist[idx[better]] = dist[better]
    return owner


def box_corners_and_faces(b):
    """Corners, edge midpoints and face centres of an oriented box."""
    signs = np.array([[i, j, k] for i in (-1, 0, 1) for j in (-1, 0, 1)
                      for k in (-1, 0, 1)], dtype=float)
    c, s = math.cos(b.heading), math.sin(b.heading)
    R = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
    return (signs * b.size / 2.0) @ R.T + b.center


class TestAgentMembership:
    def test_matches_reference_on_awkward_frames(self):
        rng = np.random.default_rng(3)
        equal = [box(track_id=7, center=(-1, 0, 0), size=(4, 4, 4)),
                 box(track_id=3, center=(1, 0, 0), size=(4, 4, 4))]
        rotated = [box(track_id=t, center=rng.uniform(-3, 3, 3),
                       size=rng.uniform(0.5, 4, 3), heading=h)
                   for t, h in zip((9, 2, 5, 4), (0.3, -2.9, math.pi / 2, 1.1))]
        on_plane = np.column_stack([np.zeros(50), rng.uniform(-2, 2, (50, 2))])
        frames = [
            (np.concatenate([on_plane, rng.uniform(-3, 3, (200, 3))]), equal),
            (np.concatenate([box_corners_and_faces(b) for b in equal]), equal),
            (np.concatenate([*(box_corners_and_faces(b) for b in rotated),
                             rng.uniform(-5, 5, (400, 3))]), rotated),
            (np.concatenate([box_corners_and_faces(b) for b in rotated]),
             rotated[::-1]),
            (np.array([[2.0, 2.0, 2.0], [1.0, -2.0, 0.0], [3.0, 0.0, 2.0]]),
             equal),  # corners and faces shared by both boxes
            (rng.uniform(-3, 3, (20, 3)), []),
            (np.empty((0, 3)), equal),
        ]
        for points, boxes in frames:
            got = extract_agent_elements(points, *table(boxes))
            assert got.dtype == np.int64
            np.testing.assert_array_equal(
                got, extract_agent_elements_reference(points, boxes))
        owner = extract_agent_elements(on_plane, *table(equal))
        assert (owner == 3).all()  # equal distances: the lower track id

    def test_scene_frames_match_reference(self, small_scene):
        from scenetok import SceneSpec, generate_scene

        full = generate_scene(11, SceneSpec(
            n_agents=16, n_clutter=60, T=11, area_m=160.0, cameras=1, D=4,
            ground_points_per_frame=3200, agent_points=60, clutter_points=40,
            min_separation_m=6.0, feature_res=4))
        for bundle in (small_scene.bundle, full.bundle):
            frames = np.split(bundle.points, np.cumsum(bundle.frame_size)[:-1])
            for f, points in enumerate(frames):
                rows = bundle.agent_frame == f
                track_ids = bundle.agent_track[rows]
                boxes = bundle.agent_box[rows]
                got = extract_agent_elements(points, track_ids, boxes)
                assert (got >= 0).sum() > 0
                np.testing.assert_array_equal(
                    got, extract_agent_elements_reference(
                        points, boxes_of(track_ids, boxes)))

    def test_point_inside_axis_aligned_box(self):
        owner = extract_agent_elements(np.array([[0.5, 0.5, 0.5]]),
                                       *table([box()]))
        assert owner.tolist() == [0]

    def test_rotated_box_long_axis_along_y(self):
        b = box(size=(4, 1, 2), heading=math.pi / 2)
        p = np.array([[0.4, 1.5, 0.0]])
        assert membership_oracle(p[0], b)
        assert extract_agent_elements(p, *table([b])).tolist() == [0]

    def test_boundary_point_is_inside(self):
        assert extract_agent_elements(np.array([[1.0, 0.0, 0.0]]),
                                      *table([box()])).tolist() == [0]

    def test_overlap_resolved_by_nearest_center_then_track_id(self):
        b1 = box(track_id=5, center=(0, 0, 0), size=(4, 4, 4))
        b2 = box(track_id=2, center=(1, 0, 0), size=(4, 4, 4))
        pts = np.array([[0.9, 0.0, 0.0],   # nearer b2
                        [0.1, 0.0, 0.0],   # nearer b1
                        [0.5, 0.0, 0.0]])  # tie -> lower track_id
        assert extract_agent_elements(pts, *table([b1, b2])).tolist() == [
            2, 5, 2]

    def test_matches_oracle_on_random_points(self):
        rng = np.random.default_rng(0)
        b = box(center=(1.0, -2.0, 0.5), size=(3.0, 1.5, 2.0), heading=0.7)
        pts = rng.uniform(-4, 4, (300, 3))
        owner = extract_agent_elements(pts, *table([b]))
        expected = np.array([0 if membership_oracle(p, b) else -1 for p in pts])
        np.testing.assert_array_equal(owner, expected)

    def test_rigid_transform_equivariance(self):
        rng = np.random.default_rng(1)
        b = box(center=(1.0, 2.0, 0.0), size=(3.0, 1.5, 2.0), heading=0.3)
        pts = rng.uniform(-4, 4, (200, 3)) + b.center
        before = points_in_box(pts, b)

        dtheta = 0.9
        c, s = math.cos(dtheta), math.sin(dtheta)
        R = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        shift = np.array([5.0, -3.0, 1.0])
        moved = box(track_id=0, center=R @ b.center + shift, size=b.size,
                    heading=b.heading + dtheta)
        after = points_in_box(pts @ R.T + shift, moved)
        np.testing.assert_array_equal(before, after)


def union_find_oracle(points, radius, min_points):
    """All-pairs union-find; the slow but obviously-correct clustering."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(points[i] - points[j]) <= radius:
                parent[find(i)] = find(j)
    roots = [find(i) for i in range(n)]
    sizes = {}
    for r in roots:
        sizes[r] = sizes.get(r, 0) + 1
    return roots, sizes


class TestClustering:
    def test_two_separated_blobs(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.1, (10, 3))
        b = rng.normal(0, 0.1, (10, 3)) + [10, 0, 0]
        labels = cluster_open_set(np.concatenate([a, b]), 0.5, 3)
        assert len(set(labels.tolist())) == 2
        assert len(set(labels[:10].tolist())) == 1
        assert len(set(labels[10:].tolist())) == 1

    def test_chain_is_one_cluster(self):
        pts = np.array([[0.4 * i, 0.0, 0.0] for i in range(5)])
        labels = cluster_open_set(pts, 0.5, 3)
        assert set(labels.tolist()) == {0}

    def test_small_components_discarded(self):
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0]])
        labels = cluster_open_set(pts, 0.5, 3)
        assert labels.tolist() == [-1, -1]

    def test_matches_union_find_oracle(self):
        # (seed, points, extent, min_points); the second case keeps 15 clusters
        for seed, n, extent, min_points in ((3, 120, 6, 3), (5, 200, 5, 3)):
            rng = np.random.default_rng(seed)
            pts = rng.uniform(0, extent, (n, 3))
            labels = cluster_open_set(pts, 0.5, min_points)
            roots, sizes = union_find_oracle(pts, 0.5, min_points)
            # same partition: points share a label iff they share a root
            for i in range(n):
                expected_discard = sizes[roots[i]] < min_points
                assert (labels[i] == -1) == expected_discard
            kept = [i for i in range(n) if labels[i] >= 0]
            for i in kept:
                for j in kept:
                    assert (labels[i] == labels[j]) == (roots[i] == roots[j])

            # exact ids: kept components are numbered in order of their
            # smallest canonical (x, y, z lexicographic) point index
            rank = np.empty(n, dtype=np.int64)
            rank[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))] = np.arange(n)
            first = {}
            for i, r in enumerate(roots):
                first[r] = min(first.get(r, rank[i]), rank[i])
            kept_roots = sorted((first[r], r) for r in first
                                if sizes[r] >= min_points)
            cid = {r: k for k, (_, r) in enumerate(kept_roots)}
            expected = np.array([cid.get(r, -1) for r in roots])
            np.testing.assert_array_equal(labels, expected)

    def test_points_exactly_radius_apart_join(self):
        pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [0.5, 0.5, 0]])
        np.testing.assert_array_equal(cluster_open_set(pts, 0.5, 3), [0, 0, 0])

    def test_empty_and_single_point(self):
        empty = cluster_open_set(np.empty((0, 3)), 0.5, 1)
        assert empty.shape == (0,) and empty.dtype == np.int64
        one = np.array([[1.0, 2.0, 3.0]])
        assert cluster_open_set(one, 0.5, 1).tolist() == [0]
        assert cluster_open_set(one, 0.5, 2).tolist() == [-1]

    def test_order_independence(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 5, (80, 3))
        base = cluster_open_set(pts, 0.6, 2)
        perm = rng.permutation(80)
        shuffled = cluster_open_set(pts[perm], 0.6, 2)
        np.testing.assert_array_equal(base[perm], shuffled)


def min_rect_area_oracle(xy):
    """Brute force: sweep every pairwise direction as a candidate edge."""
    best = np.inf
    n = len(xy)
    for i in range(n):
        for j in range(i + 1, n):
            d = xy[j] - xy[i]
            norm = np.hypot(d[0], d[1])
            if norm < 1e-12:
                continue
            c, s = d[0] / norm, d[1] / norm
            u = xy[:, 0] * c + xy[:, 1] * s
            v = -xy[:, 0] * s + xy[:, 1] * c
            area = (u.max() - u.min()) * (v.max() - v.min())
            best = min(best, area)
    return best


def min_area_rect_loop(xy):
    """Reference: rotating calipers, one candidate edge angle at a time."""
    hull = ConvexHull(xy)
    hp = xy[hull.vertices]
    edges = np.roll(hp, -1, axis=0) - hp
    angles = np.mod(np.arctan2(edges[:, 1], edges[:, 0]), np.pi)

    best = None
    for theta in np.unique(angles):
        c, s = np.cos(theta), np.sin(theta)
        u = hp[:, 0] * c + hp[:, 1] * s
        v = -hp[:, 0] * s + hp[:, 1] * c
        ext_u = u.max() - u.min()
        ext_v = v.max() - v.min()
        area = ext_u * ext_v
        if ext_u >= ext_v:
            length, width, heading = ext_u, ext_v, theta
        else:
            length, width, heading = ext_v, ext_u, np.mod(theta + np.pi / 2, np.pi)
        mu = (u.max() + u.min()) / 2.0
        mv = (v.max() + v.min()) / 2.0
        center = np.array([mu * c - mv * s, mu * s + mv * c])
        cand = (area, heading, center, length, width)
        if best is None or area < best[0] - 1e-12 or (
                abs(area - best[0]) <= 1e-12 and heading < best[1] - 1e-12):
            best = cand
    area, heading, center, length, width = best
    return center, length, width, heading


def tie_prone_clouds():
    """Random clouds plus squares and 45-degree squares, where areas tie."""
    rng = np.random.default_rng(11)
    clouds = [rng.normal(size=(int(rng.integers(3, 40)), 3)) * [3, 1, 1]
              for _ in range(30)]
    clouds += [rng.integers(-3, 4, (20, 3)).astype(float) for _ in range(10)]
    square = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1], [0, 0.5]], float)
    for deg in (0, 45, 90, 135, 30, -45):
        t = math.radians(deg)
        R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        for scale, shift in ((1.0, (0, 0)), (0.3, (7.5, -2.0))):
            xy = square @ R.T * scale + shift
            clouds.append(np.column_stack([xy, np.linspace(0, 1, len(xy))]))
    return clouds


def qhull_fallback_clouds():
    """Clusters the gift wrap must hand to Qhull, with the reason for each."""
    t = np.arange(80) * (2 * math.pi / 80)
    ring = np.column_stack([np.cos(t), np.sin(t), t])  # 80 hull vertices
    square = np.array([[x, y, 0.0] for x in (-1, 0, 1) for y in (-1, 0, 1)])
    with_nan = np.random.default_rng(14).normal(size=(8, 3))
    with_nan[3, 1] = np.nan
    clouds = {"ring above the step bound": ring,
              "square with edge midpoints": square,
              "NaN coordinate": with_nan}
    # Right triangles with legs of 3 ulps, and a point inside: Qhull's
    # roundoff grows with the coordinates, so these certify only with the
    # margin's magnitude term.
    for x0, y0 in ((2.5, -0.75), (1e7 + 0.5, 3e7 + 0.25)):
        dx, dy = 3 * np.spacing(x0), 3 * np.spacing(y0)
        clouds[f"3-ulp triangle at {x0:g}"] = np.array([
            [x0, y0, 0.0], [x0 + dx, y0, 1.0], [x0, y0 + dy, 2.0],
            [x0 + dx / 3, y0 + dy / 3, 0.5]])
    return clouds


def fit_tight_box_reference(points):
    """Reference: one cluster at a time, Qhull then one angle at a time."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    xy = points[:, :2]
    try:
        center2, length, width, heading = min_area_rect_loop(xy)
    except (QhullError, ValueError):  # fewer than 3 points, or collinear
        center2, length, width, heading = decompose._degenerate_rect(xy)
    z_min, z_max = points[:, 2].min(), points[:, 2].max()
    length = max(length, decompose.SIZE_FLOOR)
    width = max(width, decompose.SIZE_FLOOR)
    height = max(z_max - z_min, decompose.SIZE_FLOOR)
    return np.array([center2[0], center2[1], (z_min + z_max) / 2.0,
                     length, width, height, heading])


def assert_boxes_match_reference(clouds):
    """One batched call over all clouds equals the reference on each."""
    sizes = [len(pts) for pts in clouds]
    got = fit_tight_box(np.concatenate(clouds), sizes)
    assert got.shape == (len(clouds), 7)
    for pts, row in zip(clouds, got):
        np.testing.assert_array_equal(row, fit_tight_box_reference(pts))


def pipeline_clusters(bundle, config, monkeypatch):
    """The clusters tokenize_bundle boxes, in its order, as separate arrays."""
    from scenetok import tokenize_bundle

    calls = []

    def record(points, sizes):
        calls.append((points, sizes))
        return fit_tight_box(points, sizes)

    monkeypatch.setattr(decompose, "fit_tight_box", record)
    tokenize_bundle(bundle, config)
    (points, sizes), = calls
    return np.split(points, np.cumsum(sizes)[:-1]) if len(sizes) else []


class TestTightBox:
    def test_equals_per_angle_reference(self):
        assert_boxes_match_reference(tie_prone_clouds())

    def test_scene_clusters_equal_reference(self, monkeypatch, small_scene,
                                            small_config):
        from scenetok import PipelineConfig, SceneSpec, generate_scene

        full = generate_scene(11, SceneSpec(
            n_agents=16, n_clutter=60, T=11, area_m=160.0, cameras=2, D=8,
            ground_points_per_frame=3200, agent_points=60, clutter_points=40,
            min_separation_m=6.0, feature_res=8))
        hull_calls = []

        def counting_hull(*args, **kwargs):
            hull_calls.append(args)
            return ConvexHull(*args, **kwargs)

        monkeypatch.setattr(decompose, "ConvexHull", counting_hull)
        for bundle, config in ((small_scene.bundle, small_config),
                               (full.bundle, PipelineConfig(D=8))):
            clouds = pipeline_clusters(bundle, config, monkeypatch)
            assert len(clouds) > 10
            assert_boxes_match_reference(clouds)
        # Every scene cluster is boxed by the certified gift wrap.
        assert hull_calls == []

    def test_awkward_clusters_equal_reference(self):
        rng = np.random.default_rng(12)
        line = np.column_stack([np.linspace(0, 2, 9), np.linspace(0, 1, 9),
                                np.zeros(9)])
        jittered = line + [100.0, 50.0, 0.0]
        jittered[:, :2] += rng.uniform(-1e-13, 1e-13, (9, 2))
        with pytest.raises(QhullError):
            ConvexHull(jittered[:, :2])
        clouds = [
            np.array([[2.0, 3.0, 1.0]]),                          # 1 point
            np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]),         # 2 points
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]),
            rng.normal(size=(40, 3)),
            np.repeat(rng.normal(size=(6, 3)), 3, axis=0),        # duplicates
            np.full((5, 3), 7.0),                                 # one point x5
            line,                                                 # collinear
            line[:, [1, 0, 2]],
            np.column_stack([np.zeros(6), np.arange(6.0), np.ones(6)]),
            jittered,                                             # Qhull raises
            np.concatenate([rng.normal(size=(30, 3)),
                            rng.normal(size=(30, 3))[:5]]),
            *qhull_fallback_clouds().values(),
        ]
        assert_boxes_match_reference(clouds)
        for pts in clouds:  # and each cluster alone
            np.testing.assert_array_equal(fit_tight_box(pts, [len(pts)])[0],
                                          fit_tight_box_reference(pts))

    def test_large_cluster_among_small_ones_equals_reference(self):
        rng = np.random.default_rng(13)
        clouds = [rng.normal(size=(5000, 3)) * [20, 4, 2]]
        clouds += [rng.normal(size=(int(rng.integers(1, 60)), 3)) + 30 * k
                   for k in range(100)]
        clouds.insert(50, np.column_stack([rng.uniform(0, 40, 3000),
                                           rng.uniform(0, 0.2, 3000),
                                           rng.uniform(0, 3, 3000)]))
        assert_boxes_match_reference(clouds)

    def test_uncertified_clusters_go_to_qhull(self):
        clouds = list(qhull_fallback_clouds().values())
        t = np.arange(60) * (2 * math.pi / 60)
        clouds.append(np.column_stack([np.cos(t), np.sin(t), t]))
        sizes = np.array([len(pts) for pts in clouds])
        index = (np.cumsum(sizes) - sizes
                 + np.minimum(np.arange(sizes.max())[:, None], sizes - 1))
        points = np.concatenate(clouds)
        _, n_vertices = decompose._wrap_hulls(points[index, 0],
                                              points[index, 1])
        # A 60-point ring is within the step bound; the others fall back.
        assert n_vertices.tolist() == [0] * (len(clouds) - 1) + [60]
        assert np.isnan(fit_tight_box(clouds[2], [8])[0]).any()

    @settings(max_examples=30, deadline=None)
    @given(extra=hs.lists(hnp.arrays(
               np.float64, hs.tuples(hs.integers(1, 25), hs.just(3)),
               elements=hs.one_of(hs.integers(-3, 3).map(float),
                                  hs.floats(-50, 50))), max_size=8),
           data=hs.data())
    def test_box_does_not_depend_on_other_clusters(self, extra, data):
        # Wrapped and Qhull hulls share the fold's blocks.
        clouds = (tie_prone_clouds() + list(qhull_fallback_clouds().values())
                  + extra)
        sizes = [len(pts) for pts in clouds]
        boxes = fit_tight_box(np.concatenate(clouds), sizes)
        order = data.draw(hs.permutations(range(len(clouds))))
        permuted = fit_tight_box(np.concatenate([clouds[i] for i in order]),
                                 [sizes[i] for i in order])
        np.testing.assert_array_equal(permuted, boxes[order])
        alone = [fit_tight_box(pts, [len(pts)])[0] for pts in clouds]
        np.testing.assert_array_equal(np.array(alone), boxes)

    def test_no_clusters(self):
        boxes = fit_tight_box(np.empty((0, 3)), [])
        assert boxes.shape == (0, 7)

    def test_sizes_must_cover_the_points(self):
        pts = np.zeros((4, 3))
        with pytest.raises(ValueError, match="zero points"):
            fit_tight_box(pts, [4, 0])
        with pytest.raises(ValueError, match="sum to 3"):
            fit_tight_box(pts, [1, 2])

    def test_square_prism(self):
        pts = np.array([[1, 1, 0], [1, -1, 0], [-1, 1, 1], [-1, -1, 1],
                        [1, 1, 1], [1, -1, 1], [-1, 1, 0], [-1, -1, 0]],
                       dtype=float)
        b = fit_tight_box(pts, [len(pts)])[0]
        np.testing.assert_allclose(b[:3], [0, 0, 0.5], atol=1e-12)
        np.testing.assert_allclose(b[3:6], [2, 2, 1], atol=1e-12)
        assert b[6] == 0.0  # square tie broken to heading 0

    def test_single_point_floor(self):
        b = fit_tight_box(np.array([[2.0, 3.0, 1.0]]), [1])[0]
        np.testing.assert_allclose(b, [2, 3, 1, 0.05, 0.05, 0.05, 0])

    def test_rotated_unit_square_tie_breaks_to_lower_heading(self):
        theta = math.radians(30)
        c, s = math.cos(theta), math.sin(theta)
        R = np.array([[c, -s], [s, c]])
        corners = np.array([[0.5, 0.5], [0.5, -0.5], [-0.5, 0.5], [-0.5, -0.5]])
        pts = np.column_stack([corners @ R.T, np.zeros(4)])
        b = fit_tight_box(pts, [len(pts)])[0]
        # square: both edge directions give the same area; lower heading wins
        assert abs(b[6] - theta) < 1e-6
        np.testing.assert_allclose(b[3:5], [1.0, 1.0], atol=1e-9)

    def test_rotated_unit_square_recovers_heading(self):
        theta = math.radians(30)
        c, s = math.cos(theta), math.sin(theta)
        R = np.array([[c, -s], [s, c]])
        # rectangle, not square, so the long axis is unambiguous
        corners = np.array([[1.0, 0.4], [1.0, -0.4], [-1.0, 0.4], [-1.0, -0.4]])
        xy = corners @ R.T
        pts = np.column_stack([xy, np.zeros(4)])
        b = fit_tight_box(pts, [len(pts)])[0]
        assert abs(b[6] - theta) < 1e-6
        np.testing.assert_allclose(b[3:5], [2.0, 0.8], atol=1e-9)

    def test_area_not_worse_than_aabb(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = rng.normal(size=(30, 3))
            b = fit_tight_box(pts, [len(pts)])[0]
            aabb = ((pts[:, 0].max() - pts[:, 0].min())
                    * (pts[:, 1].max() - pts[:, 1].min()))
            assert b[3] * b[4] <= aabb + 1e-9

    def test_area_matches_bruteforce_direction_sweep(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            pts = rng.normal(size=(rng.integers(4, 15), 3)) * [3, 1, 1]
            b = fit_tight_box(pts, [len(pts)])[0]
            assert abs(b[3] * b[4] - min_rect_area_oracle(pts[:, :2])) < 1e-9

    def test_collinear_cluster(self):
        pts = np.column_stack([np.linspace(0, 2, 9), np.linspace(0, 2, 9),
                               np.zeros(9)])
        b = fit_tight_box(pts, [len(pts)])[0]
        assert abs(b[6] - math.pi / 4) < 1e-9
        np.testing.assert_allclose(b[3], 2 * math.sqrt(2), atol=1e-9)
        assert b[4] == 0.05  # floored width


class TestDecomposeFrame:
    def test_every_point_gets_exactly_one_label(self):
        rng = np.random.default_rng(7)
        pts = np.concatenate([
            np.column_stack([rng.uniform(0, 30, (200, 2)), np.zeros(200)]),
            rng.normal([5, 5, 1], 0.2, (50, 3)),
            rng.normal([20, 20, 1], 0.1, (30, 3)),
            np.array([[15.0, 15.0, 10.0]]),  # isolated -> discarded
        ])
        ground_mask = np.abs(pts[:, 2]) <= 0.2
        boxes = [box(track_id=1, center=(5, 5, 1), size=(3, 3, 3))]
        labels, tracks, clusters = decompose_frame(pts, ground_mask,
                                                   *table(boxes), 0.5, 3)
        assert set(labels.tolist()) <= {LABEL_GROUND, LABEL_AGENT,
                                        LABEL_OPENSET, LABEL_DISCARDED}
        assert (labels == LABEL_GROUND).sum() == 200
        assert (labels == LABEL_AGENT).sum() == 50
        assert (labels == LABEL_OPENSET).sum() == 30
        assert labels[-1] == LABEL_DISCARDED
        assert (tracks[labels == LABEL_AGENT] == 1).all()
        assert (clusters[labels == LABEL_OPENSET] >= 0).all()

    def test_ground_wins_over_box(self):
        pts = np.array([[0.0, 0.0, 0.05]])
        ground_mask = np.array([True])
        labels, _, _ = decompose_frame(pts, ground_mask, *table([box()]),
                                       0.5, 1)
        assert labels.tolist() == [LABEL_GROUND]
