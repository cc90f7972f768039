import numpy as np
import pytest

from scenetok import fit_ground_plane, segment_ground, tile_ground
from scenetok.bundle import KIND_GROUND, SceneElement
from scenetok.config import PipelineConfig, RansacConfig
from scenetok.errors import DegenerateInput
from scenetok.pipeline import assign_token_ids
from scenetok.ground import (GroundPlane, _canonicalize, _least_squares_plane,
                             lexicographic_order, tile_cells)

CFG = RansacConfig()


def ls_plane_oracle(points):
    """Independent least-squares plane: fit z = a*x + b*y + c."""
    A = np.column_stack([points[:, 0], points[:, 1], np.ones(len(points))])
    (a, b, c), *_ = np.linalg.lstsq(A, points[:, 2], rcond=None)
    n = np.array([-a, -b, 1.0])
    n /= np.linalg.norm(n)
    return n


def test_flat_plane_exact():
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(-10, 10, (100, 2)), np.zeros(100)])
    plane = fit_ground_plane(pts, CFG, seed=0)
    np.testing.assert_allclose(plane.normal, [0, 0, 1], atol=1e-9)
    assert abs(plane.offset) < 1e-9
    assert plane.inlier_count == 100


def test_sloped_plane_with_outliers_matches_ls_oracle():
    rng = np.random.default_rng(1)
    n_in, n_out = 900, 100
    xy = rng.uniform(-20, 20, (n_in, 2))
    inliers = np.column_stack([xy, 0.1 * xy[:, 0]])
    out_xy = rng.uniform(-20, 20, (n_out, 2))
    outliers = np.column_stack([out_xy, 0.1 * out_xy[:, 0] + 5.0])
    pts = np.concatenate([inliers, outliers])

    plane = fit_ground_plane(pts, CFG, seed=3)
    oracle_n = ls_plane_oracle(inliers)
    angle = np.arccos(np.clip(abs(plane.normal @ oracle_n), -1, 1))
    assert angle < 1e-3


def ransac_reference(points, config, seed=0):
    """Per-hypothesis RANSAC loop: the reference for fit_ground_plane."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
    pts = points[order]
    rng = np.random.default_rng(seed)
    if n > config.max_score_points:
        score_idx = rng.choice(n, size=config.max_score_points, replace=False)
        score_pts = pts[np.sort(score_idx)]
    else:
        score_pts = pts

    best_count = -1
    best_plane = None
    for _ in range(config.iters):
        i, j, k = rng.choice(n, size=3, replace=False)
        a, b, c = pts[i], pts[j], pts[k]
        normal = np.cross(b - a, c - a)
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            continue
        normal = normal / norm
        offset = -float(normal @ a)
        count = int((np.abs(score_pts @ normal + offset)
                     <= config.inlier_threshold_m).sum())
        if count > best_count:
            best_count = count
            best_plane = (normal, offset)
    if best_plane is None:
        raise DegenerateInput("all RANSAC samples were collinear")

    normal, offset = best_plane
    inliers = pts[np.abs(pts @ normal + offset) <= config.inlier_threshold_m]
    if inliers.shape[0] >= 3:
        try:
            normal, offset = _least_squares_plane(inliers)
        except DegenerateInput:
            normal, offset = _canonicalize(normal, offset)
    else:
        normal, offset = _canonicalize(normal, offset)
    final_count = int((np.abs(points @ normal + offset)
                       <= config.inlier_threshold_m).sum())
    return GroundPlane(normal=normal, offset=offset, inlier_count=final_count)


def _tilted_with_outliers(seed):
    rng = np.random.default_rng(seed)
    n_in = int(rng.integers(30, 1500))
    n_out = int(rng.integers(0, n_in // 2 + 1))
    slope = rng.uniform(-0.3, 0.3, 2)
    xy = rng.uniform(-30, 30, (n_in, 2))
    z = xy @ slope + rng.uniform(-2, 2) + rng.normal(0, 0.05, n_in)
    outliers = rng.uniform(-30, 30, (n_out, 3))
    return np.concatenate([np.column_stack([xy, z]), outliers]), CFG


def _tied_layers(seed):
    """An integer grid: its parallel axis-aligned slices tie on count."""
    rng = np.random.default_rng(seed)
    side, n_layers = int(rng.integers(3, 7)), int(rng.integers(2, 5))
    g = np.arange(side, dtype=np.float64)
    x, y, z = np.meshgrid(g, g, np.arange(n_layers, dtype=np.float64),
                          indexing="ij")
    pts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    return pts[rng.permutation(len(pts))], CFG


def _mostly_collinear(seed):
    """Most samples fall on one line (or repeat a point) and are dropped."""
    rng = np.random.default_rng(seed)
    t = rng.integers(-20, 20, int(rng.integers(20, 60))).astype(np.float64)
    line = np.column_stack([t, 0.5 * t, np.zeros_like(t)])
    off_line = rng.uniform(-5, 5, (int(rng.integers(1, 4)), 3))
    return np.concatenate([line, off_line]), CFG


def _subsampled(seed):
    pts, _ = _tilted_with_outliers(seed)
    pts = np.concatenate([pts, pts[: len(pts) // 3]])  # duplicate points too
    cfg = RansacConfig(iters=64, max_score_points=max(3, len(pts) // 4))
    return pts, cfg


REFERENCE_CLOUDS = ([("tilted", _tilted_with_outliers, s) for s in range(16)]
                    + [("tied", _tied_layers, s) for s in range(16)]
                    + [("collinear", _mostly_collinear, s) for s in range(12)]
                    + [("subsample", _subsampled, s) for s in range(12)])


@pytest.mark.parametrize("make,seed", [c[1:] for c in REFERENCE_CLOUDS],
                         ids=[f"{k}{s}" for k, _, s in REFERENCE_CLOUDS])
def test_fit_matches_per_hypothesis_reference(make, seed):
    pts, cfg = make(seed)
    got = fit_ground_plane(pts, cfg, seed=seed)
    want = ransac_reference(pts, cfg, seed=seed)
    np.testing.assert_array_equal(got.normal, want.normal)
    assert got.offset == want.offset
    assert got.inlier_count == want.inlier_count


def test_tied_layers_keep_the_earliest_sample():
    # Here the horizontal layers score most, each the same count; the plane
    # returned is the layer of the first in-layer sample, not of the last.
    pts, _ = _tied_layers(0)
    plane = fit_ground_plane(pts, CFG, seed=0)
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    rng = np.random.default_rng(0)
    layers = [set(pts[order][rng.choice(len(pts), 3, replace=False), 2])
              for _ in range(CFG.iters)]
    in_layer = [next(iter(z)) for z in layers if len(z) == 1]
    assert len(set(in_layer)) > 1  # the tie is real
    np.testing.assert_allclose(plane.normal, [0.0, 0.0, 1.0], atol=1e-12)
    assert -plane.offset == pytest.approx(in_layer[0], abs=1e-12)


def _order_cases():
    rng = np.random.default_rng(21)
    grid = rng.integers(-2, 3, (500, 3)).astype(float)
    signed_zeros = np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 1.0], [0.0, -0.0, 0.0],
                             [-0.0, 0.0, -0.0], [-0.0, -1.0, 3.0], [1.0, 0.0, 0.0],
                             [0.0, 0.0, 0.0]])
    nans = rng.normal(size=(40, 3))
    nans[rng.integers(0, 40, 15), rng.integers(0, 3, 15)] = np.nan
    nans[5:9, 0] = np.nan
    return [
        ("random", rng.normal(size=(1000, 3))),
        ("integer_grid", grid),
        ("duplicate_rows", np.repeat(rng.normal(size=(30, 3)), 4, axis=0)[
            rng.permutation(120)]),
        ("signed_zeros", signed_zeros),
        ("nan", nans),
        ("empty", np.empty((0, 3))),
        ("one_point", np.array([[3.0, -1.0, 2.0]])),
    ]


@pytest.mark.parametrize("name, pts", _order_cases(),
                         ids=[name for name, _ in _order_cases()])
def test_lexicographic_order_equals_lexsort(name, pts):
    got = lexicographic_order(pts)
    want = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_two_points_degenerate():
    with pytest.raises(DegenerateInput):
        fit_ground_plane(np.array([[0.0, 0, 0], [1, 0, 0]]), CFG)


def test_collinear_points_degenerate():
    pts = np.column_stack([np.linspace(0, 5, 50), np.zeros(50), np.zeros(50)])
    with pytest.raises(DegenerateInput, match="collinear"):
        fit_ground_plane(pts, CFG, seed=0)
    with pytest.raises(DegenerateInput, match="collinear"):
        ransac_reference(pts, CFG, seed=0)


def test_fit_invariant_to_point_order():
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(-5, 5, (200, 2)),
                           rng.normal(0, 0.02, 200)])
    a = fit_ground_plane(pts, CFG, seed=9)
    b = fit_ground_plane(pts[rng.permutation(200)], CFG, seed=9)
    np.testing.assert_array_equal(a.normal, b.normal)
    assert a.offset == b.offset


def test_segment_ground_threshold():
    plane = GroundPlane(normal=np.array([0.0, 0, 1]), offset=0.0, inlier_count=0)
    pts = np.array([[0.0, 0, 0], [0, 0, 0.3]])
    mask = segment_ground(pts, plane, 0.2)
    assert mask.tolist() == [True, False]


def test_segment_ground_matches_bruteforce_distance():
    rng = np.random.default_rng(2)
    n = np.array([0.3, -0.2, 0.9])
    n /= np.linalg.norm(n)
    plane = GroundPlane(normal=n, offset=-0.7, inlier_count=0)
    pts = rng.uniform(-10, 10, (500, 3))
    expected = np.array([abs(n @ p - 0.7) <= 0.25 for p in pts])
    np.testing.assert_array_equal(segment_ground(pts, plane, 0.25), expected)


def budgeted_tiles(points, tile_size, max_tiles, T):
    """Tiles after the ground budget, in the form tiling once returned:
    (kept tiles as SceneElements, each point's tile index or -1).

    ``tile_ground`` boxes every occupied cell and ``assign_token_ids``
    applies the budget, with no agent or open-set candidates.
    """
    boxes, counts, cell_of_point = tile_ground(points, tile_size, T)
    _, _, keep = assign_token_ids(
        np.empty(0, dtype=np.int64), np.zeros((0, T, 7)),
        np.zeros((0, T), dtype=bool), np.empty(0), counts,
        PipelineConfig(T=T, n_elem_ground=max_tiles))
    slot_of_cell = np.full(counts.size, -1, dtype=np.int64)
    slot_of_cell[keep] = np.arange(keep.size)
    elements = [SceneElement(token_id=-1, kind=KIND_GROUND, boxes=boxes[cell],
                             frame_valid=np.ones(T, dtype=bool),
                             source_id=int(cell)) for cell in keep]
    return elements, slot_of_cell[cell_of_point]


def test_tile_counts_and_cells():
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(-40, 40, (500, 2)), np.zeros(500)])
    boxes, counts, cell_of_point = tile_ground(pts, 10.0, T=2)
    assert boxes.shape == (counts.size, 2, 7) and counts.dtype == np.int64
    np.testing.assert_array_equal(np.bincount(cell_of_point), counts)
    np.testing.assert_array_equal(
        boxes[cell_of_point, 0, :2],
        (tile_cells(pts[:, :2], 10.0) + 0.5) * 10.0)


def test_tile_single_point():
    elements, idx = budgeted_tiles(np.array([[3.0, 4.0, 0.0]]), 10.0, 256, T=3)
    assert len(elements) == 1
    np.testing.assert_allclose(elements[0].boxes[0, :3], [5.0, 5.0, 0.0])
    assert (elements[0].boxes[:, 3:] == 0).all()
    assert elements[0].frame_valid.all()
    assert idx.tolist() == [0]


def test_tile_bands_match_bruteforce_enumeration():
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(0, 25, 400), rng.uniform(0, 5, 400),
                           np.zeros(400)])
    elements, idx = budgeted_tiles(pts, 10.0, 256, T=1)
    # oracle: enumerate occupied cells directly
    cells = {(int(np.floor(x / 10)), int(np.floor(y / 10)))
             for x, y in pts[:, :2]}
    assert len(elements) == len(cells) == 3
    centers = sorted(tuple(e.boxes[0, :2]) for e in elements)
    assert centers == sorted(((cx + 0.5) * 10, (cy + 0.5) * 10)
                             for cx, cy in cells)


def test_tile_empty():
    elements, idx = budgeted_tiles(np.empty((0, 3)), 10.0, 256, T=2)
    assert elements == [] and idx.size == 0


def test_tiles_disjoint_and_cover():
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.uniform(-40, 40, (2000, 2)), np.zeros(2000)])
    elements, idx = budgeted_tiles(pts, 10.0, 256, T=1)
    assert (idx >= 0).all()  # under budget: every point belongs to one tile
    counts = np.bincount(idx, minlength=len(elements))
    assert counts.sum() == 2000


def test_tile_budget_keeps_most_points():
    # two dense cells and three sparse ones, budget 2
    pts = np.concatenate([
        np.tile([[1.0, 1.0, 0.0]], (50, 1)),
        np.tile([[11.0, 1.0, 0.0]], (40, 1)),
        np.tile([[21.0, 1.0, 0.0]], (3, 1)),
        np.tile([[31.0, 1.0, 0.0]], (2, 1)),
        np.tile([[41.0, 1.0, 0.0]], (1, 1)),
    ])
    elements, idx = budgeted_tiles(pts, 10.0, 2, T=1)
    assert len(elements) == 2
    kept_centers = {tuple(e.boxes[0, :2]) for e in elements}
    assert kept_centers == {(5.0, 5.0), (15.0, 5.0)}
    assert (idx[90:] == -1).all()


def test_grid_equivariance_under_tile_multiple_shift():
    rng = np.random.default_rng(6)
    pts = np.column_stack([rng.uniform(0, 30, (300, 2)), np.zeros(300)])
    base, _ = budgeted_tiles(pts, 10.0, 256, T=1)
    shifted, _ = budgeted_tiles(pts + np.array([20.0, -10.0, 0.0]), 10.0, 256, T=1)
    base_centers = sorted(tuple(e.boxes[0, :2]) for e in base)
    shift_centers = sorted((cx + 20.0, cy - 10.0) for cx, cy in base_centers)
    assert shift_centers == sorted(tuple(e.boxes[0, :2]) for e in shifted)


def tile_reference(points, tile_size, max_tiles, T):
    """tile_ground grouped by np.unique(axis=0): the reference."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    cells = tile_cells(points[:, :2], tile_size)
    uniq, inverse, counts = np.unique(cells, axis=0, return_inverse=True,
                                      return_counts=True)
    keep = np.arange(uniq.shape[0])
    if uniq.shape[0] > max_tiles:
        keep = np.sort(np.argsort(-counts, kind="stable")[:max_tiles])
    slot_of_cell = np.full(uniq.shape[0], -1, dtype=np.int64)
    slot_of_cell[keep] = np.arange(keep.shape[0])
    mean_z = np.bincount(inverse, weights=points[:, 2],
                         minlength=uniq.shape[0]) / counts
    elements = []
    for cell_idx in keep:
        cx, cy = uniq[cell_idx]
        row = np.array([(cx + 0.5) * tile_size, (cy + 0.5) * tile_size,
                        mean_z[cell_idx], 0, 0, 0, 0])
        elements.append(SceneElement(token_id=-1, kind=KIND_GROUND,
                                     boxes=np.tile(row, (T, 1)),
                                     frame_valid=np.ones(T, dtype=bool),
                                     source_id=int(cell_idx)))
    return elements, slot_of_cell[inverse]


def _tile_cases():
    rng = np.random.default_rng(11)
    spread = np.column_stack([rng.uniform(-75, 75, (3000, 2)),
                              rng.normal(0, 0.1, 3000)])
    # Twelve cells of exactly 5 points each plus two of 9: a budget of 6
    # keeps both big cells and the four lexicographically first small ones.
    centers = [(x, y) for x in (-25.0, -5.0, 15.0) for y in (-35.0, 5.0, 25.0, 45.0)]
    tied = np.concatenate(
        [np.column_stack([np.full((5, 2), c) + rng.uniform(-4, 4, (5, 2)),
                          rng.normal(0, 0.1, 5)]) for c in centers]
        + [np.column_stack([np.full((9, 2), (-45.0, 15.0)), np.zeros(9)]),
           np.column_stack([np.full((9, 2), (35.0, -15.0)), np.ones(9)])])
    far = np.array([[-1e15, 1e15, 0.0], [1e15, -1e15, 1.0], [1e15, 1e15, 2.0],
                    [-1e15, -1e15, 3.0], [1e15, -1e15, 4.0], [3.0, -4.0, 5.0]])
    return [("spread", spread[rng.permutation(3000)], 256),
            ("spread_over_budget", spread, 17),
            ("tied_over_budget", tied[rng.permutation(len(tied))], 6),
            ("far_apart", far, 256),
            ("far_apart_over_budget", far, 2),
            ("one_cell", np.tile([[-0.5, -0.5, 1.0]], (4, 1)), 1)]


@pytest.mark.parametrize("name,pts,max_tiles", _tile_cases(),
                         ids=[c[0] for c in _tile_cases()])
def test_tile_matches_unique_reference(name, pts, max_tiles):
    got, got_idx = budgeted_tiles(pts, 10.0, max_tiles, T=3)
    want, want_idx = tile_reference(pts, 10.0, max_tiles, T=3)
    np.testing.assert_array_equal(got_idx, want_idx)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.token_id, g.kind, g.source_id) == (w.token_id, w.kind, w.source_id)
        np.testing.assert_array_equal(g.boxes, w.boxes)
        np.testing.assert_array_equal(g.frame_valid, w.frame_valid)
    if max_tiles < len(np.unique(tile_cells(pts[:, :2], 10.0), axis=0)):
        assert (got_idx == -1).any()
