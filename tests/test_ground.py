import numpy as np
import pytest

from scenetok import fit_ground_plane, segment_ground, tile_ground
from scenetok.bundle import KIND_GROUND, SceneElement
from scenetok.config import PipelineConfig, RansacConfig
from scenetok.decompose import LABEL_GROUND
from scenetok.errors import DegenerateInput
from scenetok.ground import (_CELL_M, _MIN_SUPPORT, GroundPlane,
                             _canonicalize, _least_squares_plane,
                             _lowest_points, fit_and_segment,
                             lexicographic_order, tile_cells)
from scenetok.pipeline import assign_token_ids
from scenetok.synthetic import SceneSpec, generate_scene

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


def reference_cell_m(points):
    """``_CELL_M``, or a third of the larger xy width of a narrower cloud."""
    return min(_CELL_M, max(np.ptp(points[:, 0]), np.ptp(points[:, 1])) / 3)


def lowest_points_reference(points, threshold):
    """Each occupied cell's lowest supported point, by a loop over cells;
    cells in lexicographic (cx, cy) order.

    A cell's points are taken in (z, x, y) order, and the first with at
    least ``_MIN_SUPPORT`` points of the cell in [z, z + threshold] stands
    for it; if none has, the first point does.
    """
    cell_m = reference_cell_m(points)
    by_cell = {}
    for p in points:
        key = (int(np.floor(p[0] / cell_m)), int(np.floor(p[1] / cell_m)))
        by_cell.setdefault(key, []).append(p)
    low = []
    for key in sorted(by_cell):
        pts = sorted(by_cell[key], key=lambda p: (p[2], p[0], p[1]))
        z = np.array([p[2] for p in pts])
        supported = [p for p, zi in zip(pts, z)
                     if np.count_nonzero((z >= zi) & (z <= zi + threshold))
                     >= _MIN_SUPPORT]
        low.append((supported or pts)[0])
    return np.array(low).reshape(-1, 3)


def reference_hypotheses(points, config, seed=0):
    """Every non-collinear RANSAC sample on the lowest-point set, in draw
    order: ``(count, normal, offset)``, by a per-hypothesis loop."""
    low = lowest_points_reference(points, config.inlier_threshold_m)
    m = low.shape[0]
    if m < 3:
        raise DegenerateInput("fewer than 3 cells: lowest points are collinear")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, [m, m - 1, m - 2], size=(config.iters, 3))

    hypotheses = []
    for draw in draws:
        pool = list(range(m))  # draw r picks the r-th index not yet drawn
        i, j, k = (pool.pop(r) for r in draw)
        a, b, c = low[i], low[j], low[k]
        normal = np.cross(b - a, c - a)
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            continue
        normal = normal / norm
        offset = -float(normal @ a)
        count = int((np.abs(low @ normal + offset)
                     <= config.inlier_threshold_m).sum())
        hypotheses.append((count, normal, offset))
    if not hypotheses:
        raise DegenerateInput("all RANSAC samples were collinear")
    return hypotheses


def ransac_reference(points, config, seed=0):
    """Per-hypothesis RANSAC loop on each cell's lowest point: the reference
    for fit_ground_plane."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    best_count = -1
    for count, normal, offset in reference_hypotheses(points, config, seed):
        if count > best_count:
            best_count, best_plane = count, (normal, offset)

    normal, offset = best_plane
    inliers = points[np.abs(points @ normal + offset) <= config.inlier_threshold_m]
    inliers = inliers[np.lexsort((inliers[:, 2], inliers[:, 1], inliers[:, 0]))]
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


def _stacked_layers(bottom, n_layers):
    """Unit-spaced layers over a grid of columns, one column per cell;
    column (i, j) stands at its cell's center from ``bottom[i, j]`` up."""
    g = (np.arange(bottom.shape[0]) + 0.5) * _CELL_M
    x, y, z = np.meshgrid(g, g, np.arange(n_layers, dtype=np.float64),
                          indexing="ij")
    z = z + bottom[:, :, None]
    return np.column_stack([x.ravel(), y.ravel(), z.ravel()])


def _tied_levels(seed):
    """Half the columns stand a meter above the rest: the two horizontal
    planes of their lowest points tie on count.  The cloud is over three
    cells wide, so each column keeps its cell."""
    rng = np.random.default_rng(seed)
    side, n_layers = 2 * int(rng.integers(3, 5)), int(rng.integers(1, 4))
    bottom = rng.permutation(np.repeat([0.0, 1.0], side * side // 2))
    pts = _stacked_layers(bottom.reshape(side, side), n_layers)
    pts[:, :2] += rng.uniform(-4, 4, (len(pts), 2))
    return pts[rng.permutation(len(pts))], CFG


def _mostly_collinear(seed):
    """Most samples fall on one line (or repeat a point) and are dropped.
    The off-line points lie where x and y differ in sign, in cells that the
    line y = x / 2 does not cross, so each cell they fill gives one."""
    rng = np.random.default_rng(seed)
    t = rng.integers(-20, 20, int(rng.integers(20, 60))).astype(np.float64)
    line = np.column_stack([t, 0.5 * t, np.zeros_like(t)])
    off_line = rng.uniform(-5, 5, (int(rng.integers(1, 4)), 3))
    off_line[:, 1] = -np.copysign(off_line[:, 1], off_line[:, 0])
    return np.concatenate([line, off_line]), CFG


def _flat_sheet(seed):
    """Points of a z = 0 integer lattice, some repeated: within a cell most
    points tie on z, many on x too, and copies of a point on all three."""
    rng = np.random.default_rng(seed)
    xy = rng.integers(-12, 13, (int(rng.integers(50, 400)), 2))
    sheet = np.column_stack([xy, np.zeros(len(xy))])
    pts = np.concatenate([sheet, sheet[: len(sheet) // 2],
                          rng.uniform(-12, 12, (20, 3)) + [0, 0, 13]])
    return pts[rng.permutation(len(pts))], CFG


REFERENCE_CLOUDS = ([("tilted", _tilted_with_outliers, s) for s in range(16)]
                    + [("tied", _tied_levels, s) for s in range(16)]
                    + [("collinear", _mostly_collinear, s) for s in range(12)]
                    + [("flat", _flat_sheet, s) for s in range(8)])


@pytest.mark.parametrize("make,seed", [c[1:] for c in REFERENCE_CLOUDS],
                         ids=[f"{k}{s}" for k, _, s in REFERENCE_CLOUDS])
def test_fit_matches_per_hypothesis_reference(make, seed):
    pts, cfg = make(seed)
    thr = cfg.inlier_threshold_m
    np.testing.assert_array_equal(
        _lowest_points(pts, reference_cell_m(pts), thr),
        lowest_points_reference(pts, thr))
    got = fit_ground_plane(pts, cfg, seed=seed)
    want = ransac_reference(pts, cfg, seed=seed)
    np.testing.assert_array_equal(got.normal, want.normal)
    assert got.offset == want.offset
    assert got.inlier_count == want.inlier_count


def test_stacked_layers_fit_the_bottom_layer():
    # Every layer holds as many points as the others, but only the bottom
    # one holds a cell's lowest point.
    pts = _stacked_layers(np.full((5, 5), 2.0), n_layers=4)
    plane = fit_ground_plane(pts[np.random.default_rng(0).permutation(100)],
                             CFG, seed=0)
    np.testing.assert_allclose(plane.normal, [0.0, 0.0, 1.0], atol=1e-12)
    assert -plane.offset == pytest.approx(2.0, abs=1e-12)
    assert plane.inlier_count == 25


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


def _flat_with_strays(n_ground, n_strays, seed, width=60.0):
    """A z = 0 sheet over [0, width]^2 with isolated points 0.5-3 m below."""
    rng = np.random.default_rng(seed)
    sheet = np.column_stack([rng.uniform(0, width, (n_ground, 2)),
                             np.zeros(n_ground)])
    strays = np.column_stack([rng.uniform(0, width, (n_strays, 2)),
                              rng.uniform(-3.0, -0.5, n_strays)])
    return np.concatenate([sheet, strays])


def _order_invariance_clouds():
    rng = np.random.default_rng(5)
    g = np.arange(-15.0, 15.0)
    x, y = np.meshgrid(g, g, indexing="ij")
    return [("noisy", np.column_stack([rng.uniform(-5, 5, (200, 2)),
                                       rng.normal(0, 0.02, 200)])),
            ("flat_sheet", np.column_stack([x.ravel(), y.ravel(),
                                            np.zeros(x.size)])),
            ("strays", np.round(_flat_with_strays(1500, 60, seed=5), 1))]


@pytest.mark.parametrize("name, pts", _order_invariance_clouds(),
                         ids=[name for name, _ in _order_invariance_clouds()])
def test_fit_invariant_to_point_order(name, pts):
    shuffled = pts[np.random.default_rng(5).permutation(len(pts))]
    cell_m, thr = reference_cell_m(pts), CFG.inlier_threshold_m
    np.testing.assert_array_equal(_lowest_points(pts, cell_m, thr),
                                  _lowest_points(shuffled, cell_m, thr))
    a = fit_ground_plane(pts, CFG, seed=9)
    b = fit_ground_plane(shuffled, CFG, seed=9)
    np.testing.assert_array_equal(a.normal, b.normal)
    assert a.offset == b.offset


@pytest.mark.parametrize("seed", range(16))
def test_tied_levels_keep_the_earliest_sample(seed):
    # The two level planes share the top count, and the plane returned is
    # the level of the earliest sample among those at the top.
    pts, cfg = _tied_levels(seed)
    hypotheses = reference_hypotheses(pts, cfg, seed=seed)
    top = max(count for count, _, _ in hypotheses)
    levels = [-offset / normal[2] for count, normal, offset in hypotheses
              if count == top]
    assert {round(level, 9) for level in levels} == {0.0, 1.0}
    plane = fit_ground_plane(pts, cfg, seed=seed)
    np.testing.assert_allclose(plane.normal, [0.0, 0.0, 1.0], atol=1e-12)
    assert -plane.offset == pytest.approx(levels[0], abs=1e-9)


@pytest.mark.parametrize("seed", range(16))
def test_tilted_cloud_with_outliers_fits_the_ground(seed):
    # A quarter to a third of these clouds' points are outliers spread over
    # 60 m of z; in most cells the lowest point is one of them.
    pts, cfg = _tilted_with_outliers(seed)
    n_in = int(np.random.default_rng(seed).integers(30, 1500))  # ground first
    plane = fit_ground_plane(pts, cfg, seed=seed)
    oracle_n = ls_plane_oracle(pts[:n_in])
    assert np.arccos(min(1.0, abs(plane.normal @ oracle_n))) < 1e-3


def test_strays_below_flat_ground_are_passed_over():
    pts = _flat_with_strays(4000, 40, seed=0)
    low = _lowest_points(pts, _CELL_M, CFG.inlier_threshold_m)
    assert low.shape == (36, 3) and (low[:, 2] == 0.0).all()
    plane = fit_ground_plane(pts, CFG, seed=0)
    np.testing.assert_array_equal(plane.normal, [0.0, 0.0, 1.0])
    assert plane.offset == 0.0 and plane.inlier_count == 4000


def test_support_counts_points_at_the_threshold():
    # 0.0 + 0.2 == 0.2 in float64: the point at 0.0 has three points in
    # [0.0, 0.2], so it stands for the cell instead of the stray at -1.
    pts = np.array([[1.0, 1.0, -1.0], [2.0, 1.0, 0.0], [3.0, 1.0, 0.1],
                    [4.0, 1.0, 0.2]])
    np.testing.assert_array_equal(_lowest_points(pts, _CELL_M, 0.2),
                                  [[2.0, 1.0, 0.0]])


@pytest.mark.parametrize("shift", [0.0, 4.5, -7.25])
def test_scene_narrower_than_three_cells_fits_wherever_it_sits(shift):
    # A 9 x 9 m scene: cells of 3 m, a third of its width, cut it into
    # nine or more wherever the grid falls, and clutter above the ground
    # does not move the plane.
    rng = np.random.default_rng(3)
    ground = np.column_stack([rng.uniform(0.5, 9.5, (900, 2)),
                              np.full(900, 0.25)])
    clutter = np.column_stack([rng.uniform(2.0, 7.0, (300, 2)),
                               rng.uniform(0.8, 2.0, 300)])
    pts = np.concatenate([ground, clutter]) + [shift, shift, 0.0]
    assert len(np.unique(tile_cells(pts[:, :2], 3.0), axis=0)) >= 9
    plane = fit_ground_plane(pts, CFG, seed=0)
    np.testing.assert_array_equal(plane.normal, [0.0, 0.0, 1.0])
    assert plane.offset == -0.25 and plane.inlier_count == 900


# The crowded_scene workload of perfbench/workloads.py: ground is 13 % of
# its points, under a dense layer of agents and clutter.
CROWDED_SPEC = dict(n_agents=150, n_clutter=450, T=11, area_m=220.0,
                    cameras=2, D=256, ground_points_per_frame=2000,
                    agent_points=30, clutter_points=20, min_separation_m=4.0,
                    feature_res=32)


@pytest.mark.parametrize("seed", [1, 7])
def test_crowded_scene_ground_matches_truth(seed):
    scene = generate_scene(seed, SceneSpec(**CROWDED_SPEC))
    _, mask = fit_and_segment(scene.bundle.points, PipelineConfig())
    truth = np.concatenate(scene.truth.labels) == LABEL_GROUND
    hits = int((mask & truth).sum())
    assert hits / truth.sum() == 1.0  # recall
    assert hits / mask.sum() == 1.0  # precision


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
