"""Ground-plane fitting, segmentation, and tiling into ground elements.

One plane is fit per scene with RANSAC on the lowest supported point of each
10 m xy cell, and refined by least squares over every point near it.  Ground
points from all frames are merged before tiling, so a tile is a single static
element whose box row repeats across frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, RansacConfig
from .errors import DegenerateInput

# Edge of the xy cells whose lowest points the plane is fit on, in metres.  A
# cloud less than three cells wide is cut into cells a third of its width.
_CELL_M = 10.0

# Points of a cell, itself included, that must lie within the inlier threshold
# above a point for it to stand for the cell.  A lower point with fewer is a
# stray below the ground (multipath or sensor noise) and is passed over.
_MIN_SUPPORT = 3

# Float64 distances per scoring block (2 MB): as many hypotheses are scored at
# once as fit.  The lowest-point set holds one point per occupied cell, a few
# hundred on the synthetic scenes, so all hypotheses fit in one block there; a
# 1 km square scene scores 26 at a time.  On a 2-vCPU x86 VM with 2 MB of L2
# per core, 12.8 MB blocks made a 50 000-point scoring ~25 % slower.
_SCORE_BUFFER = 1 << 18


@dataclass(frozen=True)
class GroundPlane:
    """Plane {p : n.p + d = 0} with unit normal n, n_z >= 0."""

    normal: np.ndarray
    offset: float
    inlier_count: int


def _canonicalize(normal: np.ndarray, offset: float) -> tuple[np.ndarray, float]:
    norm = np.linalg.norm(normal)
    normal = normal / norm
    offset = offset / norm
    if normal[2] < 0:
        normal, offset = -normal, -offset
    return normal, offset


def _least_squares_plane(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Total-least-squares plane: smallest singular vector of the centered cloud."""
    centroid = points.mean(axis=0)
    _, sing, vt = np.linalg.svd(points - centroid, full_matrices=False)
    if sing[-2] < 1e-12:
        raise DegenerateInput("points are collinear; plane is underdetermined")
    normal = vt[-1]
    offset = -float(normal @ centroid)
    return _canonicalize(normal, offset)


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[i] @ y[i]`` per row, rounded as the 1-D product of each row pair.

    A stacked (1, 3) @ (3, 1) matmul runs the same inner product per row as
    ``x[i] @ y[i]`` and ``np.linalg.norm``; a sum over ``x * y`` can differ
    from them in the last bit.
    """
    return (x[:, None, :] @ y[:, :, None]).reshape(-1)


def lexicographic_order(points: np.ndarray) -> np.ndarray:
    """``np.lexsort((z, y, x))`` of an (N, 3) array, sorting only tied x.

    One stable argsort on x places every point whose x is unique; a lexsort
    over (x, y, z) then reorders just the positions in runs of tied x.  Ties
    are found as ``~(xs[1:] > xs[:-1])``, so runs of ±0.0 and of NaN go to the
    lexsort too and come out as it orders them.
    """
    x = points[:, 0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    tie = ~(xs[1:] > xs[:-1])
    if tie.any():
        in_run = np.zeros(x.size, dtype=bool)
        in_run[1:] = tie
        in_run[:-1] |= tie
        pos = np.flatnonzero(in_run)
        sub = order[pos]
        order[pos] = sub[np.lexsort((points[sub, 2], points[sub, 1], x[sub]))]
    return order


def _sort_cells(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal (cx, cy) cells: their stable lexicographic order, and a
    flag on each position of that order where a new cell begins.

    The two keys are sorted as they are; packing them into one int64 would
    overflow for far-apart cells.
    """
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    sorted_cells = cells[order]
    run_start = np.empty(cells.shape[0], dtype=bool)
    run_start[0] = True
    np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1, out=run_start[1:])
    return order, run_start


def _lowest_points(points: np.ndarray, cell_m: float,
                  threshold: float) -> np.ndarray:
    """The lowest supported point of each occupied ``cell_m`` xy cell.

    Cells come in lexicographic (cx, cy) order.  A point is supported when
    at least ``_MIN_SUPPORT`` of its cell's points, itself included, lie in
    z within ``threshold`` above it; a cell without one keeps its lowest
    point.  Among a cell's points at the chosen height the least x, then
    the least y wins, so the set does not depend on input order.

    The cells are grouped by one sort, and one count per cell tells
    whether its least z is supported.  Only cells where it is not have
    their points sorted by z, to find the lowest supported height.  Each
    key then keeps the points that equal their cell's choice of it; on
    flat ground most of a cell's points tie on z, and this costs about half
    a five-key lexsort.
    """
    idx, run_start = _sort_cells(tile_cells(points[:, :2], cell_m))
    starts = np.flatnonzero(run_start)
    cell = np.cumsum(run_start) - 1
    z = points[idx, 2]
    level = np.minimum.reduceat(z, starts)
    support = np.add.reduceat(z <= level[cell] + threshold, starts,
                              dtype=np.int64)
    weak = support < _MIN_SUPPORT
    if weak.any():
        # Sort the weak cells' points by (cell, z): the point at position p
        # is supported iff the one _MIN_SUPPORT - 1 places on is in its cell
        # and within the threshold.  A tie's first point counts the most.
        sub = np.flatnonzero(weak[cell])
        sub = sub[np.lexsort((z[sub], cell[sub]))]
        k = _MIN_SUPPORT - 1
        zs, cs = z[sub[:-k]], cell[sub[:-k]]
        ok = (cell[sub[k:]] == cs) & (z[sub[k:]] <= zs + threshold)
        zs, cs = zs[ok], cs[ok]
        first = np.flatnonzero(np.diff(cs, prepend=-1))
        level[cs[first]] = zs[first]
    keep = z == level[cell]
    idx, cell = idx[keep], cell[keep]
    for axis in (0, 1):
        key = points[idx, axis]
        starts = np.flatnonzero(np.diff(cell, prepend=-1))
        keep = key == np.minimum.reduceat(key, starts)[cell]
        idx, cell = idx[keep], cell[keep]
    # A cell's remaining points are copies of one point: keep the first.
    return points[idx[np.diff(cell, prepend=-1) > 0]]


def fit_ground_plane(points: np.ndarray, config: RansacConfig,
                     seed: int = 0) -> GroundPlane:
    """RANSAC plane fit on each cell's lowest point, deterministic under ``seed``.

    Hypotheses are drawn from, and scored on, the lowest supported point of
    each occupied xy cell (``_lowest_points``, the "lowest point
    representative" of Zermas et al. 2017).  Objects stand on the ground,
    so a cell's lowest point is ground wherever the cell shows any, however
    many of the cloud's points the objects hold.  A point below the ground
    with fewer than ``_MIN_SUPPORT`` points near it is passed over, so
    isolated strays do not take the ground's place; a cell that holds only
    strays still gives one.  The set's canonical order makes the result
    independent of input order.

    The cells are ``_CELL_M`` wide: wide enough that most cells show ground
    between objects, and 5 and 10 m cells give the same planes on the
    synthetic workloads.  A cloud less than three cells wide in x and in y
    is cut into cells a third of its larger width instead, so it still
    fills three or more; a cloud whose points fill fewer than three cells
    raises ``DegenerateInput``.

    The ``config.iters`` 3-point samples are drawn at once and their normals
    come from one row-wise cross product; collinear samples are dropped.
    The rest are scored in blocks by one stacked matrix-vector product,
    each distance rounded as when its hypothesis is scored alone, so the
    winner does not depend on the blocking.  The winner (most inliers,
    earliest sample on ties; Fischler & Bolles 1981) is refined by least
    squares over every point of the cloud within the threshold, taken in
    lexicographic order.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    if n < 3:
        raise DegenerateInput(f"need at least 3 points to fit a plane, got {n}")

    thr = config.inlier_threshold_m
    width = float(max(np.ptp(points[:, 0]), np.ptp(points[:, 1])))
    if not width > 0:
        raise DegenerateInput("points share one xy position; they are collinear")
    cell_m = min(_CELL_M, width / 3)
    low = _lowest_points(points, cell_m, thr)
    m = low.shape[0]
    if m < 3:
        raise DegenerateInput(
            f"points fill {m} cell(s) of {cell_m:g} m; fewer than 3 lowest "
            "points are collinear, and the plane is underdetermined")

    # Three distinct indices per sample, as drawn without replacement: take
    # i < m, j < m - 1 and k < m - 2, then step j past i and k past both.
    rng = np.random.default_rng(seed)
    i, j, k = rng.integers(0, [m, m - 1, m - 2], size=(config.iters, 3)).T
    j += j >= i
    k += k >= np.minimum(i, j)
    k += k >= np.maximum(i, j)
    a, b, c = low[i], low[j], low[k]
    normals = np.cross(b - a, c - a)
    norms = np.sqrt(_row_dots(normals, normals))
    kept = np.flatnonzero(norms >= 1e-12)  # drop collinear samples
    if kept.size == 0:
        raise DegenerateInput("all RANSAC samples were collinear")
    normals = normals[kept] / norms[kept, None]
    offsets = -_row_dots(normals, a[kept])

    counts = np.empty(kept.size, dtype=np.int64)
    block = max(1, _SCORE_BUFFER // m)
    for lo in range(0, kept.size, block):
        hi = min(lo + block, kept.size)
        dist = np.matmul(low, normals[lo:hi, :, None])[:, :, 0]
        dist += offsets[lo:hi, None]
        np.abs(dist, out=dist)
        counts[lo:hi] = np.count_nonzero(dist <= thr, axis=1)

    best = int(np.argmax(counts))  # first maximum: earliest sample wins ties
    normal, offset = normals[best], float(offsets[best])
    inliers = points[np.abs(points @ normal + offset) <= thr]
    if inliers.shape[0] >= 3:
        try:
            normal, offset = _least_squares_plane(
                inliers[lexicographic_order(inliers)])
        except DegenerateInput:
            normal, offset = _canonicalize(normal, offset)
    else:
        normal, offset = _canonicalize(normal, offset)

    final_count = int((np.abs(points @ normal + offset) <= thr).sum())
    return GroundPlane(normal=normal, offset=offset, inlier_count=final_count)


def segment_ground(points: np.ndarray, plane: GroundPlane,
                   threshold: float) -> np.ndarray:
    """Boolean mask: true iff the point lies within ``threshold`` of the plane."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return np.abs(points @ plane.normal + plane.offset) <= threshold


def tile_cells(points_xy: np.ndarray, tile_size: float) -> np.ndarray:
    """Integer (cx, cy) cell index per point; cells are [k*s, (k+1)*s)."""
    return np.floor(points_xy / tile_size).astype(np.int64)


def tile_ground(points: np.ndarray, tile_size: float,
                T: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tile merged ground points into one box per occupied cell.

    The grid is anchored at the world origin.  Cells are ordered
    lexicographically by (cx, cy) index.  Each cell's box sits at (cell
    center x, cell center y, mean z of its points) with zero size and
    heading, repeated in every frame; the element budget is applied later,
    by ``pipeline.assign_token_ids``.

    Returns ``(boxes, counts, cell_of_point)``: (n_cells, T, 7) boxes,
    (n_cells,) int64 point counts, and each point's cell.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    if n == 0:
        return (np.zeros((0, T, 7)), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64))

    cells = tile_cells(points[:, :2], tile_size)
    order, run_start = _sort_cells(cells)
    starts = np.flatnonzero(run_start)
    uniq = cells[order[starts]]
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(run_start) - 1
    counts = np.diff(starts, append=n)

    mean_z = np.bincount(inverse, weights=points[:, 2],
                         minlength=uniq.shape[0]) / counts
    boxes = np.zeros((uniq.shape[0], T, 7))
    boxes[:, :, :2] = ((uniq + 0.5) * tile_size)[:, None, :]
    boxes[:, :, 2] = mean_z[:, None]
    return boxes, counts, inverse


def fit_and_segment(points: np.ndarray,
                    config: PipelineConfig) -> tuple[GroundPlane, np.ndarray]:
    """Fit one plane on all frames' points together; mask every point."""
    plane = fit_ground_plane(points, config.ransac, seed=config.seed)
    return plane, segment_ground(points, plane, config.ransac.inlier_threshold_m)
