"""Ground-plane fitting, segmentation, and tiling into ground elements.

One plane is fit per scene with RANSAC and refined by least squares over
its inliers.  Ground points from all frames are merged before tiling, so a
tile is a single static element whose box row repeats across frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, RansacConfig
from .errors import DegenerateInput

# Float64 distances per scoring block (2 MB): as many hypotheses are scored at
# once as fit, 5 at the default ``max_score_points`` of 50 000.  On a 2-vCPU
# x86 VM with 2 MB of L2 per core, blocks of 32 (12.8 MB) made the full-size
# scene's fit ~25 % slower.
_SCORE_BUFFER = 1 << 18


@dataclass(frozen=True)
class GroundPlane:
    """Plane {p : n.p + d = 0} with unit normal n, n_z >= 0."""

    normal: np.ndarray
    offset: float
    inlier_count: int

    def distances(self, points: np.ndarray) -> np.ndarray:
        """Unsigned point-plane distances, (N,)."""
        return np.abs(points @ self.normal + self.offset)


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


def fit_ground_plane(points: np.ndarray, config: RansacConfig,
                     seed: int = 0) -> GroundPlane:
    """RANSAC plane fit, deterministic under ``seed``.

    Hypotheses are 3-point samples drawn from a lexicographically sorted
    copy of the cloud, so the result does not depend on input ordering.
    All ``config.iters`` samples are drawn first; their normals come from
    one row-wise cross product, and collinear samples are dropped.  The rest
    are scored a block at a time: one stacked matrix-vector product gives a
    (block, points) distance buffer, which is offset, made absolute
    and counted against the threshold in place.  Each distance is rounded
    exactly as when the hypothesis is scored on its own, so the count, and
    the winner, do not depend on the blocking.  This is the breadth-first
    order of preemptive RANSAC (Nister 2003) without its early exit: every
    hypothesis is scored on every point.  The winning hypothesis (most
    inliers, earliest sample on ties) is refined by a least-squares fit
    over its inliers.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    if n < 3:
        raise DegenerateInput(f"need at least 3 points to fit a plane, got {n}")

    pts = points[lexicographic_order(points)]
    rng = np.random.default_rng(seed)

    if n > config.max_score_points:
        score_idx = rng.choice(n, size=config.max_score_points, replace=False)
        score_pts = pts[np.sort(score_idx)]
    else:
        score_pts = pts

    samples = np.array([rng.choice(n, size=3, replace=False)
                        for _ in range(config.iters)])
    a, b, c = pts[samples[:, 0]], pts[samples[:, 1]], pts[samples[:, 2]]
    normals = np.cross(b - a, c - a)
    norms = np.sqrt(_row_dots(normals, normals))
    kept = np.flatnonzero(norms >= 1e-12)  # drop collinear samples
    if kept.size == 0:
        raise DegenerateInput("all RANSAC samples were collinear")
    normals = normals[kept] / norms[kept, None]
    offsets = -_row_dots(normals, a[kept])

    thr = config.inlier_threshold_m
    counts = np.empty(kept.size, dtype=np.int64)
    block = max(1, _SCORE_BUFFER // score_pts.shape[0])
    for lo in range(0, kept.size, block):
        hi = min(lo + block, kept.size)
        dist = np.matmul(score_pts, normals[lo:hi, :, None])[:, :, 0]
        dist += offsets[lo:hi, None]
        np.abs(dist, out=dist)
        counts[lo:hi] = np.count_nonzero(dist <= thr, axis=1)

    best = int(np.argmax(counts))  # first maximum: earliest sample wins ties
    normal, offset = normals[best], float(offsets[best])
    inliers = pts[np.abs(pts @ normal + offset) <= thr]
    if inliers.shape[0] >= 3:
        try:
            normal, offset = _least_squares_plane(inliers)
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
    return plane.distances(points) <= threshold


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
    # Group equal cells: sort lexicographically by (cx, cy), then split at
    # the run boundaries.  The two keys are sorted as they are; packing them
    # into one int64 would overflow for far-apart cells.
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    sorted_cells = cells[order]
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1, out=run_start[1:])
    starts = np.flatnonzero(run_start)
    uniq = sorted_cells[starts]
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
