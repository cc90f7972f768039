#!/usr/bin/env python3
"""Ground aggregation and tiling.

Ground points from all frames are merged before tiling, so each tile is
one static element with an identical box row in every frame.  The demo
also shows the budget rule: when occupied cells exceed the element budget,
the cells with the most points win.
"""

import numpy as np

from scenetok import (PipelineConfig, assign_token_ids, fit_ground_plane,
                      segment_ground, tile_ground)
from scenetok.config import RansacConfig

rng = np.random.default_rng(0)

# a 50 x 30 m parking-lot sheet with a gentle 2% slope and some clutter
xy = np.column_stack([rng.uniform(0, 50, 8000), rng.uniform(0, 30, 8000)])
sheet = np.column_stack([xy, 0.02 * xy[:, 0]])
clutter = rng.uniform([10, 10, 1.0], [12, 12, 2.0], (300, 3))
cloud = np.concatenate([sheet, clutter])

plane = fit_ground_plane(cloud, RansacConfig(), seed=0)
print(f"plane normal {plane.normal.round(4)}, offset {plane.offset:.3f}, "
      f"{plane.inlier_count} inliers of {len(cloud)} points")

mask = segment_ground(cloud, plane, 0.2)
print(f"ground mask: {mask.sum()} points ({mask.mean():.1%}); "
      f"clutter correctly excluded: {(~mask[8000:]).mean():.1%}")

ground_pts = cloud[mask]
boxes, counts, cell_of_point = tile_ground(ground_pts, tile_size=10.0, T=11)
print(f"\n{len(boxes)} tiles at 10 m x 10 m:")
for box, n in zip(boxes, counts):
    cx, cy, cz = box[0, :3]
    print(f"  tile at ({cx:5.1f}, {cy:5.1f}), mean z {cz:+.3f}, {n} points")

# every tile repeats one identical row across the 11 frames
assert (boxes == boxes[:, :1]).all()
assert (np.bincount(cell_of_point) == counts).all()
print("each tile's box row is identical across all frames "
      f"(e.g. {boxes[0, 0].round(2)})")

# budget rule: with at most 4 ground elements, the densest cells win (the
# lower cell index on a tie); the pipeline applies it in assign_token_ids
_, _, keep = assign_token_ids(np.empty(0, dtype=np.int64), np.zeros((0, 1, 7)),
                              np.zeros((0, 1), dtype=bool), np.empty(0),
                              counts, PipelineConfig(T=1, n_elem_ground=4))
dropped = int(counts.sum() - counts[keep].sum())
print(f"\nwith a 4-tile budget: kept {len(keep)} tiles, "
      f"{dropped} points fell in dropped cells")
