#!/usr/bin/env python3
"""Decompose a synthetic driving scene into ground / agent / open-set points.

Generates a scene with known labels, runs the ground-plane fit and the
per-frame decomposition, and compares the result against the generator's
ground truth.  Saves a top-down scatter plot if matplotlib is installed.
"""

import collections

import numpy as np

from scenetok import PipelineConfig, SceneSpec, generate_scene, tokenize_bundle
from scenetok.decompose import LABEL_AGENT, LABEL_GROUND, LABEL_OPENSET

spec = SceneSpec(n_agents=3, n_clutter=5, T=5, area_m=60.0, cameras=2, D=8,
                 ground_points_per_frame=900, agent_points=200,
                 clutter_points=60)
config = PipelineConfig(T=5, D=8, n_elem_agent=16, n_elem_openset=32,
                        n_elem_ground=64, n_pts_ground=4000,
                        n_pts_agent=2500, n_pts_openset=1500)

scene = generate_scene(42, spec)
result = tokenize_bundle(scene.bundle, config)

print(f"scene: T={spec.T}, "
      f"{scene.bundle.points.shape[0]} points total")
print(f"fitted ground plane: normal={result.plane.normal.round(6)}, "
      f"offset={result.plane.offset:.4f}, inliers={result.plane.inlier_count}")

names = {LABEL_GROUND: "ground", LABEL_AGENT: "agent", LABEL_OPENSET: "open-set",
         3: "discarded"}
counts = collections.Counter()
agree = total = 0
for f in range(spec.T):
    got = result.partition.labels[f]
    truth = scene.truth.labels[f]
    counts.update(names[v] for v in got.tolist())
    agree += int((got == truth).sum())
    total += len(truth)

print("\nper-point labels across all frames:")
for name, c in counts.most_common():
    print(f"  {name:>10}: {c}")
print(f"agreement with generator truth: {agree / total:.2%}")

print("\nscene elements after tokenization:")
kinds = collections.Counter(el.kind for el in result.scene.elements)
for kind, c in kinds.items():
    print(f"  {kind:>10}: {c} tokens")
print(f"total tokens: {result.scene.n_elem} (budget {config.n_elem})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    pts = scene.bundle.points[:scene.bundle.frame_size[0]]
    lab = result.partition.labels[0]
    fig, ax = plt.subplots(figsize=(7, 7))
    for code, color, size in ((LABEL_GROUND, "0.8", 1), (LABEL_AGENT, "tab:red", 4),
                              (LABEL_OPENSET, "tab:blue", 4)):
        sel = lab == code
        ax.scatter(pts[sel, 0], pts[sel, 1], s=size, c=color,
                   label=names[code])
    ax.set_aspect("equal")
    ax.legend()
    ax.set_title("frame 0 decomposition (top-down)")
    fig.savefig("demo_01_decomposition.png", dpi=120)
    print("\nwrote demo_01_decomposition.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the plot)")
