"""Benchmark workloads: input generation, the timed op, and its output checks.

A scene op mirrors the per-scene path of ``scenetok tokenize``: read a bundle
directory, tokenize it with seeded float32 fusion params, write the token
file.  A training op is one ``fusion_loss_and_grads`` step.  Inputs are made
from the benchmark seed and written to the work directory during set-up; the
program only sees those files.
"""

from __future__ import annotations

import hashlib
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from scenetok import pipeline, storage
from scenetok.bundle import KIND_AGENT, KIND_CODES, KIND_GROUND, KIND_OPENSET
from scenetok.config import PipelineConfig
from scenetok.decompose import (LABEL_AGENT, LABEL_DISCARDED, LABEL_GROUND,
                                LABEL_OPENSET)
from scenetok.errors import BudgetOverflowWarning
from scenetok.fusion import init_fusion_params, network
from scenetok.synthetic import SceneSpec, generate_scene

KINDS = (KIND_AGENT, KIND_OPENSET, KIND_GROUND)
# Metric-name suffix per element kind.
KIND_KEYS = {KIND_AGENT: "agent", KIND_OPENSET: "openset", KIND_GROUND: "ground"}

# Both pipeline warnings start "<kind> budget <n> exceeded by <dropped>;".
_OVERFLOW = re.compile(r"^(agent|open-set) budget \d+ exceeded by (\d+);")

# Small scene at the full-size (T, D) used to warm up the full-size workloads.
_WARMUP_FULL = dict(n_agents=2, n_clutter=3, T=11, area_m=40.0, D=256,
                    ground_points_per_frame=300, agent_points=30,
                    clutter_points=20, min_separation_m=6.0)


@dataclass(frozen=True)
class SceneWorkload:
    """Scene files tokenized in rotation, one per op."""

    spec: dict
    config: dict
    warmup_spec: dict
    n_scenes: int = 1
    fills_budget: bool = False  # every point pool saturates: n_pts == budget

    kind = "scene"


@dataclass(frozen=True)
class TrainWorkload:
    """One fusion training step on seeded tensors, repeated."""

    n_elem: int
    T: int
    D: int
    n_pts: int
    warmup_elem: int
    warmup_pts: int
    invalid_slot_share: float = 0.2
    dead_elements: int = 8  # elements with no valid frame

    kind = "train"


WORKLOADS = {
    "full": {
        "full_scene": SceneWorkload(
            spec=dict(n_agents=16, n_clutter=60, T=11, area_m=160.0, cameras=2,
                      D=256, ground_points_per_frame=3200, agent_points=60,
                      clutter_points=40, min_separation_m=6.0, feature_res=32),
            config={}, warmup_spec=_WARMUP_FULL, fills_budget=True),
        "crowded_scene": SceneWorkload(
            spec=dict(n_agents=150, n_clutter=450, T=11, area_m=220.0,
                      cameras=2, D=256, ground_points_per_frame=2000,
                      agent_points=30, clutter_points=20,
                      min_separation_m=4.0, feature_res=32),
            config={}, warmup_spec=_WARMUP_FULL),
        "small_scenes": SceneWorkload(
            spec=dict(n_agents=3, n_clutter=5, T=5, area_m=60.0, D=8),
            config=dict(T=5, D=8, n_pts_ground=4000, n_pts_agent=2500,
                        n_pts_openset=1500),
            warmup_spec=dict(n_agents=3, n_clutter=5, T=5, area_m=60.0, D=8),
            n_scenes=20),
        "fusion_train": TrainWorkload(n_elem=768, T=11, D=256, n_pts=65_536,
                                      warmup_elem=16, warmup_pts=512),
    },
    # Same code paths at toy sizes, for the smoke test.
    "tiny": {
        "full_scene": SceneWorkload(
            spec=dict(n_agents=2, n_clutter=4, T=3, area_m=40.0, D=16,
                      ground_points_per_frame=300, agent_points=30,
                      clutter_points=20, min_separation_m=6.0, feature_res=8),
            config=dict(T=3, D=16, n_pts_ground=400, n_pts_agent=60,
                        n_pts_openset=100),
            warmup_spec=dict(n_agents=1, n_clutter=1, T=3, area_m=30.0, D=16,
                             ground_points_per_frame=100, feature_res=8),
            fills_budget=True),
        "crowded_scene": SceneWorkload(
            spec=dict(n_agents=8, n_clutter=16, T=3, area_m=80.0, D=16,
                      ground_points_per_frame=200, agent_points=15,
                      clutter_points=10, min_separation_m=4.0, feature_res=8),
            config=dict(T=3, D=16, n_elem_agent=4, n_elem_openset=8,
                        n_elem_ground=16, n_pts_ground=300, n_pts_agent=100,
                        n_pts_openset=150),
            warmup_spec=dict(n_agents=1, n_clutter=1, T=3, area_m=30.0, D=16,
                             ground_points_per_frame=100, feature_res=8)),
        "small_scenes": SceneWorkload(
            spec=dict(n_agents=2, n_clutter=3, T=3, area_m=40.0, D=8,
                      ground_points_per_frame=200, agent_points=30,
                      clutter_points=20),
            config=dict(T=3, D=8, n_pts_ground=400, n_pts_agent=200,
                        n_pts_openset=150),
            warmup_spec=dict(n_agents=1, n_clutter=1, T=3, area_m=30.0, D=8,
                             ground_points_per_frame=100),
            n_scenes=3),
        "fusion_train": TrainWorkload(n_elem=24, T=3, D=8, n_pts=400,
                                      warmup_elem=8, warmup_pts=64),
    },
}


def derived_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, n)]


# ---------------------------------------------------------------------------
# input generation (runs in its own process, so its memory is not the op's)

def _train_tensors(rng, n_elem, T, D, n_pts, invalid_share, n_dead):
    """Seeded fusion inputs with the pipeline's dtypes and masking."""
    elem_valid = rng.random((n_elem, T)) >= invalid_share
    elem_valid[rng.choice(n_elem, size=min(n_dead, n_elem), replace=False)] = False
    cells = rng.choice(np.flatnonzero(elem_valid.ravel()), size=n_pts)
    P_ind = np.stack([cells % T, cells // T], axis=1).astype(np.int64)
    P_xyz = rng.normal(0.0, 20.0, size=(n_pts, 3))
    B = rng.normal(size=(n_elem, T, 7)) * elem_valid[:, :, None]
    F_img = rng.normal(size=(n_elem, T, D)) * elem_valid[:, :, None]
    return dict(P_xyz=P_xyz, P_ind=P_ind, B=B, F_img=F_img,
                elem_valid=elem_valid)


def generate_inputs(wl, seed: int, work: Path) -> None:
    """Write every input file a run needs into ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    if wl.kind == "train":
        rng = np.random.default_rng(seed)
        np.savez(work / "train.npz", **_train_tensors(
            rng, wl.n_elem, wl.T, wl.D, wl.n_pts, wl.invalid_slot_share,
            wl.dead_elements))
        np.savez(work / "warmup.npz", **_train_tensors(
            rng, wl.warmup_elem, wl.T, wl.D, wl.warmup_pts,
            wl.invalid_slot_share, 1))
        return
    storage.save_pipeline_config(work / "config.json",
                                 PipelineConfig(**wl.config))
    seeds = derived_seeds(seed, wl.n_scenes + 1)
    for i, s in enumerate(seeds[:-1]):
        scene = generate_scene(s, SceneSpec(**wl.spec))
        storage.write_scene_bundle(work / f"scene{i:02d}", scene.bundle)
    warm = generate_scene(seeds[-1], SceneSpec(**wl.warmup_spec))
    storage.write_scene_bundle(work / "warmup", warm.bundle)


# ---------------------------------------------------------------------------
# ops

@dataclass
class SceneOutput:
    result: pipeline.TokenizeResult
    token_path: Path
    dropped: dict[str, int]
    other_warnings: list[str]


class SceneRunner:
    """Set-up state and the op for one scene workload."""

    def __init__(self, wl: SceneWorkload, work: Path):
        self.wl = wl
        self.work = work
        self.config = storage.load_pipeline_config(work / "config.json")
        self.params = init_fusion_params(T=self.config.T, D=self.config.D,
                                         seed=self.config.seed,
                                         dtype=np.float32)
        self.inputs = [work / f"scene{i:02d}" for i in range(wl.n_scenes)]
        self.input_bytes = [bundle_bytes(d) for d in self.inputs]
        self.out_dir = work / "tokens"
        self.out_dir.mkdir(exist_ok=True)

    def warm_up(self) -> None:
        self.op(self.work / "warmup", self.out_dir / "warmup.tokens")

    def input_for(self, k: int) -> int:
        return k % len(self.inputs)

    def op(self, scene_dir: Path, token_path: Path) -> SceneOutput:
        """One scene file -> one token file, as ``scenetok tokenize`` does."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bundle = storage.read_scene_bundle(scene_dir, self.config)
            result = pipeline.tokenize_bundle(bundle, self.config,
                                              params=self.params,
                                              validate=False)
            storage.write_tokens(token_path, result.tokens)
        dropped = {"agent": 0, "openset": 0}
        other = []
        for w in caught:
            m = _OVERFLOW.match(str(w.message))
            if issubclass(w.category, BudgetOverflowWarning) and m:
                key = "agent" if m.group(1) == "agent" else "openset"
                dropped[key] += int(m.group(2))
            else:
                other.append(f"{w.category.__name__}: {w.message}")
        return SceneOutput(result, token_path, dropped, other)

    def run(self, k: int) -> SceneOutput:
        i = self.input_for(k)
        return self.op(self.inputs[i], self.out_dir / f"scene{i:02d}.tokens")

    def check(self, out: SceneOutput) -> list[str]:
        """Structural invariants of one op's output."""
        cfg = self.config
        res = out.result
        scene, tokens = res.scene, res.tokens
        problems = []
        if tokens is None:
            return ["no tokens were produced"]
        budgets = {KIND_AGENT: cfg.n_elem_agent, KIND_OPENSET: cfg.n_elem_openset,
                   KIND_GROUND: cfg.n_elem_ground}
        kinds = [el.kind for el in scene.elements]
        for kind in KINDS:
            if kinds.count(kind) > budgets[kind]:
                problems.append(f"{kinds.count(kind)} {kind} elements exceed "
                                f"the budget {budgets[kind]}")
        if scene.n_pts > cfg.n_pts or (self.wl.fills_budget
                                       and scene.n_pts != cfg.n_pts):
            problems.append(f"n_pts {scene.n_pts}, budget {cfg.n_pts}")
        n_elem = scene.n_elem
        if scene.P_ind.size and (
                scene.P_ind[:, 0].min() < 0 or scene.P_ind[:, 0].max() >= cfg.T
                or scene.P_ind[:, 1].min() < 0
                or scene.P_ind[:, 1].max() >= n_elem):
            problems.append("P_ind holds an out-of-range frame or token id")
        if tokens.F_elem.shape != (n_elem, cfg.D):
            problems.append(f"F_elem shape {tokens.F_elem.shape}, expected "
                            f"({n_elem}, {cfg.D})")
        elif not np.isfinite(tokens.F_elem).all():
            problems.append("F_elem has non-finite values")
        return problems

    def digest(self, out: SceneOutput) -> str:
        return file_digest(out.token_path)

    def f_elem_itemsize(self, out: SceneOutput) -> int:
        return out.result.tokens.F_elem.dtype.itemsize

    def counts(self, out: SceneOutput, k: int) -> dict[str, float]:
        """Per-layer counts of one op, read from its result and files."""
        cfg = self.config
        res = out.result
        scene = res.scene
        labels = np.concatenate(res.partition.labels)
        c: dict[str, float] = {
            f"decompose.points.{key}": int((labels == code).sum())
            for key, code in (("ground", LABEL_GROUND), ("agent", LABEL_AGENT),
                              ("openset", LABEL_OPENSET),
                              ("discarded", LABEL_DISCARDED))}
        c["ground.inlier_ratio"] = (res.plane.inlier_count / labels.size
                                    if res.plane is not None else 0.0)
        kinds = [el.kind for el in scene.elements]
        c["ground.tiles_kept"] = kinds.count(KIND_GROUND)
        for kind in KINDS:
            c[f"pipeline.elements.{KIND_KEYS[kind]}"] = kinds.count(kind)
        for key, n in out.dropped.items():
            c[f"pipeline.elements_dropped.{key}"] = n
        c["projection.points_seen_ratio"] = (float(scene.F_pts_valid.mean())
                                             if scene.n_pts else 0.0)
        c["projection.f_pts_mb"] = (scene.n_pts * cfg.D
                                    * scene.F_pts.dtype.itemsize / 2**20)
        codes = np.array([KIND_CODES[kind] for kind in kinds], dtype=np.int64)
        point_kind = codes[scene.P_ind[:, 1]]
        budgets = {KIND_AGENT: cfg.n_pts_agent, KIND_OPENSET: cfg.n_pts_openset,
                   KIND_GROUND: cfg.n_pts_ground}
        for kind in KINDS:
            c[f"compact.pool_fill_ratio.{KIND_KEYS[kind]}"] = (
                int((point_kind == KIND_CODES[kind]).sum()) / budgets[kind])
        c.update(attention_counts(scene.n_elem, cfg.T, self.params.n_heads,
                                  scene.elem_valid))
        c["fusion.f_elem_itemsize"] = res.tokens.F_elem.dtype.itemsize
        c["storage.bytes_read"] = self.input_bytes[self.input_for(k)]
        c["storage.bytes_written"] = out.token_path.stat().st_size
        return c

    def round_trip(self, out: SceneOutput) -> list[str]:
        """The token file reads back to the F_elem that was written."""
        back = storage.read_tokens(out.token_path)
        if not np.array_equal(back.F_elem, out.result.tokens.F_elem):
            return ["token file does not read back to the written F_elem"]
        return []


@dataclass
class TrainOutput:
    loss: float
    grads: dict[str, np.ndarray]


class TrainRunner:
    """Set-up state and the op for the fusion training workload."""

    def __init__(self, wl: TrainWorkload, work: Path):
        self.wl = wl
        self.work = work
        self.params = init_fusion_params(T=wl.T, D=wl.D, seed=0,
                                         dtype=np.float32)
        self.inputs = [work / "train.npz"]
        self.tensors = None

    def _step(self, t: dict) -> TrainOutput:
        loss, grads = network.fusion_loss_and_grads(
            self.params, t["P_xyz"], t["P_ind"], t["B"], t["F_img"],
            t["elem_valid"])
        return TrainOutput(loss, grads)

    def warm_up(self) -> None:
        with np.load(self.work / "warmup.npz") as z:
            self._step(dict(z))

    def input_for(self, k: int) -> int:
        return 0

    def run(self, k: int) -> TrainOutput:
        if self.tensors is None:  # first op, which the benchmark leaves untimed
            with np.load(self.inputs[0]) as z:
                self.tensors = dict(z)
        return self._step(self.tensors)

    def check(self, out: TrainOutput) -> list[str]:
        problems = []
        if not np.isfinite(out.loss):
            problems.append(f"loss is {out.loss}")
        expected = self.params.tensors()
        if set(out.grads) != set(expected):
            problems.append(f"gradient names differ: "
                            f"{sorted(set(out.grads) ^ set(expected))}")
        for name, value in expected.items():
            g = out.grads.get(name)
            if g is None:
                continue
            if g.shape != value.shape:
                problems.append(f"grad {name} shape {g.shape} != {value.shape}")
            elif not np.isfinite(g).all():
                problems.append(f"grad {name} has non-finite values")
        return problems

    def digest(self, out: TrainOutput) -> str:
        h = hashlib.sha256(np.float64(out.loss).tobytes())
        for name in sorted(out.grads):
            h.update(name.encode())
            h.update(np.ascontiguousarray(out.grads[name]).tobytes())
        return h.hexdigest()

    def counts(self, out: TrainOutput, k: int) -> dict[str, float]:
        t = self.tensors
        return attention_counts(t["B"].shape[0], self.wl.T,
                                self.params.n_heads, t["elem_valid"])

    def f_elem_itemsize(self, out: TrainOutput) -> int:
        """Runs one extra forward: the training step does not return F_elem."""
        t = self.tensors
        F_elem, _, _ = network.fusion_forward(self.params, t["P_xyz"],
                                              t["P_ind"], t["B"], t["F_img"],
                                              t["elem_valid"])
        return F_elem.dtype.itemsize

    def round_trip(self, out: TrainOutput) -> list[str]:
        return []


def attention_counts(n_elem: int, T: int, heads: int, elem_valid) -> dict:
    """Attention logits computed (time axis + element axis) and live slots."""
    return {"fusion.attn_scores": n_elem * heads * T * T + T * heads * n_elem ** 2,
            "fusion.valid_slot_ratio": float(np.mean(elem_valid))}


def make_runner(wl, work: Path):
    return SceneRunner(wl, work) if wl.kind == "scene" else TrainRunner(wl, work)


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def bundle_bytes(scene_dir: Path) -> int:
    return sum(p.stat().st_size for p in scene_dir.iterdir() if p.is_file())
