"""On-disk layouts: scene bundle directories, token files, checkpoints, config.

A scene bundle is one directory: a JSON manifest plus one blob per point
frame and per camera feature map.  Tokens and fusion checkpoints are single
tensor-container files.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .bundle import (
    KIND_CODES,
    KIND_NAMES,
    AgentBox,
    CameraFrame,
    PointCloudFrame,
    SceneBundle,
    SceneElement,
    SceneTokens,
    validate_bundle,
)
from .config import ClusterConfig, PipelineConfig, RansacConfig, TrackConfig
from .errors import IoFailure, ManifestMissingEntry, StorageError
from .formats import (
    KIND_PARAMS,
    read_blob,
    read_tensor_file,
    write_blob,
    write_tensor_file,
)
from .fusion import FusionParams, init_fusion_params

MANIFEST_NAME = "manifest.json"


def _frame_blob(frame_index: int) -> str:
    return f"points_f{frame_index:03d}.bin"


def _camera_blob(camera_id: int, frame_index: int) -> str:
    return f"cam{camera_id:02d}_f{frame_index:03d}.bin"


def write_scene_bundle(path, bundle: SceneBundle) -> None:
    """Write one scene as a directory of manifest + blobs."""
    root = Path(path)
    try:
        root.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format_version": 1,
            "frame_count": len(bundle.frames),
            "frames": [],
            "cameras": [],
            "agents": [],
        }
        for frame in bundle.frames:
            name = _frame_blob(frame.frame_index)
            write_blob(root / name, frame.points.astype("<f8"))
            manifest["frames"].append({"frame_index": frame.frame_index,
                                       "points": name})
        for cam in bundle.cameras:
            name = _camera_blob(cam.camera_id, cam.frame_index)
            write_blob(root / name, cam.feature_map)
            manifest["cameras"].append({
                "camera_id": cam.camera_id,
                "frame_index": cam.frame_index,
                "feature_map": name,
                "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
                "rotation": cam.rotation.tolist(),
                "translation": cam.translation.tolist(),
                "valid": bool(cam.valid),
            })
        for box in bundle.agents:
            manifest["agents"].append({
                "track_id": box.track_id,
                "frame_index": box.frame_index,
                "center": box.center.tolist(),
                "size": box.size.tolist(),
                "heading": box.heading,
                "label": box.label,
            })
        with open(root / MANIFEST_NAME, "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"failed to write bundle at {path}: {exc}") from exc


def _manifest_get(entry: dict, key: str, context: str):
    if key not in entry:
        raise ManifestMissingEntry(f"{context}: missing key {key!r}")
    return entry[key]


def read_scene_bundle(path, config: PipelineConfig | None = None) -> SceneBundle:
    """Read a bundle directory; validates invariants when a config is given."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise ManifestMissingEntry(f"no {MANIFEST_NAME} in {root}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)

    def blob(name: str) -> np.ndarray:
        blob_path = root / name
        if not blob_path.exists():
            raise ManifestMissingEntry(f"manifest references absent file {blob_path}")
        return read_blob(blob_path)

    frames = []
    for entry in _manifest_get(manifest, "frames", str(manifest_path)):
        frames.append(PointCloudFrame(
            frame_index=_manifest_get(entry, "frame_index", "frame entry"),
            points=blob(_manifest_get(entry, "points", "frame entry"))))
    frames.sort(key=lambda f: f.frame_index)

    cameras = []
    for entry in _manifest_get(manifest, "cameras", str(manifest_path)):
        cameras.append(CameraFrame(
            camera_id=_manifest_get(entry, "camera_id", "camera entry"),
            frame_index=_manifest_get(entry, "frame_index", "camera entry"),
            feature_map=blob(_manifest_get(entry, "feature_map", "camera entry")),
            fx=entry.get("fx", 1.0), fy=entry.get("fy", 1.0),
            cx=entry.get("cx", 0.0), cy=entry.get("cy", 0.0),
            rotation=_manifest_get(entry, "rotation", "camera entry"),
            translation=_manifest_get(entry, "translation", "camera entry"),
            valid=entry.get("valid", True)))

    agents = []
    for entry in _manifest_get(manifest, "agents", str(manifest_path)):
        agents.append(AgentBox(
            track_id=_manifest_get(entry, "track_id", "agent entry"),
            frame_index=_manifest_get(entry, "frame_index", "agent entry"),
            center=_manifest_get(entry, "center", "agent entry"),
            size=_manifest_get(entry, "size", "agent entry"),
            heading=_manifest_get(entry, "heading", "agent entry"),
            label=entry.get("label", "")))

    bundle = SceneBundle(frames=frames, cameras=cameras, agents=agents)
    if config is not None:
        validate_bundle(bundle, config)
    return bundle


def write_tokens(path, tokens: SceneTokens) -> None:
    """Write F_elem plus element metadata as one tensor container."""
    elements = tokens.elements
    tensors = {
        "f_elem": tokens.F_elem,
        "token_id": np.array([el.token_id for el in elements], dtype=np.int64),
        "kind": np.array([KIND_CODES[el.kind] for el in elements], dtype=np.uint8),
        "frame_valid": tokens.frame_valid.astype(np.uint8),
        "boxes": tokens.boxes.astype(np.float64),
        "source_id": np.array([el.source_id for el in elements], dtype=np.int64),
    }
    try:
        write_tensor_file(path, tensors)
    except OSError as exc:
        raise IoFailure(f"failed to write tokens at {path}: {exc}") from exc


def read_tokens(path) -> SceneTokens:
    t = read_tensor_file(path)
    for key in ("f_elem", "token_id", "kind", "frame_valid", "boxes"):
        if key not in t:
            raise ManifestMissingEntry(f"{path}: token file missing tensor {key!r}")
    n = t["token_id"].shape[0]
    unknown = sorted(set(t["kind"].tolist()) - set(KIND_NAMES))
    if unknown:
        raise StorageError(f"{path}: unknown element kind code {unknown[0]}")
    source = t.get("source_id", np.full(n, -1, dtype=np.int64))
    elements = [SceneElement(token_id=int(t["token_id"][i]),
                             kind=KIND_NAMES[int(t["kind"][i])],
                             boxes=t["boxes"][i],
                             frame_valid=t["frame_valid"][i].astype(bool),
                             source_id=int(source[i]))
                for i in range(n)]
    return SceneTokens(F_elem=t["f_elem"], elements=elements,
                       frame_valid=t["frame_valid"].astype(bool),
                       boxes=t["boxes"])


def write_fusion_params(path, params: FusionParams) -> None:
    tensors = {"meta.T": np.array([params.T], dtype=np.int64),
               "meta.D": np.array([params.D], dtype=np.int64),
               "meta.hidden": np.array([params.hidden], dtype=np.int64),
               "meta.n_heads": np.array([params.n_heads], dtype=np.int64)}
    tensors.update(params.tensors())
    try:
        write_tensor_file(path, tensors, kind=KIND_PARAMS)
    except OSError as exc:
        raise IoFailure(f"failed to write params at {path}: {exc}") from exc


def read_fusion_params(path) -> FusionParams:
    t = read_tensor_file(path, kind=KIND_PARAMS)
    for key in ("meta.T", "meta.D", "meta.hidden", "meta.n_heads", "f_temporal"):
        if key not in t:
            raise ManifestMissingEntry(f"{path}: checkpoint missing tensor {key!r}")
    params = init_fusion_params(T=int(t["meta.T"][0]), D=int(t["meta.D"][0]),
                                hidden=int(t["meta.hidden"][0]),
                                n_heads=int(t["meta.n_heads"][0]),
                                dtype=t["f_temporal"].dtype)
    for name in params.tensors():
        if name not in t:
            raise ManifestMissingEntry(f"{path}: checkpoint missing tensor {name!r}")
        params.set_tensor(name, t[name])
    return params


def _config_to_dict(config: PipelineConfig) -> dict:
    return dataclasses.asdict(config)


def save_pipeline_config(path, config: PipelineConfig) -> None:
    with open(path, "w") as fh:
        json.dump(_config_to_dict(config), fh, indent=2)
        fh.write("\n")


def load_pipeline_config(path) -> PipelineConfig:
    """Load a config file; fields not present keep their defaults."""
    with open(path) as fh:
        raw = json.load(fh)
    known = {f.name for f in dataclasses.fields(PipelineConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"{path}: unknown config fields {sorted(unknown)}")
    kwargs = dict(raw)
    for name, cls in (("ransac", RansacConfig), ("cluster", ClusterConfig),
                      ("track", TrackConfig)):
        if name in kwargs:
            sub_known = {f.name for f in dataclasses.fields(cls)}
            sub_unknown = set(kwargs[name]) - sub_known
            if sub_unknown:
                raise ValueError(
                    f"{path}: unknown {name} fields {sorted(sub_unknown)}")
            kwargs[name] = cls(**kwargs[name])
    return PipelineConfig(**kwargs)
