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
from .errors import (
    BadJson,
    BadManifestField,
    InvalidInput,
    IoFailure,
    ManifestMissingEntry,
    StorageError,
)
from .formats import (
    KIND_PARAMS,
    _replace_on_success,
    read_blob,
    read_tensor_file,
    write_blob,
    write_tensor_file,
)
from .fusion import FusionParams, init_fusion_params
from .synthetic import SceneSpec

MANIFEST_NAME = "manifest.json"


def _frame_blob(frame_index: int) -> str:
    return f"points_f{frame_index:03d}.bin"


def _camera_blob(camera_id: int, frame_index: int) -> str:
    return f"cam{camera_id:02d}_f{frame_index:03d}.bin"


def write_scene_bundle(path, bundle: SceneBundle) -> None:
    """Write one scene as a directory of manifest + blobs.

    The manifest is serialised before the first blob is written, so a field
    that JSON cannot hold raises BadManifestField and leaves the directory
    as it was.
    """
    root = Path(path)
    manifest = {
        "format_version": 1,
        "frame_count": len(bundle.frames),
        "frames": [{"frame_index": frame.frame_index,
                    "points": _frame_blob(frame.frame_index)}
                   for frame in bundle.frames],
        "cameras": [{
            "camera_id": cam.camera_id,
            "frame_index": cam.frame_index,
            "feature_map": _camera_blob(cam.camera_id, cam.frame_index),
            "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
            "rotation": cam.rotation.tolist(),
            "translation": cam.translation.tolist(),
            "valid": bool(cam.valid),
        } for cam in bundle.cameras],
        "agents": [{
            "track_id": box.track_id,
            "frame_index": box.frame_index,
            "center": box.center.tolist(),
            "size": box.size.tolist(),
            "heading": box.heading,
            "label": box.label,
        } for box in bundle.agents],
    }
    try:
        text = json.dumps(manifest, indent=2) + "\n"
    except (TypeError, ValueError) as exc:
        raise BadManifestField(f"cannot write bundle at {path}: {exc}") from exc
    try:
        root.mkdir(parents=True, exist_ok=True)
        for frame, entry in zip(bundle.frames, manifest["frames"]):
            write_blob(root / entry["points"], frame.points.astype("<f8"))
        for cam, entry in zip(bundle.cameras, manifest["cameras"]):
            write_blob(root / entry["feature_map"], cam.feature_map)
        with _replace_on_success(root / MANIFEST_NAME) as fh:
            fh.write(text.encode())
    except OSError as exc:
        raise IoFailure(f"failed to write bundle at {path}: {exc}") from exc


def _load_json(path):
    """Parse a JSON file; a syntax or encoding error is a format error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise BadJson(f"{path}: not valid JSON ({exc})") from exc


# JSON value types accepted per declared field type; bool is not a number.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "list": list}

# JSON type of every manifest field read with _manifest_get: a _JSON_TYPES
# name or "bool"; each "[3]" suffix wraps it in an array of exactly 3.
_MANIFEST_TYPES = {"frames": "list", "cameras": "list", "agents": "list",
                   "frame_index": "int", "track_id": "int", "camera_id": "int",
                   "points": "str", "feature_map": "str", "heading": "float",
                   "center": "float[3]", "size": "float[3]",
                   "rotation": "float[3][3]", "translation": "float[3]",
                   "fx": "float", "fy": "float", "cx": "float", "cy": "float",
                   "valid": "bool", "label": "str"}


def _json_is(value, expected: str) -> bool:
    if expected.endswith("[3]"):
        return (isinstance(value, list) and len(value) == 3
                and all(_json_is(v, expected[:-3]) for v in value))
    if expected == "bool":
        return isinstance(value, bool)
    return (not isinstance(value, bool)
            and isinstance(value, _JSON_TYPES[expected]))


def _manifest_get(entry, key: str, context: str, default=None):
    """``entry[key]`` checked against _MANIFEST_TYPES; the key is optional
    when a ``default`` is given."""
    if not isinstance(entry, dict):
        raise BadManifestField(f"{context} must be a JSON object, "
                               f"got {json.dumps(entry)}")
    if key not in entry:
        if default is None:
            raise ManifestMissingEntry(f"{context}: missing key {key!r}")
        return default
    value = entry[key]
    if not _json_is(value, _MANIFEST_TYPES[key]):
        raise BadManifestField(f"{context}: field {key} must be "
                               f"{_MANIFEST_TYPES[key]}, "
                               f"got {json.dumps(value)}")
    return value


def read_scene_bundle(path, config: PipelineConfig | None = None) -> SceneBundle:
    """Read a bundle directory; validates invariants when a config is given."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise ManifestMissingEntry(f"no {MANIFEST_NAME} in {root}")
    manifest = _load_json(manifest_path)

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
            fx=_manifest_get(entry, "fx", "camera entry", 1.0),
            fy=_manifest_get(entry, "fy", "camera entry", 1.0),
            cx=_manifest_get(entry, "cx", "camera entry", 0.0),
            cy=_manifest_get(entry, "cy", "camera entry", 0.0),
            rotation=_manifest_get(entry, "rotation", "camera entry"),
            translation=_manifest_get(entry, "translation", "camera entry"),
            valid=_manifest_get(entry, "valid", "camera entry", True)))

    agents = []
    for entry in _manifest_get(manifest, "agents", str(manifest_path)):
        agents.append(AgentBox(
            track_id=_manifest_get(entry, "track_id", "agent entry"),
            frame_index=_manifest_get(entry, "frame_index", "agent entry"),
            center=_manifest_get(entry, "center", "agent entry"),
            size=_manifest_get(entry, "size", "agent entry"),
            heading=_manifest_get(entry, "heading", "agent entry"),
            label=_manifest_get(entry, "label", "agent entry", "")))

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


def save_pipeline_config(path, config: PipelineConfig) -> None:
    with _replace_on_success(path) as fh:
        fh.write((json.dumps(dataclasses.asdict(config), indent=2)
                  + "\n").encode())


_SECTIONS = {"ransac": RansacConfig, "cluster": ClusterConfig,
             "track": TrackConfig}


def _config_kwargs(raw, cls, path, section: str = "") -> dict:
    """Check one JSON object against a config dataclass's declared fields."""
    if not isinstance(raw, dict):
        raise InvalidInput(f"{path}: {section or 'config'} must be a JSON object")
    declared = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for name, value in raw.items():
        field = f"{section}.{name}" if section else name
        if name not in declared:
            raise InvalidInput(f"{path}: unknown config field {field}")
        if name in _SECTIONS:
            value = _SECTIONS[name](**_config_kwargs(value, _SECTIONS[name],
                                                     path, name))
        elif (isinstance(value, bool)
              or not isinstance(value, _JSON_TYPES[declared[name]])):
            raise InvalidInput(f"{path}: config field {field} must be "
                             f"{declared[name]}, got {json.dumps(value)}")
        kwargs[name] = value
    return kwargs


def load_pipeline_config(path) -> PipelineConfig:
    """Load a config file; fields not present keep their defaults."""
    raw = _load_json(path)
    return PipelineConfig(**_config_kwargs(raw, PipelineConfig, path))


def load_scene_spec(path) -> SceneSpec:
    """Load a synthetic scene spec, typed field by field as configs are."""
    return SceneSpec(**_config_kwargs(_load_json(path), SceneSpec, path))
