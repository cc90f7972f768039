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
    KIND_NAMES,
    CameraFrame,
    SceneBundle,
    SceneTokens,
    check_tables,
    validate_bundle,
)
from .config import ClusterConfig, PipelineConfig, RansacConfig, TrackConfig
from .errors import (
    BadJson,
    BadManifestField,
    FrameCountMismatch,
    InvalidInput,
    IoFailure,
    ManifestMissingEntry,
    ShapeHeaderMismatch,
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

    The point and agent tables are checked and the manifest is serialised
    before the first blob is written, so a ``frame_size`` that does not
    split the points, agent columns of unequal length
    (BundleValidationError) or a field that JSON cannot hold
    (BadManifestField) leave the directory as it was.
    """
    check_tables(bundle)
    root = Path(path)
    manifest = {
        "format_version": 1,
        "frame_count": bundle.frame_size.size,
        "frames": [{"frame_index": f, "points": _frame_blob(f)}
                   for f in range(bundle.frame_size.size)],
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
            "track_id": track,
            "frame_index": frame,
            "center": box[:3],
            "size": box[3:6],
            "heading": box[6],
            "label": label,
        } for track, frame, box, label in zip(
            bundle.agent_track.tolist(), bundle.agent_frame.tolist(),
            bundle.agent_box.tolist(), bundle.agent_label.tolist())],
    }
    try:
        text = json.dumps(manifest, indent=2) + "\n"
    except (TypeError, ValueError) as exc:
        raise BadManifestField(f"cannot write bundle at {path}: {exc}") from exc
    try:
        root.mkdir(parents=True, exist_ok=True)
        frames = np.split(bundle.points, np.cumsum(bundle.frame_size)[:-1])
        for points, entry in zip(frames, manifest["frames"]):
            write_blob(root / entry["points"], points.astype("<f8"))
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
    """Read a bundle directory; validates invariants when a config is given.

    Frames must be numbered 0..T-1, in any order (FrameCountMismatch), point
    blobs (N, 3) and feature maps 3-D (ShapeHeaderMismatch)."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise ManifestMissingEntry(f"no {MANIFEST_NAME} in {root}")
    manifest = _load_json(manifest_path)

    def blob(name: str, ok, want: str) -> np.ndarray:
        blob_path = root / name
        if not blob_path.exists():
            raise ManifestMissingEntry(f"manifest references absent file {blob_path}")
        array = read_blob(blob_path)
        if not ok(array.shape):
            raise ShapeHeaderMismatch(f"{blob_path}: must be {want}, got "
                                      f"shape {array.shape}")
        return array

    frames = []
    for entry in _manifest_get(manifest, "frames", str(manifest_path)):
        frames.append((
            _manifest_get(entry, "frame_index", "frame entry"),
            blob(_manifest_get(entry, "points", "frame entry"),
                 lambda shape: len(shape) == 2 and shape[1] == 3,
                 "(N, 3) points")))
    frames.sort(key=lambda frame: frame[0])
    for pos, (index, _) in enumerate(frames):
        if index != pos:
            raise FrameCountMismatch(
                f"frame at position {pos} has frame_index {index}; "
                "frames must be time-ordered 0..T-1")

    cameras = []
    for entry in _manifest_get(manifest, "cameras", str(manifest_path)):
        cameras.append(CameraFrame(
            camera_id=_manifest_get(entry, "camera_id", "camera entry"),
            frame_index=_manifest_get(entry, "frame_index", "camera entry"),
            feature_map=blob(_manifest_get(entry, "feature_map", "camera entry"),
                             lambda shape: len(shape) == 3,
                             "an (H, W, D) feature map"),
            fx=_manifest_get(entry, "fx", "camera entry", 1.0),
            fy=_manifest_get(entry, "fy", "camera entry", 1.0),
            cx=_manifest_get(entry, "cx", "camera entry", 0.0),
            cy=_manifest_get(entry, "cy", "camera entry", 0.0),
            rotation=_manifest_get(entry, "rotation", "camera entry"),
            translation=_manifest_get(entry, "translation", "camera entry"),
            valid=_manifest_get(entry, "valid", "camera entry", True)))

    agents = _manifest_get(manifest, "agents", str(manifest_path))

    def column(key: str, default=None) -> list:
        return [_manifest_get(entry, key, "agent entry", default)
                for entry in agents]

    try:
        bundle = SceneBundle(
            points=np.concatenate([np.empty((0, 3))]
                                  + [points for _, points in frames]),
            frame_size=[points.shape[0] for _, points in frames],
            cameras=cameras, agent_track=column("track_id"),
            agent_frame=column("frame_index"),
            agent_box=np.column_stack([column("center"), column("size"),
                                       column("heading")]),
            agent_label=column("label", ""))
    except OverflowError as exc:  # a JSON number beyond int64 or float64
        raise BadManifestField(f"{manifest_path}: agent entry value out of "
                               f"range ({exc})") from exc
    if config is not None:
        validate_bundle(bundle, config)
    return bundle


def write_tokens(path, tokens: SceneTokens) -> None:
    """Write F_elem plus the element table as one tensor container."""
    tensors = {
        "f_elem": tokens.F_elem,
        "token_id": np.arange(tokens.kind.shape[0], dtype=np.int64),
        "kind": tokens.kind.astype(np.uint8),
        "frame_valid": tokens.frame_valid.astype(np.uint8),
        "boxes": tokens.boxes.astype(np.float64),
        "source_id": tokens.source_id.astype(np.int64),
    }
    try:
        write_tensor_file(path, tensors)
    except OSError as exc:
        raise IoFailure(f"failed to write tokens at {path}: {exc}") from exc


def _is_int(array: np.ndarray) -> bool:
    return array.dtype.kind in "iu"


def read_tokens(path) -> SceneTokens:
    """Read a token file: one table row per token id 0..n-1.

    A missing tensor raises ManifestMissingEntry; a tensor of another shape,
    a non-float ``f_elem`` or ``boxes``, a non-integer ``token_id``, ``kind``
    or ``source_id``, token ids out of order or an unknown kind code raise
    StorageError.
    """
    t = read_tensor_file(path)
    for key in ("f_elem", "token_id", "kind", "frame_valid", "boxes"):
        if key not in t:
            raise ManifestMissingEntry(f"{path}: token file missing tensor {key!r}")
    f_elem, token_id, kind, valid, boxes = (
        t[key] for key in ("f_elem", "token_id", "kind", "frame_valid",
                           "boxes"))
    n = token_id.shape[0] if token_id.ndim == 1 else -1
    T = boxes.shape[1] if boxes.ndim == 3 else -1
    source = t.get("source_id", np.full(max(n, 0), -1, dtype=np.int64))
    for name, array, ok, want in (
            ("token_id", token_id, n >= 0 and _is_int(token_id)
             and np.array_equal(token_id, np.arange(n)), "0..n-1"),
            ("f_elem", f_elem, f_elem.ndim == 2 and f_elem.shape[0] == n
             and f_elem.dtype.kind == "f", "(n, D) floats"),
            ("kind", kind, kind.shape == (n,) and _is_int(kind),
             "(n,) integers"),
            ("boxes", boxes, boxes.shape == (n, T, 7)
             and boxes.dtype.kind == "f", "(n, T, 7) floats"),
            ("frame_valid", valid, valid.shape == (n, T), "(n, T)"),
            ("source_id", source, source.shape == (n,) and _is_int(source),
             "(n,) integers")):
        if not ok:
            raise StorageError(f"{path}: tensor {name} must be {want} with "
                               f"n = len(token_id), got {array.dtype} "
                               f"array of shape {array.shape}")
    unknown = sorted(set(kind.tolist()) - set(KIND_NAMES))
    if unknown:
        raise StorageError(f"{path}: unknown element kind code {unknown[0]}")
    return SceneTokens(F_elem=f_elem, kind=kind.astype(np.int64),
                       source_id=source.astype(np.int64),
                       frame_valid=valid.astype(bool), boxes=boxes)


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
    """Read a checkpoint; every tensor must have the shape and dtype that
    ``init_fusion_params`` gives for its metadata and ``f_temporal`` dtype.

    The tensors that carry T, D and hidden are checked before the template
    is built, so the template is never much larger than the file.
    """
    t = read_tensor_file(path, kind=KIND_PARAMS)
    for key in ("meta.T", "meta.D", "meta.hidden", "meta.n_heads", "f_temporal"):
        if key not in t:
            raise ManifestMissingEntry(f"{path}: checkpoint missing tensor {key!r}")
    meta = {}
    for key in ("T", "D", "hidden", "n_heads"):
        value = t[f"meta.{key}"]
        if value.shape != (1,) or not _is_int(value) or value[0] <= 0:
            raise StorageError(f"{path}: meta.{key} must be one positive "
                               f"integer, got {value.dtype} {value.tolist()}")
        meta[key] = int(value[0])
    if meta["D"] % meta["n_heads"]:
        raise StorageError(f"{path}: meta.D={meta['D']} not divisible by "
                           f"meta.n_heads={meta['n_heads']}")
    dtype = t["f_temporal"].dtype
    if dtype.kind != "f":
        raise StorageError(f"{path}: f_temporal must be float32 or float64, "
                           f"got {dtype}")
    T, D, hidden = meta["T"], meta["D"], meta["hidden"]
    for name, shape in (("f_temporal", (T, D)), ("time.wq", (D, D)),
                        ("mlp_f.w2", (D, hidden))):
        _check_param(path, t, name, shape, dtype)
    params = init_fusion_params(dtype=dtype, **meta)
    for name, template in params.tensors().items():
        _check_param(path, t, name, template.shape, template.dtype)
        params.set_tensor(name, t[name])
    return params


def _check_param(path, t, name: str, shape: tuple, dtype) -> None:
    if name not in t:
        raise ManifestMissingEntry(f"{path}: checkpoint missing tensor {name!r}")
    if t[name].shape != shape or t[name].dtype != dtype:
        raise StorageError(f"{path}: tensor {name} must be {np.dtype(dtype)} "
                           f"{shape}, got {t[name].dtype} {t[name].shape}")


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
        elif not _json_is(value, declared[name]):
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
