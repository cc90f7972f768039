"""Domain types for raw scene input and tokenized output.

Everything here is a plain value type: geometry is expressed in one shared
world frame (ego-pose compensation is the data producer's job), and nothing
is mutated after validation, so bundles can be shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .errors import (
    BadRotation,
    BundleValidationError,
    DuplicateTrackFrame,
    FrameCountMismatch,
    NonFiniteCoordinate,
)

# Element kinds, also the on-disk codebook.
KIND_AGENT = "agent"
KIND_OPENSET = "open-set"
KIND_GROUND = "ground"
KIND_CODES = {KIND_AGENT: 0, KIND_OPENSET: 1, KIND_GROUND: 2}
KIND_NAMES = {code: name for name, code in KIND_CODES.items()}


@dataclass
class CameraFrame:
    """One camera's feature map for one frame.

    Intrinsics are expressed at feature-map resolution (already scaled for
    any image-to-feature downsampling).  ``rotation`` and ``translation``
    map world coordinates into the camera frame: ``p_cam = R @ p + t``.
    """

    camera_id: int
    frame_index: int
    feature_map: np.ndarray  # (H', W', D)
    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray  # (3, 3) world -> camera
    translation: np.ndarray  # (3,)
    valid: bool = True

    def __post_init__(self):
        self.feature_map = np.asarray(self.feature_map)
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)

    @property
    def height(self) -> int:
        return self.feature_map.shape[0]

    @property
    def width(self) -> int:
        return self.feature_map.shape[1]


@dataclass
class SceneBundle:
    """Raw multi-frame input: point clouds, camera feature maps, agent boxes.

    The LiDAR sweeps are one table: ``points`` (N, 3) float64 world
    coordinates in meters, frames back to back in time order, and
    ``frame_size`` (T,) int64, each frame's point count (0 allowed).  The
    agent boxes are one table, a row per box in manifest order:
    ``agent_track``, ``agent_frame`` (n,) int64; ``agent_box`` (n, 7)
    float64 rows of center, size (length, width, height) and heading (radians
    about +z, in [-pi, pi)); ``agent_label`` (n,) objects, kept as given.
    """

    points: np.ndarray = ()
    frame_size: np.ndarray = ()
    cameras: list[CameraFrame] = field(default_factory=list)
    agent_track: np.ndarray = ()
    agent_frame: np.ndarray = ()
    agent_box: np.ndarray = ()
    agent_label: np.ndarray = ()

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.frame_size = np.asarray(self.frame_size, dtype=np.int64).reshape(-1)
        self.agent_track = np.asarray(self.agent_track, dtype=np.int64).reshape(-1)
        self.agent_frame = np.asarray(self.agent_frame, dtype=np.int64).reshape(-1)
        self.agent_box = np.asarray(self.agent_box, dtype=np.float64).reshape(-1, 7)
        self.agent_label = np.asarray(self.agent_label, dtype=object).reshape(-1)


@dataclass
class SceneElement:
    """One ground tile / agent / open-set cluster.

    ``boxes`` is (T, 7) with rows zeroed where ``frame_valid`` is false.
    Ground elements keep size and heading at zero and repeat one identical
    row across all frames.
    """

    token_id: int
    kind: str
    boxes: np.ndarray
    frame_valid: np.ndarray
    source_id: int = -1  # agent track_id / open-set track index / ground cell rank

    def __post_init__(self):
        self.boxes = np.asarray(self.boxes, dtype=np.float64)
        self.frame_valid = np.asarray(self.frame_valid, dtype=bool)


def element_views(kind: np.ndarray, boxes: np.ndarray, frame_valid: np.ndarray,
                  source_id: np.ndarray) -> list[SceneElement]:
    """One SceneElement per row of an element table; the token id is the row."""
    return [SceneElement(token_id=row, kind=KIND_NAMES[code], boxes=b,
                         frame_valid=v, source_id=s)
            for row, (code, b, v, s) in enumerate(zip(
                kind.tolist(), boxes, frame_valid, source_id.tolist()))]


@dataclass
class TokenizedScene:
    """The compacted model input.

    ``P_ind`` columns are (frame id, token id).  Rows of ``F_pts`` whose
    ``F_pts_valid`` is false are exactly zero.  The number of points per
    frame is variable; only the per-kind totals are budgeted.  Row i of the
    element table (``B``, ``elem_valid``, ``kind``, ``source_id``) is token
    id i.
    """

    P_xyz: np.ndarray       # (N_pts, 3)
    P_ind: np.ndarray       # (N_pts, 2) int64
    F_pts: np.ndarray       # (N_pts, D)
    F_pts_valid: np.ndarray  # (N_pts,) bool
    B: np.ndarray           # (N_elem, T, 7)
    elem_valid: np.ndarray  # (N_elem, T) bool
    kind: np.ndarray        # (N_elem,) int64 KIND_CODES
    source_id: np.ndarray   # (N_elem,) int64

    @property
    def elements(self) -> list[SceneElement]:
        return element_views(self.kind, self.B, self.elem_valid, self.source_id)

    @property
    def n_pts(self) -> int:
        return self.P_xyz.shape[0]

    @property
    def n_elem(self) -> int:
        return self.B.shape[0]

    @property
    def T(self) -> int:
        return self.B.shape[1]


@dataclass
class SceneTokens:
    """Final output: one fused D-vector per scene element; row i is token i."""

    F_elem: np.ndarray  # (N_elem, D)
    kind: np.ndarray  # (N_elem,) int64 KIND_CODES
    source_id: np.ndarray  # (N_elem,) int64
    frame_valid: np.ndarray  # (N_elem, T) bool
    boxes: np.ndarray        # (N_elem, T, 7)

    @property
    def elements(self) -> list[SceneElement]:
        return element_views(self.kind, self.boxes, self.frame_valid,
                             self.source_id)


def normalize_heading(h):
    """Wrap heading(s) into [-pi, pi)."""
    return np.mod(np.asarray(h) + math.pi, 2.0 * math.pi) - math.pi


def check_bundle(bundle: SceneBundle, config: PipelineConfig) -> list[BundleValidationError]:
    """Collect every invariant violation in ``bundle`` without raising."""
    problems: list[BundleValidationError] = []

    size, points = bundle.frame_size, bundle.points
    if size.size != config.T:
        problems.append(FrameCountMismatch(
            f"bundle has {size.size} frames, config expects T={config.T}"))
    if (size < 0).any() or size.sum() != points.shape[0]:
        problems.append(BundleValidationError(
            f"frame_size {size.tolist()} must be non-negative and sum to "
            f"the {points.shape[0]} points"))
        return problems
    # The first non-finite row of each frame, counted within the frame.
    start = np.cumsum(size) - size
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    frame, first = np.unique(np.searchsorted(start, bad, side="right") - 1,
                             return_index=True)
    for f, row in zip(frame.tolist(), (bad[first] - start[frame]).tolist()):
        problems.append(NonFiniteCoordinate(
            f"frame {f}: non-finite point coordinate at row {row}"))

    for cam in bundle.cameras:
        err = np.abs(cam.rotation.T @ cam.rotation - np.eye(3)).max()
        if not np.isfinite(err) or err > 1e-6:
            problems.append(BadRotation(
                f"camera {cam.camera_id} frame {cam.frame_index}: "
                f"rotation not orthonormal (|R^T R - I| = {err:.3g})"))
        shape = cam.feature_map.shape
        if len(shape) != 3 or 0 in shape[:2]:
            problems.append(BundleValidationError(
                f"camera {cam.camera_id} frame {cam.frame_index}: feature map "
                f"must be a non-empty (H, W, D) array, got shape {shape}"))
        elif not np.isfinite(cam.feature_map).all():
            problems.append(NonFiniteCoordinate(
                f"camera {cam.camera_id} frame {cam.frame_index}: non-finite feature values"))
        if not (0 <= cam.frame_index < config.T):
            problems.append(FrameCountMismatch(
                f"camera {cam.camera_id}: frame_index {cam.frame_index} outside [0, {config.T})"))

    track, frame, box = bundle.agent_track, bundle.agent_frame, bundle.agent_box
    lengths = (track.size, frame.size, box.shape[0], bundle.agent_label.size)
    if len(set(lengths)) > 1:
        problems.append(BundleValidationError(
            f"agent columns track, frame, box, label differ in length: {lengths}"))
        return problems
    # A row repeats a (track, frame) pair unless it is the pair's first row.
    duplicate = np.ones(track.size, dtype=bool)
    duplicate[np.unique(np.stack([track, frame], axis=1), axis=0,
                        return_index=True)[1]] = False
    finite = np.isfinite(box).all(axis=1)
    heading = box[:, 6]
    # One column per check, in the order a row reports them; a row with a
    # non-finite attribute reports nothing after that.
    failed = np.stack([duplicate, ~finite,
                       finite & (box[:, 3:6] <= 0).any(axis=1),
                       finite & ~((-math.pi <= heading) & (heading < math.pi)),
                       finite & ~((0 <= frame) & (frame < config.T))], axis=1)
    for row, check in zip(*np.nonzero(failed)):
        t, f, h = track[row].item(), frame[row].item(), heading[row].item()
        error, message = (
            (DuplicateTrackFrame, f"track {t} appears twice in frame {f}"),
            (NonFiniteCoordinate, f"track {t} frame {f}: non-finite box attribute"),
            (BundleValidationError, f"track {t} frame {f}: non-positive size"),
            (BundleValidationError,
             f"track {t} frame {f}: heading {h} outside [-pi, pi)"),
            (FrameCountMismatch,
             f"track {t}: frame_index {f} outside [0, {config.T})"))[check]
        problems.append(error(message))

    return problems


def validate_bundle(bundle: SceneBundle, config: PipelineConfig) -> SceneBundle:
    """Return ``bundle`` unchanged iff every invariant holds.

    On failure raises the most specific error for the first violation; the
    exception's ``violations`` attribute lists all of them.
    """
    problems = check_bundle(bundle, config)
    if problems:
        head = problems[0]
        head.violations = [str(p) for p in problems]
        raise head
    return bundle
