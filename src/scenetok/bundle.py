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
class PointCloudFrame:
    """One LiDAR sweep: ``points`` is (N, 3) float world coordinates in meters."""

    frame_index: int
    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)


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
class AgentBox:
    """A perception box for one agent at one frame.

    ``center`` is (3,), ``size`` is (length, width, height), heading is a
    single radian scalar in [-pi, pi) measured about +z.
    """

    track_id: int
    frame_index: int
    center: np.ndarray
    size: np.ndarray
    heading: float
    label: str = ""

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.size = np.asarray(self.size, dtype=np.float64).reshape(3)
        self.heading = float(self.heading)

    def row(self) -> np.ndarray:
        """The 7-float box row: center(3), size(3), heading."""
        return np.concatenate([self.center, self.size, [self.heading]])


@dataclass
class SceneBundle:
    """Raw multi-frame input: point clouds, agent boxes, camera feature maps."""

    frames: list[PointCloudFrame]
    cameras: list[CameraFrame] = field(default_factory=list)
    agents: list[AgentBox] = field(default_factory=list)


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

    if len(bundle.frames) != config.T:
        problems.append(FrameCountMismatch(
            f"bundle has {len(bundle.frames)} frames, config expects T={config.T}"))
    for pos, frame in enumerate(bundle.frames):
        if frame.frame_index != pos:
            problems.append(FrameCountMismatch(
                f"frame at position {pos} has frame_index {frame.frame_index}; "
                "frames must be time-ordered 0..T-1"))
        bad = ~np.isfinite(frame.points)
        if bad.any():
            row = int(np.argwhere(bad.any(axis=1))[0, 0])
            problems.append(NonFiniteCoordinate(
                f"frame {frame.frame_index}: non-finite point coordinate at row {row}"))

    for cam in bundle.cameras:
        err = np.abs(cam.rotation.T @ cam.rotation - np.eye(3)).max()
        if not np.isfinite(err) or err > 1e-6:
            problems.append(BadRotation(
                f"camera {cam.camera_id} frame {cam.frame_index}: "
                f"rotation not orthonormal (|R^T R - I| = {err:.3g})"))
        if cam.height <= 0 or cam.width <= 0:
            problems.append(BundleValidationError(
                f"camera {cam.camera_id} frame {cam.frame_index}: empty feature map"))
        elif not np.isfinite(cam.feature_map).all():
            problems.append(NonFiniteCoordinate(
                f"camera {cam.camera_id} frame {cam.frame_index}: non-finite feature values"))
        if not (0 <= cam.frame_index < config.T):
            problems.append(FrameCountMismatch(
                f"camera {cam.camera_id}: frame_index {cam.frame_index} outside [0, {config.T})"))

    seen: set[tuple[int, int]] = set()
    for box in bundle.agents:
        key = (box.track_id, box.frame_index)
        if key in seen:
            problems.append(DuplicateTrackFrame(
                f"track {box.track_id} appears twice in frame {box.frame_index}"))
        seen.add(key)
        if not (np.isfinite(box.center).all() and np.isfinite(box.size).all()
                and math.isfinite(box.heading)):
            problems.append(NonFiniteCoordinate(
                f"track {box.track_id} frame {box.frame_index}: non-finite box attribute"))
            continue
        if (box.size <= 0).any():
            problems.append(BundleValidationError(
                f"track {box.track_id} frame {box.frame_index}: non-positive size"))
        if not (-math.pi <= box.heading < math.pi):
            problems.append(BundleValidationError(
                f"track {box.track_id} frame {box.frame_index}: "
                f"heading {box.heading} outside [-pi, pi)"))
        if not (0 <= box.frame_index < config.T):
            problems.append(FrameCountMismatch(
                f"track {box.track_id}: frame_index {box.frame_index} outside [0, {config.T})"))

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
