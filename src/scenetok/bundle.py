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
    BudgetMismatch,
    BundleValidationError,
    DuplicateCameraFrame,
    DuplicateTrackFrame,
    FrameCountMismatch,
    NonFiniteCoordinate,
)
from .pooling import point_features

# Element kinds, also the on-disk codebook.
KIND_AGENT = "agent"
KIND_OPENSET = "open-set"
KIND_GROUND = "ground"
KIND_CODES = {KIND_AGENT: 0, KIND_OPENSET: 1, KIND_GROUND: 2}
KIND_NAMES = {code: name for name, code in KIND_CODES.items()}

# Largest |coordinate| in meters that validation accepts for points, agent
# box centers and sizes, and camera translations.  Far larger values
# overflow float32 in fusion (~3e38 m: NaN tokens) or float64 in neighbour
# queries (~1e154 m).
MAX_COORDINATE_M = 1e9
_FAR = f"beyond {MAX_COORDINATE_M:.0e} m"

# Each table's SceneBundle columns: dtype and row shape.  The columns of one
# table must have one length; a length error names them in this order.
AGENT_COLUMNS = {"agent_track": (np.int64, ()), "agent_frame": (np.int64, ()),
                 "agent_box": (np.float64, (7,)),
                 "agent_label": (object, ())}
CAMERA_COLUMNS = {"camera_id": (np.int64, ()), "camera_frame": (np.int64, ()),
                  "camera_intrinsics": (np.float64, (4,)),
                  "camera_rotation": (np.float64, (3, 3)),
                  "camera_translation": (np.float64, (3,)),
                  "camera_valid": (bool, ()), "camera_size": (np.int64, (2,))}
_COLUMNS = {"points": (np.float64, (3,)), "frame_size": (np.int64, ()),
            **AGENT_COLUMNS, **CAMERA_COLUMNS}


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

    The cameras are one table, a row per (camera, frame) feature map in
    manifest order: ``camera_id``, ``camera_frame`` (C,) int64;
    ``camera_intrinsics`` (C, 4) float64 fx, fy, cx, cy at feature-map
    resolution; ``camera_rotation`` (C, 3, 3) and ``camera_translation``
    (C, 3) float64 mapping world into camera coordinates,
    ``p_cam = R @ p + t``; ``camera_valid`` (C,) bool; ``camera_size``
    (C, 2) int64 map height and width.  ``pixel_features`` (pixels, D) holds
    every map's pixels: camera c's (H, W) map, row-major, is rows
    ``camera_base[c]`` to ``camera_base[c] + H * W``.
    """

    points: np.ndarray = ()
    frame_size: np.ndarray = ()
    agent_track: np.ndarray = ()
    agent_frame: np.ndarray = ()
    agent_box: np.ndarray = ()
    agent_label: np.ndarray = ()
    camera_id: np.ndarray = ()
    camera_frame: np.ndarray = ()
    camera_intrinsics: np.ndarray = ()
    camera_rotation: np.ndarray = ()
    camera_translation: np.ndarray = ()
    camera_valid: np.ndarray = ()
    camera_size: np.ndarray = ()
    pixel_features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        for name, (dtype, row) in _COLUMNS.items():
            setattr(self, name, np.asarray(getattr(self, name),
                                           dtype=dtype).reshape(-1, *row))
        self.pixel_features = np.asarray(self.pixel_features)

    @property
    def camera_base(self) -> np.ndarray:
        """(C,) int64 first ``pixel_features`` row of each camera's map."""
        n_pixels = self.camera_size.prod(axis=1)
        return np.cumsum(n_pixels) - n_pixels

    def feature_map(self, c: int) -> np.ndarray:
        """Camera row ``c``'s (H, W, D) feature map, a view of the table."""
        (h, w), base = self.camera_size[c].tolist(), int(self.camera_base[c])
        return self.pixel_features[base:base + h * w].reshape(h, w, -1)


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


@dataclass
class TokenizedScene:
    """The compacted model input.

    ``P_ind`` columns are (frame id, token id).  A point's image feature is
    one row of ``features``, in the pipeline the bundle's pixel table:
    ``pixel`` (N_pts,) names each point's row, or is -1 for a point that no
    camera sees.  The number of points per frame is variable; only the
    per-kind totals are budgeted.  Row i of the element table (``B``,
    ``elem_valid``, ``kind``, ``source_id``) is token id i.  Construction
    raises BudgetMismatch if ``pixel`` is not one id per point or an id is
    outside [-1, len(features)).
    """

    P_xyz: np.ndarray       # (N_pts, 3)
    P_ind: np.ndarray       # (N_pts, 2) int64
    features: np.ndarray    # (rows, D)
    pixel: np.ndarray       # (N_pts,) int64, -1 = unseen
    B: np.ndarray           # (N_elem, T, 7)
    elem_valid: np.ndarray  # (N_elem, T) bool
    kind: np.ndarray        # (N_elem,) int64 KIND_CODES
    source_id: np.ndarray   # (N_elem,) int64

    def __post_init__(self):
        self.pixel = np.asarray(self.pixel)
        n_pts, n_rows = len(self.P_xyz), len(self.features)
        if self.pixel.ndim != 1 or self.pixel.size != n_pts:
            raise BudgetMismatch(f"pixel has {self.pixel.size} ids for "
                                 f"{n_pts} points")
        bad = np.flatnonzero((self.pixel < -1) | (self.pixel >= n_rows))
        if bad.size:
            raise BudgetMismatch(f"point {bad[0]} reads pixel "
                                 f"{self.pixel[bad[0]]} of a {n_rows}-row "
                                 f"feature table")

    @property
    def F_pts_valid(self) -> np.ndarray:
        """(N_pts,) bool: the points that read an image feature."""
        return self.pixel >= 0

    @property
    def F_pts(self) -> np.ndarray:
        """(N_pts, D) per-point image features, gathered on each call.

        Rows of points whose ``pixel`` is -1 are exactly zero.  The dtype is
        that of ``features``, at least float32.
        """
        return point_features(self.features, self.pixel)

    @property
    def elements(self) -> list[SceneElement]:
        """One SceneElement per row of the element table; the token id is
        the row."""
        return [SceneElement(token_id=row, kind=KIND_NAMES[code], boxes=b,
                             frame_valid=v, source_id=s)
                for row, (code, b, v, s) in enumerate(zip(
                    self.kind.tolist(), self.B, self.elem_valid,
                    self.source_id.tolist()))]

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


def normalize_heading(h):
    """Wrap heading(s) into [-pi, pi)."""
    return np.mod(np.asarray(h) + math.pi, 2.0 * math.pi) - math.pi


def _frame_size_error(bundle: SceneBundle) -> BundleValidationError | None:
    size, n_points = bundle.frame_size, bundle.points.shape[0]
    if (size < 0).any() or size.sum() != n_points:
        return BundleValidationError(
            f"frame_size {size.tolist()} must be non-negative and sum to "
            f"the {n_points} points")
    return None


def _length_error(bundle: SceneBundle, table: str,
                  columns: dict) -> BundleValidationError | None:
    lengths = tuple(len(getattr(bundle, name)) for name in columns)
    if len(set(lengths)) > 1:
        names = ", ".join(name.split("_", 1)[1] for name in columns)
        return BundleValidationError(
            f"{table} columns {names} differ in length: {lengths}")
    return None


def _repeats(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n,) bool: the rows whose (a, b) pair an earlier row already has."""
    repeat = np.ones(a.size, dtype=bool)
    repeat[np.unique(np.stack([a, b], axis=1), axis=0,
                     return_index=True)[1]] = False
    return repeat


def _raise_first(problems: list[BundleValidationError]) -> None:
    """Raise the first problem, listing all of them in its ``violations``."""
    if problems:
        head = problems[0]
        head.violations = [str(p) for p in problems]
        raise head


def _camera_table_errors(bundle: SceneBundle) -> list[BundleValidationError]:
    """Camera columns of unequal length, empty maps, a pixel table that is
    not (Σ H·W, D), and repeated (camera, frame) pairs."""
    length_error = _length_error(bundle, "camera", CAMERA_COLUMNS)
    if length_error is not None:
        return [length_error]
    problems: list[BundleValidationError] = []
    ids, frames, size = bundle.camera_id, bundle.camera_frame, bundle.camera_size
    table = bundle.pixel_features
    D = table.shape[1:] if table.ndim == 2 else ()
    for c in np.flatnonzero((size <= 0).any(axis=1) | (0 in D)).tolist():
        problems.append(BundleValidationError(
            f"camera {ids[c]} frame {frames[c]}: feature map must be a "
            f"non-empty (H, W, D) array, got shape {(*size[c].tolist(), *D)}"))
    n_pixels = int(size.prod(axis=1).sum())
    if table.ndim != 2 or len(table) != n_pixels:
        problems.append(BundleValidationError(
            f"pixel table must be ({n_pixels}, D) for the cameras' {n_pixels} "
            f"pixels, got shape {table.shape}"))
    for c in np.flatnonzero(_repeats(ids, frames)).tolist():
        problems.append(DuplicateCameraFrame(
            f"camera {ids[c]} appears twice in frame {frames[c]}"))
    return problems


def check_tables(bundle: SceneBundle) -> None:
    """Raise BundleValidationError unless the point, agent and camera tables
    agree.

    ``frame_size`` must be non-negative and sum to ``len(points)``, the four
    agent columns must have one length, and so must the camera columns;
    every camera map must be non-empty, ``pixel_features`` must hold their
    Σ H·W rows, and no (camera, frame) pair may repeat
    (DuplicateCameraFrame).  Needs no config, so a bundle writer can run it
    before it writes anything.
    """
    problems = [e for e in (_frame_size_error(bundle),
                            _length_error(bundle, "agent", AGENT_COLUMNS))
                if e is not None]
    _raise_first(problems + _camera_table_errors(bundle))


def check_bundle(bundle: SceneBundle, config: PipelineConfig) -> list[BundleValidationError]:
    """Collect every invariant violation in ``bundle`` without raising."""
    problems: list[BundleValidationError] = []

    size, points = bundle.frame_size, bundle.points
    if size.size != config.T:
        problems.append(FrameCountMismatch(
            f"bundle has {size.size} frames, config expects T={config.T}"))
    table_error = _frame_size_error(bundle)
    if table_error is not None:
        problems.append(table_error)
        return problems
    # The first non-finite row of each frame, then the first row beyond the
    # coordinate bound, counted within the frame.
    start = np.cumsum(size) - size
    outside = np.flatnonzero(~(np.abs(points) <= MAX_COORDINATE_M).all(axis=1))
    finite = np.isfinite(points[outside]).all(axis=1)
    for bad, error, what in (
            (outside[~finite], NonFiniteCoordinate, "non-finite point coordinate"),
            (outside[finite], BundleValidationError, f"point coordinate {_FAR}")):
        frame, first = np.unique(np.searchsorted(start, bad, side="right") - 1,
                                 return_index=True)
        for f, row in zip(frame.tolist(), (bad[first] - start[frame]).tolist()):
            problems.append(error(f"frame {f}: {what} at row {row}"))

    camera_errors = _camera_table_errors(bundle)
    problems += camera_errors
    for c in range(0 if camera_errors else bundle.camera_id.size):
        i, f = bundle.camera_id[c].item(), bundle.camera_frame[c].item()
        R = bundle.camera_rotation[c]
        err = np.abs(R.T @ R - np.eye(3)).max()
        if not err <= 1e-6:
            problems.append(BadRotation(
                f"camera {i} frame {f}: rotation not orthonormal "
                f"(|R^T R - I| = {err:.3g})"))
        if not (np.abs(bundle.camera_translation[c]) <= MAX_COORDINATE_M).all():
            problems.append(BundleValidationError(
                f"camera {i} frame {f}: translation non-finite or {_FAR}"))
        if not np.isfinite(bundle.feature_map(c)).all():
            problems.append(NonFiniteCoordinate(
                f"camera {i} frame {f}: non-finite feature values"))
        if not (0 <= f < config.T):
            problems.append(FrameCountMismatch(
                f"camera {i}: frame_index {f} outside [0, {config.T})"))

    track, frame, box = bundle.agent_track, bundle.agent_frame, bundle.agent_box
    table_error = _length_error(bundle, "agent", AGENT_COLUMNS)
    if table_error is not None:
        problems.append(table_error)
        return problems
    finite = np.isfinite(box).all(axis=1)
    heading = box[:, 6]
    # One column per check, in the order a row reports them; a row with a
    # non-finite attribute reports nothing after that.
    failed = np.stack([_repeats(track, frame), ~finite,
                       finite & (box[:, 3:6] <= 0).any(axis=1),
                       finite & (np.abs(box[:, :6]) > MAX_COORDINATE_M).any(axis=1),
                       finite & ~((-math.pi <= heading) & (heading < math.pi)),
                       finite & ~((0 <= frame) & (frame < config.T))], axis=1)
    for row, check in zip(*np.nonzero(failed)):
        t, f, h = track[row].item(), frame[row].item(), heading[row].item()
        error, message = (
            (DuplicateTrackFrame, f"track {t} appears twice in frame {f}"),
            (NonFiniteCoordinate, f"track {t} frame {f}: non-finite box attribute"),
            (BundleValidationError, f"track {t} frame {f}: non-positive size"),
            (BundleValidationError,
             f"track {t} frame {f}: center or size {_FAR}"),
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
    _raise_first(check_bundle(bundle, config))
    return bundle
