"""Exception and warning types shared across the pipeline."""

from __future__ import annotations


class SceneTokError(Exception):
    """Base class for all scenetok errors."""


class BundleValidationError(SceneTokError):
    """A scene bundle violated one or more type invariants.

    ``violations`` lists every violation found, not just the one this
    instance was raised for.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations if violations is not None else [message]


class NonFiniteCoordinate(BundleValidationError):
    pass


class BadRotation(BundleValidationError):
    pass


class DuplicateTrackFrame(BundleValidationError):
    pass


class DuplicateCameraFrame(BundleValidationError):
    pass


class FrameCountMismatch(BundleValidationError):
    pass


class InvalidInput(SceneTokError, ValueError):
    """A value the user supplied (config, scene spec, option) is invalid."""


class DegenerateInput(SceneTokError):
    """Too few or collinear points for a geometric fit."""


class DimensionMismatch(SceneTokError):
    """A feature map's channel count disagrees with the configured D."""


class BudgetMismatch(SceneTokError):
    """Point pools handed to compaction do not match the configured budgets."""


class ShapeMismatch(SceneTokError):
    """Tensor shapes disagree with the fusion network's contract."""


class StorageError(SceneTokError):
    """Base class for file-format errors."""


class BadMagic(StorageError):
    pass


class VersionUnsupported(StorageError):
    pass


class ShapeHeaderMismatch(StorageError):
    pass


class ManifestMissingEntry(StorageError):
    pass


class BadJson(StorageError):
    """A manifest or config file is not valid JSON."""


class BadManifestField(StorageError):
    """A manifest field has the wrong JSON type, or cannot be written as JSON."""


class IoFailure(StorageError):
    pass


class UnsupportedDtype(StorageError, ValueError):
    """An array's dtype has no code in the blob format."""


class BudgetOverflowWarning(UserWarning):
    """More elements than the budget allows; the overflow was dropped."""
