"""Exception types shared across the package, and the check that config
values are finite."""

import math


def require_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first of ``obj``'s fields ``names`` that
    is NaN or infinite: one such value turns every later loss into NaN."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class MicrovocError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(MicrovocError, ValueError):
    """Tensor dims are invalid or incompatible for the requested operation."""


class StateError(MicrovocError, RuntimeError):
    """An operation was called in a state that cannot support it
    (e.g. backward without a cached forward)."""


class NumericError(StateError):
    """Training reached a non-finite loss; the step that reached it is not
    applied."""


class ArchError(MicrovocError, ValueError):
    """Architecture string failed to parse or shape-check.

    ``pos`` is the character offset of the offending token, when known.
    """

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)
        self.pos = pos


class ManifestError(MicrovocError, ValueError):
    """Dataset manifest is malformed. ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IngestError(MicrovocError, RuntimeError):
    """Records of a manifest failed to load: too many for ingest, or any
    one for a held-out evaluation."""


class ConfigError(MicrovocError, ValueError):
    """Run configuration file contains unknown keys or bad values."""


class CheckpointError(MicrovocError, RuntimeError):
    """Checkpoint file is missing, truncated or corrupt."""


class VersionError(CheckpointError):
    """Checkpoint was written by an incompatible format version."""
