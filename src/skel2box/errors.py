"""Exception hierarchy shared by all skel2box modules.

Errors that carry a file location (line number or record index) expose it
both in the message and as an attribute so callers can report diagnostics
without string parsing.
"""

from __future__ import annotations


class Skel2BoxError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(Skel2BoxError, ValueError):
    """A caller-supplied value violates an operation precondition."""


class DegenerateSkeleton(Skel2BoxError):
    """Skeleton joint hull has zero width or zero height."""


class NonPositiveDistance(Skel2BoxError):
    """Computed pedestrian-camera distance is not finite and positive."""


class EmptySampleSet(Skel2BoxError):
    """Calibration was attempted with no samples."""


class _Located(Skel2BoxError):
    """An error at a place in an input: ``location`` is appended to the message."""

    def __init__(self, message: str, location: str | None = None):
        if location is not None:
            message = f"{message} ({location})"
        super().__init__(message)
        self.location = location


class InvalidSample(_Located):
    """A calibration sample violates its invariants (source location attached)."""


class ParseError(_Located):
    """Malformed input file; ``location`` points at the offending record."""


class IncompleteSkeleton(ParseError):
    """A pedestrian's joint records do not form a complete skeleton."""

    def __init__(self, message: str, frame_id: int, pedestrian_id: int):
        super().__init__(message, location=f"frame {frame_id}, pedestrian {pedestrian_id}")
        self.frame_id = frame_id
        self.pedestrian_id = pedestrian_id


class UnknownVideo(Skel2BoxError):
    """An annotation references a video/frame missing from the manifest."""


class MixedVideos(Skel2BoxError):
    """A single-video output format received annotations from several videos."""


class InvalidScore(_Located):
    """A detection confidence is outside [0, 1] beyond the clamping slack."""


class JoinError(Skel2BoxError):
    """A detection references a frame absent from the ground-truth index."""


class InvalidConfig(Skel2BoxError):
    """A pipeline or training-plan configuration violates its invariants."""


class EmptyInput(Skel2BoxError):
    """An operation that requires at least one record received none."""
