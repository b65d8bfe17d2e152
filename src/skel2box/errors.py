"""Exception hierarchy shared by all skel2box modules.

Each class is one kind of failure. Errors that carry a place in an input
(a line, a record or a key) expose it both in the message and as the
``location`` attribute, so callers can report diagnostics without string
parsing.
"""

from __future__ import annotations


class Skel2BoxError(Exception):
    """Base class for all errors raised by this package; ``location``, when
    given, is appended to the message."""

    def __init__(self, message: str, location: str | None = None):
        if location is not None:
            message = f"{message} ({location})"
        super().__init__(message)
        self.location = location


class InvalidArgument(Skel2BoxError, ValueError):
    """A caller-supplied value violates an operation precondition."""


class ParseError(Skel2BoxError):
    """Malformed input or a bad value in it; ``location`` points at the offending record."""


class IncompleteSkeleton(ParseError):
    """A pedestrian's joint records do not form a complete skeleton."""

    def __init__(self, message: str, frame_id: int, pedestrian_id: int):
        super().__init__(message, location=f"frame {frame_id}, pedestrian {pedestrian_id}")
        self.frame_id = frame_id
        self.pedestrian_id = pedestrian_id


class JoinError(Skel2BoxError):
    """A record names a video, frame or image that its table does not hold."""


class MixedVideos(Skel2BoxError):
    """A single-video output format received annotations from several videos."""


class InvalidConfig(Skel2BoxError):
    """A pipeline or training-plan configuration violates its invariants."""


class EmptyInput(Skel2BoxError):
    """An operation that requires at least one record received none."""
