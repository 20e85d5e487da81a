"""Exception types shared across the package, and the integer argument
check that raises one."""

from __future__ import annotations


class BlbcError(Exception):
    """Base class for every error this package raises deliberately."""


class InputError(BlbcError, ValueError):
    """Invalid argument, point data, or file content supplied by a caller."""


class RationalFormatError(InputError):
    """A rational string is not in strict reduced ``p`` / ``p/q`` form."""


class DegenerateSegmentError(InputError):
    """A segment operation received two identical endpoints."""


class ParameterRangeError(InputError):
    """A segment parameter fell outside the open interval (0, 1)."""


class DuplicatePointError(InputError):
    """A point set contained the same point at two different indices."""


class SeedError(InputError):
    """A seed triple was degenerate: duplicate or collinear points."""


class PendingPairError(InputError):
    """An operation referenced a pair that is not pending in the state."""


class PlacementError(InputError):
    """An insertion parameter is excluded: it would put the new point on a
    second line through existing points."""


class ConsistencyError(InputError):
    """A trace and a point set do not describe the same construction run."""


class FormatError(InputError):
    """A text payload failed strict parsing; ``field`` names the location."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


class ImpossibleStateError(BlbcError):
    """An invariant the construction is supposed to guarantee was observed
    broken.  This signals a corrupted state or a bug, not bad user input."""


def _require_int(value: object, what: str) -> None:
    """Refuse ``value`` as ``what`` unless it is an int and not a bool:
    indices, thresholds and counts are never truncated or compared as
    floats."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be int, got {value!r}")
