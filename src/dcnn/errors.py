"""Exception hierarchy shared across the package, and the one lower-bound
check that configs make of their integer fields.

The CLI maps these onto exit codes: validation/config problems exit 2,
I/O problems exit 1, numeric divergence exits 3.
"""

from __future__ import annotations


class DcnnError(Exception):
    """Base class for all package errors."""


class ShapeError(DcnnError, ValueError):
    """Array dimensions incompatible with an operation; names the offending axes."""


class ValidationError(DcnnError, ValueError):
    """A config field or input value violates its invariants."""


def require_at_least(low, obj, *names) -> None:
    """Raise ValidationError naming the first field of ``obj`` below ``low``."""
    for name in names:
        value = getattr(obj, name)
        if value < low:
            raise ValidationError(f"{name} must be >= {low}, got {value}")


class ParseError(ValidationError):
    """Malformed input file; message carries the line number."""


class PlacementError(DcnnError):
    """Motif embedding could not find non-overlapping positions."""


class GenerationError(DcnnError):
    """Dataset generation exhausted its retry budget."""


class CheckpointError(ValidationError):
    """Checkpoint file is missing, corrupt, or structurally wrong."""


class ProtocolError(DcnnError):
    """A collective was called with inconsistent arguments across workers."""


class PeerClosed(ProtocolError):
    """The link to a peer rank is closed: the peer, or this rank, has ended."""


class InternalConsistencyError(DcnnError):
    """Cached state does not match the data it is replayed against."""


class TrainingDivergedError(DcnnError):
    """Training produced non-finite values.

    Carries the last epoch that completed with finite metrics and, when
    available, the partial report assembled so far.
    """

    def __init__(self, message: str, last_good_epoch: int = -1, partial_report=None):
        super().__init__(message)
        self.last_good_epoch = last_good_epoch
        self.partial_report = partial_report
