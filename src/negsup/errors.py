"""Exception types shared across the package.

Every error raised on purpose derives from NegsupError so callers (and the
CLI) can distinguish expected failures from bugs.
"""


class NegsupError(Exception):
    """Base class for all package errors."""


class EmptyInput(NegsupError):
    """An input that must be non-empty was empty."""


class UnknownKey(NegsupError):
    """A file-backed lookup referenced a key that is not stored."""


class FormatError(NegsupError):
    """A file failed to parse (bad magic, dim mismatch, non-finite value, ...)."""


class EncodingError(FormatError, ValueError):
    """A text file holds bytes that are not UTF-8 (a ValueError, as the
    UnicodeDecodeError it replaces is)."""


class IoError(NegsupError):
    """An underlying filesystem operation failed."""


class DimMismatch(NegsupError):
    """Vector or matrix dimensions are inconsistent."""


class DuplicateId(NegsupError):
    """Two records share an id."""


class ZeroVector(NegsupError):
    """An operation that needs a nonzero vector received a zero vector."""


class EmptyRetrieval(NegsupError):
    """An operation that needs at least one retrieved item received none."""


class IndexOutOfRange(NegsupError):
    """A token index is outside the valid range."""


class NoGroundTruth(NegsupError):
    """Recall is undefined: no ground-truth entities anywhere."""


class InvariantError(NegsupError):
    """An internal data-structure invariant was violated."""
