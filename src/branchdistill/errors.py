"""Exception types shared across the pipeline.

Each exception corresponds to one failure mode of the public operations;
the CLI maps them onto process exit codes (configuration errors -> 2,
missing upstream artifacts -> 3, everything else -> 1).
"""

from contextlib import contextmanager


class InvalidConfig(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class InvalidParameter(ValueError):
    """A numerical argument violates a precondition (e.g. tau <= 0)."""


class InvalidRecord(ValueError):
    """A corpus record or rendering violates its invariants."""


class Unrecoverable(ValueError):
    """An answer span cannot be recovered from a marked token sequence."""


class InvalidLabel(ValueError):
    """A gold start/end index lies outside the prediction vector."""


class ShapeError(ValueError):
    """Array shapes are inconsistent with the operation's contract."""


class IncompleteLogits(KeyError):
    """A required teacher logit record is absent from the store."""


class SpanOutOfWindow(ValueError):
    """The gold answer span falls outside the packed input window."""


class StateError(RuntimeError):
    """An operation was called without its required cached state."""


class NoValidSpan(ValueError):
    """No (start, end) pair satisfies the decoding constraints."""


class MissingArtifact(FileNotFoundError):
    """An upstream pipeline artifact required by a command is missing."""


@contextmanager
def malformed_as_invalid(path, what: str):
    """Raise ``InvalidConfig`` naming the JSON artifact ``path`` when the
    ``with`` body cannot decode or parse it or finds a field missing or of
    the wrong type; the body's own ``InvalidConfig`` and ``InvalidRecord``
    pass through."""
    try:
        yield
    except (InvalidConfig, InvalidRecord):
        raise
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InvalidConfig(f"{what} {path} is malformed ({type(exc).__name__}: {exc})") from exc
