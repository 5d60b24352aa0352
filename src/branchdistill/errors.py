"""Exception types shared across the pipeline.

Each type names one way data that enters the program can be bad: a flag or
config value, a file the program reads, or two artifacts that do not belong
together. Values the program built itself, or has already checked, are
trusted, so no type guards them. ``cli.guarded`` maps a missing upstream
artifact to exit 3 and every other type here to exit 2; anything else is
exit 1.
"""

from contextlib import contextmanager


class InvalidConfig(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class InvalidParameter(ValueError):
    """A computed value is not finite: a diverging loss, or logits a store
    could not hold."""


class InvalidRecord(ValueError):
    """A corpus record or rendering violates its invariants."""


class Unrecoverable(ValueError):
    """An answer span cannot be recovered from a marked token sequence."""


class IncompleteLogits(ValueError):
    """A required teacher logit record is absent from the store."""


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
