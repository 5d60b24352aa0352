"""Exception types shared across the pipeline, one per exit code.

Data that enters the program can be bad in a few ways: a flag or config
value, a file the program reads, or two artifacts that do not belong
together. Each is an ``InvalidConfig`` with a message naming what is wrong,
and ``cli.guarded`` maps it to exit 2; a missing upstream artifact is a
``MissingArtifact``, exit 3; anything else is exit 1. Values the program
built itself, or has already checked, are trusted, so no type guards them.
"""

from contextlib import contextmanager


class InvalidConfig(ValueError):
    """A setting, an artifact or a pair of artifacts is missing a field,
    malformed, out of range or inconsistent."""


class MissingArtifact(FileNotFoundError):
    """An upstream pipeline artifact required by a command is missing."""


@contextmanager
def malformed_as_invalid(path, what: str):
    """Raise ``InvalidConfig`` naming the JSON artifact ``path`` when the
    ``with`` body cannot decode or parse it or finds a field missing or of
    the wrong type; the body's own ``InvalidConfig`` passes through."""
    try:
        yield
    except InvalidConfig:
        raise
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InvalidConfig(f"{what} {path} is malformed ({type(exc).__name__}: {exc})") from exc
