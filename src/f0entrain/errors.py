"""Exception types shared across the toolkit.

The CLI maps DataError subclasses to exit code 1 and OS-level errors
(missing files, unwritable directories) to exit code 2.
"""

from contextlib import contextmanager


class DataError(Exception):
    """Base class for errors caused by corpus content."""


class ParseError(DataError):
    """A file could not be parsed in its declared format."""


class ValidationError(DataError):
    """Parsed data violates a corpus invariant (names the offending record)."""


class ComputeError(DataError):
    """An operation's precondition on the data does not hold (degenerate input)."""


@contextmanager
def prefixed(prefix: str, caught=ComputeError, raised=ComputeError):
    """Re-raise a ``caught`` error as ``raised`` (None: its own type), its
    message after ``prefix: ``, which names the input or option at fault."""
    try:
        yield
    except caught as exc:
        raise (raised or type(exc))(f"{prefix}: {exc}") from exc
