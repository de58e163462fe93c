"""Exception hierarchy shared by all modules, and the byte budget.

Each exception maps to a CLI exit code; see cli.py.
"""

import os

MAX_BYTES_ENV = "SNVERIFY_MAX_BYTES"


class SnverifyError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InvalidArgumentError(SnverifyError):
    """Malformed or out-of-domain input."""

    exit_code = 2


class DegenerateInputError(InvalidArgumentError):
    """Input is structurally valid but degenerate (e.g. zero component)."""


class ResourceLimitError(SnverifyError):
    """A step's predicted peak memory exceeds the byte budget; the message
    names the step, its predicted bytes and the budget."""

    exit_code = 3


class NumericalConsistencyError(SnverifyError):
    """A quantity that must be integral (or otherwise exact) drifted
    beyond tolerance; signals a bug rather than a rounding choice."""

    exit_code = 4


def require_bytes(nbytes: int, what: str) -> None:
    """Refuse a step before it allocates: raise ResourceLimitError when
    nbytes, the predicted peak of what the step holds at once, exceeds the
    byte budget SNVERIFY_MAX_BYTES (default 2^29 B).  The budget bounds
    each step's peak, not the process total, and not time."""
    raw = os.environ.get(MAX_BYTES_ENV, str(1 << 29))  # 512 MiB
    if not raw.isdecimal():
        raise InvalidArgumentError(f"{MAX_BYTES_ENV} must be a nonnegative integer, got {raw!r}")
    if nbytes > int(raw):
        raise ResourceLimitError(
            f"{what}: {nbytes} B predicted, over the byte budget of {raw} B "
            f"(set {MAX_BYTES_ENV} to raise it)"
        )
