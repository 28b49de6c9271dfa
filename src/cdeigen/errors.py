"""Error types shared across the package.

Every raised error carries a short machine-readable ``code`` besides the
human message, so the command-line layer can map failures onto exit codes
and structured error reports without string matching.
"""

from __future__ import annotations

import math


class CdeigenError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class PreconditionError(CdeigenError):
    """An input violates a documented precondition (domain, hypothesis,
    schema, grid shape, ...).  Maps to exit code 2."""


class NonconvergenceError(CdeigenError):
    """An iterative numerical procedure exhausted its budget without
    reaching the requested tolerance.  Maps to exit code 3."""


def require_finite(**params: float) -> None:
    """Raise a ``domain`` error naming the first parameter that is NaN or infinite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise PreconditionError("domain", f"{name} must be finite, got {value}")
