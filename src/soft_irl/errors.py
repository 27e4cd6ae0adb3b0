"""Exception types shared across the package.

Validation failures raise subclasses of :class:`SoftIrlError` so callers (in
particular the CLI) can distinguish bad input (exit code 2) from failed
numerical assertions (exit code 1).
"""

from __future__ import annotations


class SoftIrlError(Exception):
    """Base class for all package-specific errors."""


class InputError(SoftIrlError):
    """Malformed or inconsistent user input (files, configs, arguments)."""


class DimensionError(InputError):
    """Array shape mismatch.

    Carries the offending field name and the expected/actual shapes so error
    messages stay actionable when nested config files are involved.
    """

    def __init__(self, field: str, expected, actual) -> None:
        self.field = field
        self.expected = expected
        self.actual = actual
        super().__init__(f"{field}: expected shape {expected}, got {actual}")


class InvariantError(InputError):
    """A type-level invariant (normalization, positivity, ...) is violated."""


class EmptyDatasetError(InputError):
    """An operation that averages over trajectories received zero of them."""


class DomainError(InputError):
    """A scalar argument is outside the mathematical domain of the operation."""
