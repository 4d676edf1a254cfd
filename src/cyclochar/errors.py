"""Exception types shared across the package.

The CLI maps these onto stable exit codes: bad inputs / unmet
preconditions exit 2, internal consistency failures exit 1, and a
disproved algebraic identity exits 3.
"""


class CyclocharError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(CyclocharError, ValueError):
    """An argument violates a documented precondition."""


class ConditionFailedError(InvalidArgumentError):
    """A required gcd condition does not hold for the given exponents."""

    def __init__(self, message, failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class ResourceLimitError(CyclocharError, RuntimeError):
    """The requested computation exceeds a configured cap."""


class ConsistencyError(CyclocharError, RuntimeError):
    """An internal exactness invariant broke; indicates a bug, not bad input."""


class TheoremViolationError(CyclocharError, RuntimeError):
    """A verification sweep found a counterexample to a proved identity."""
