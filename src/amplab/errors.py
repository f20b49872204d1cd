"""Shared exception types.

Plain ``ValueError`` is used for invalid arguments and domain violations;
the classes below cover failure modes that callers may want to catch
separately (and that the CLI maps to machine-readable error records).
"""


class AmpLabError(Exception):
    """Base class for amplab-specific failures."""


class NumericError(AmpLabError):
    """A computation produced non-finite values or failed to reach the
    requested numerical accuracy (e.g. a linear solve that stalls)."""


class ConvergenceError(AmpLabError):
    """An iterative solver exhausted its iteration budget.

    Carries the last residual so callers can report how close it got.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ResourceError(AmpLabError):
    """An internal store grew past its configured cap."""
