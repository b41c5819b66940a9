"""Exception types shared across the package."""

__all__ = ["ParameterDomainError", "UnsupportedOperationError",
           "NeedsReferenceError", "WindowTooLateError", "IntegrationFailure"]


class ParameterDomainError(ValueError):
    """A parameter lies outside its admissible domain (e.g. mu not in (0, 1/L))."""


class UnsupportedOperationError(RuntimeError):
    """The requested oracle is not available for this function kind."""


class NeedsReferenceError(ValueError):
    """A reference minimizer / optimal value is required but was not supplied."""


class WindowTooLateError(ValueError):
    """The requested fit window contains values too small for a reliable fit."""


class IntegrationFailure(RuntimeError):
    """Adaptive integration failed (step-size underflow or non-finite field).

    Carries the partial trajectory accumulated before the failure.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
