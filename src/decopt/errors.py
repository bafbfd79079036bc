"""Exception types shared across the package.

Every error that the CLI maps to a distinct exit code lives here, so the
mapping stays in one place (see the EXIT_* constants in decopt.cli).
"""


class DecoptError(Exception):
    """Base class for all package errors."""


class ShapeError(DecoptError, ValueError):
    """Array dimensions do not match the expected layout."""


class ParameterError(DecoptError, ValueError):
    """A scalar parameter is outside its admissible range."""


class ConfigError(DecoptError, ValueError):
    """Experiment config is malformed; message names the offending key."""


class DataError(DecoptError, ValueError):
    """Dataset file is malformed, truncated, or too small."""


class NumericError(DecoptError, ArithmeticError):
    """Numeric failure: divergence, or a reference solve that stalls."""


class GraphGenerationError(DecoptError, RuntimeError):
    """Random graph sampling failed to produce a connected graph."""


class NotConvergedError(NumericError, RuntimeError):
    """Reference solver exhausted its budget; carries the best iterate."""

    def __init__(self, message, best_x=None, grad_norm=None):
        super().__init__(message)
        self.best_x = best_x
        self.grad_norm = grad_norm


class NoConvergentStepsizeError(DecoptError, RuntimeError):
    """A grid search has no stepsize to choose: every one diverged, or none
    ended with a finite metric."""


class ComparisonError(DecoptError, ValueError):
    """Configs passed to compare() do not share problem/graph seeds."""


class InsufficientDataError(DecoptError, ValueError):
    """Not enough points/samples for the requested computation."""
