"""Exception types shared across the package."""

from __future__ import annotations


class ThermistorError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ThermistorError):
    """Invalid run parameters, mesh sizes, or configuration files."""


class StepFailure(ThermistorError):
    """Base for the failures of a time step, in a model or a solve.  Raised
    inside a run's time loop, it carries ``step``, the failing step's index,
    and ``diagnostics``, the run's series up to it; elsewhere both are None."""

    step = None
    diagnostics = None


class ModelError(StepFailure):
    """A coefficient model gave an unphysical value (k <= 0, sigma < 0 or
    non-finite) or was evaluated outside its range."""


class SolverError(StepFailure):
    """Base for failures inside a linear solve or a time step."""


class SingularSystemError(SolverError):
    """Zero or near-zero pivot during elimination; ``row`` is the failing row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class NumericalFailureError(SolverError):
    """NaN/infinity contamination or other numerical breakdown."""


class NotSteadyError(ThermistorError, ValueError):
    """A steady-state result was required but the run never became steady."""
