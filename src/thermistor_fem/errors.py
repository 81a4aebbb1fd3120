"""Exception types shared across the package."""

from __future__ import annotations


class ThermistorError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ThermistorError):
    """Invalid run parameters, mesh sizes, or configuration files."""


class ModelError(ThermistorError):
    """A coefficient model produced an unphysical value (k <= 0, sigma < 0,
    non-finite).  Raised inside a run's time loop, it carries ``step`` and
    ``diagnostics`` as a SolverError does; elsewhere both stay None."""

    step = None
    diagnostics = None


class SolverError(ThermistorError):
    """Base for failures inside a linear solve or a time step.

    ``step`` is the index of the failing time step and ``diagnostics`` the
    run's series up to it; the simulation driver fills both in when the
    failure occurred inside its time loop.  Both stay None for standalone
    solves.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
        self.diagnostics = None


class SingularSystemError(SolverError):
    """Zero or near-zero pivot during elimination; ``row`` is the failing row."""

    def __init__(self, message: str, row: int | None = None, step: int | None = None):
        super().__init__(message, step=step)
        self.row = row


class NumericalFailureError(SolverError):
    """NaN/infinity contamination or other numerical breakdown."""


class NotSteadyError(ThermistorError, ValueError):
    """A steady-state result was required but the run never became steady."""
