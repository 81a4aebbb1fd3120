"""Exception types shared across the package, and its floating-point error
state."""

from __future__ import annotations

import contextvars
import functools
from contextlib import contextmanager

import numpy as np


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


# The one error state the package sets: a division by zero, an overflow or
# a NaN shows as a non-finite value, which the package reports by name.
_RUN_STATE = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}
# The caller's np.geterr() while a run's state is in force, and None
# outside one: a ContextVar, as numpy keeps its own state, so each thread
# and task has its own.
_CALLER = contextvars.ContextVar("thermistor_fem_caller_error_state",
                                 default=None)


def _entry(state):
    """``state``, a numpy error state or a function numpy decorates with
    one, which its caller enters next: every state the package enters
    passes here, where a test can count them."""
    return state


def _own_state(fn):
    """A decorator: ``fn`` runs in a run's error state, ``_RUN_STATE``, by
    numpy's own ``np.errstate``-decorated function, unless a run's state is
    in force; then it runs in that state and switches none.  The wrapper
    carries the mark ``_own_state``, by which ``eval_sigma`` knows a sigma
    that holds its own state."""
    own = np.errstate(**_RUN_STATE)(fn)

    @functools.wraps(fn)
    def in_own_state(*args, **kwargs):
        if _CALLER.get() is None:
            return _entry(own)(*args, **kwargs)
        return fn(*args, **kwargs)

    in_own_state._own_state = True
    return in_own_state


@contextmanager
def _run_state():
    """Hold the run's error state, ``_RUN_STATE``, entered once, and keep
    the caller's state for ``_in_callers_state``; on leaving, numpy's state
    and the caller's kept state are as they were."""
    token = _CALLER.set(np.geterr())
    try:
        with _entry(np.errstate(**_RUN_STATE)):
            yield
    finally:
        _CALLER.reset(token)


def _in_callers_state(call, *args):
    """``call(*args)`` in the error state of the caller of the run whose
    state is in force, in which the package's functions enter their own
    states again, as they do outside a run; outside a run, as it is."""
    caller = _CALLER.get()
    if caller is None:
        return call(*args)
    token = _CALLER.set(None)
    try:
        with _entry(np.errstate(**caller)):
            return call(*args)
    finally:
        _CALLER.reset(token)
