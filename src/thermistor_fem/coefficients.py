"""Physics coefficients: the constant k, sigma(u) and boundary flux data."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (ConfigurationError, ModelError, _in_callers_state,
                     _own_state)

MODEL_KINDS = ("constant", "paper_example", "rational_sigma")


def as_float(value: numbers.Real) -> float:
    """``float(value)``, with a real number too large for a float (an int
    such as 10**400) taken as the infinity of its sign, as the CLI's
    ``float`` parse of its text gives, so a finiteness check refuses it."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def finite_float(name: str, value, error: type[Exception]) -> float:
    """``as_float(value)`` of a real, finite ``value``; otherwise ``error``
    says that ``name`` must be a real number, or finite."""
    if not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    number = as_float(value)
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {number}")
    return number


@dataclass(frozen=True)
class CoefficientModel:
    """Physics bundle for one simulation.

    ``k`` is the thermal conductivity, a constant: only the electrical
    conductivity depends on temperature.  It must be a real number, positive
    and finite, and the fluxes real and finite, which is checked once, here,
    with a ModelError naming the field, and all three are kept as floats.
    ``electrical_conductivity`` is either a callable that maps temperature
    to sigma(u) >= 0 and broadcasts over numpy arrays, or a number, the
    sigma of every temperature.  A number must be >= 0 and finite, which is
    checked here and kept as a float; a run evaluates it once and holds the
    potential it gives for every step.
    """

    k: float
    electrical_conductivity: Callable | float
    flux_left: float
    flux_right: float

    def __post_init__(self):
        # k has its own message, as it must also be positive
        k = self.k
        if isinstance(k, numbers.Real) and not 0.0 < as_float(k) < math.inf:
            raise ModelError(
                f"thermal conductivity k must be positive and finite, "
                f"got {as_float(k)!r}")
        for name in ("k", "flux_left", "flux_right"):
            object.__setattr__(self, name, finite_float(
                name, getattr(self, name), ModelError))
        sigma = self.electrical_conductivity
        if callable(sigma):
            return
        if isinstance(sigma, numbers.Real):
            sigma = as_float(sigma)
        if not (isinstance(sigma, float) and math.isfinite(sigma)
                and sigma >= 0.0):
            raise ModelError(
                "electrical conductivity must be a callable or a number "
                f">= 0 and finite, got {sigma!r}")
        object.__setattr__(self, "electrical_conductivity", sigma)


def eval_k(model: CoefficientModel, u):
    """Thermal conductivity at u: the constant ``model.k``, shaped like u."""
    return model.k if np.ndim(u) == 0 else np.full(np.shape(u), model.k)


def eval_sigma(model: CoefficientModel, u):
    """Electrical conductivity at u, shaped like u.

    A numeric sigma is returned as it is, or filled into an array of u's
    shape.  A callable's values are checked: they must have u's shape, or a
    ModelError names both shapes, and be >= 0 and finite, or a ModelError
    names the first that is not.  min >= 0 and max < inf hold exactly when
    every value is finite and >= 0: a NaN makes both reductions NaN, and
    -0.0 passes as 0.0 does.  A callable the package did not make runs in
    the caller's floating-point error state, inside a run or a step that of
    their caller, so its own overflow warns or raises as it would outside
    them; ``ModelSpec.build``'s ``rational_sigma`` runs in the state in
    force, a run's own inside a run.
    """
    sigma = model.electrical_conductivity
    if not callable(sigma):
        return sigma if np.ndim(u) == 0 else np.full(np.shape(u), sigma)
    arr = np.asarray(sigma(u) if getattr(sigma, "_package_made", False)
                     else _in_callers_state(sigma, u), dtype=float)
    if arr.shape != np.shape(u):
        raise ModelError(
            f"electrical conductivity must broadcast over u: sigma(u) has "
            f"shape {arr.shape} for u of shape {np.shape(u)}")
    if arr.size and not (np.minimum.reduce(arr, axis=None) >= 0.0
                         and np.maximum.reduce(arr, axis=None) < math.inf):
        bad = np.flatnonzero(~((arr >= 0.0) & np.isfinite(arr)))
        first = int(bad[0])
        raise ModelError(
            "electrical conductivity must be >= 0 and finite; "
            f"{bad.size} of {arr.size} values fail, first at index {first}: "
            f"{float(arr.flat[first])!r}")
    return float(arr) if arr.ndim == 0 else arr


# where den * den overflows, sigma is 0, which the potential reports; a
# direct call sets and resets the error state in about half the time of a
# ``with`` block, and inside a run, whose state ignores overflow, sets none
@_own_state(over="ignore")
def _inverse_square(s0: float, den):
    """rational_sigma's s0 / den^2, squaring ``den``, its own array, in
    place."""
    den *= den
    return s0 / den


def validate_physical(beta: float, gamma: float) -> bool:
    """Check the modelling constraint 1/beta + 1/2 <= 1/gamma.

    Advisory only: callers warn rather than refuse when it fails.
    """
    if beta <= 0.0 or gamma <= 0.0:
        raise ValueError("validate_physical requires beta > 0 and gamma > 0")
    return 1.0 / beta + 0.5 <= 1.0 / gamma


@dataclass(frozen=True)
class ModelSpec:
    """Declarative model family selection.

    A kind takes exactly the parameters it reads; a missing or an unknown
    one is a ConfigurationError.  Every kind has a constant thermal
    conductivity k:
      constant        k = k0, sigma(u) = sigma0
      paper_example   k = 1,  sigma(u) = gamma   (constant-coefficient benchmark)
      rational_sigma  k = k0, sigma(u) = sigma0 / (1 + lambda*u)^2, and a u
                      at or past its pole 1 + lambda*u = 0 is a ModelError
    ``build`` gives the two constant kinds their sigma as a number, sigma0
    or gamma, and rational_sigma a callable.
    """

    kind: str
    parameters: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(
                f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        required = {
            "constant": ("k0", "sigma0"),
            "paper_example": ("gamma",),
            "rational_sigma": ("k0", "sigma0", "lambda"),
        }[self.kind]
        missing = [p for p in required if p not in self.parameters]
        if missing:
            raise ConfigurationError(
                f"model kind {self.kind!r} needs parameters {missing}")
        # a key the kind does not read would be dropped without a word
        unknown = [p for p in self.parameters if p not in required]
        if unknown:
            raise ConfigurationError(
                f"model kind {self.kind!r} does not read parameters {unknown}")
        for name in required:
            value = finite_float(name, self.parameters[name],
                                 ConfigurationError)
            # k0, sigma0 and gamma fix the sign of k and sigma, which the
            # model or eval_sigma would otherwise refuse
            if name == "k0" and value <= 0.0:
                raise ConfigurationError(f"k0 must be positive, got {value}")
            if name in ("sigma0", "gamma") and value < 0.0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")

    def build(self, flux_left: float, flux_right: float) -> CoefficientModel:
        p = self.parameters
        if self.kind == "constant":
            k, sigma = float(p["k0"]), float(p["sigma0"])
        elif self.kind == "paper_example":
            k, sigma = 1.0, float(p["gamma"])
        else:  # rational_sigma
            k, s0, lam = float(p["k0"]), float(p["sigma0"]), float(p["lambda"])

            def sigma(u, _s0=s0, _lam=lam):
                u = np.asarray(u, dtype=float)
                den = _lam * u
                den += 1.0
                # past the pole den = 0, den^2 grows again and a run across it
                # would settle on a spurious steady state; NaN is not past
                # it, so a minimum that is NaN leaves the verdict to the
                # nodes one by one
                if not np.minimum.reduce(den, axis=None) > 0.0:
                    past = den <= 0.0
                    if past.any():
                        first = int(np.argmax(past))
                        node = "" if u.ndim == 0 else f" at node {first}"
                        raise ModelError(
                            f"u = {float(u.flat[first])!r}{node} is at or "
                            f"past the pole u = {-1.0 / _lam!r} of "
                            "rational_sigma")
                return _inverse_square(_s0, den)

            sigma._package_made = True  # eval_sigma runs it in a run's state
        return CoefficientModel(
            k=k,
            electrical_conductivity=sigma,
            flux_left=float(flux_left),
            flux_right=float(flux_right),
        )
