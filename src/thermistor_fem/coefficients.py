"""Physics coefficients: k(u), sigma(u) and boundary flux data."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError, ModelError

MODEL_KINDS = ("constant", "paper_example", "rational_sigma")


@dataclass(frozen=True)
class CoefficientModel:
    """Evaluable physics bundle for one simulation.

    ``thermal_conductivity`` and ``electrical_conductivity`` map temperature
    to k(u) > 0 and sigma(u) >= 0; both must broadcast over numpy arrays.
    ``sigma_is_zero`` marks models with literally no electrical conduction,
    which the driver uses to skip the (singular) potential solve.
    """

    thermal_conductivity: Callable
    electrical_conductivity: Callable
    flux_left: float
    flux_right: float
    sigma_is_zero: bool = False


def eval_k(model: CoefficientModel, u):
    """Thermal conductivity at u; rejects nonpositive or non-finite values."""
    arr = np.asarray(model.thermal_conductivity(u), dtype=float)
    _check(arr, arr > 0.0, "thermal conductivity must be positive and finite")
    return float(arr) if arr.ndim == 0 else arr


def eval_sigma(model: CoefficientModel, u):
    """Electrical conductivity at u; rejects negative or non-finite values."""
    arr = np.asarray(model.electrical_conductivity(u), dtype=float)
    _check(arr, arr >= 0.0, "electrical conductivity must be >= 0 and finite")
    return float(arr) if arr.ndim == 0 else arr


def _check(arr: np.ndarray, ok: np.ndarray, requirement: str) -> None:
    """Raise a ModelError unless every entry is finite and ok; the message
    gives the count of failing entries and the first one, not the array."""
    if np.isfinite(arr).all() and ok.all():
        return
    bad = np.flatnonzero(~(ok & np.isfinite(arr)))
    first = int(bad[0])
    raise ModelError(f"{requirement}; {bad.size} of {arr.size} values fail, "
                     f"first at index {first}: {float(arr.flat[first])!r}")


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

    kinds:
      constant        k(u) = k0, sigma(u) = sigma0
      paper_example   k(u) = 1,  sigma(u) = gamma   (constant-coefficient benchmark)
      rational_sigma  k(u) = k0, sigma(u) = sigma0 / (1 + lambda*u)^2
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
        for name in required:
            value = float(self.parameters[name])
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be finite, got {self.parameters[name]}")
            # constant k0, sigma0 and gamma fix the sign of k and sigma, which
            # eval_k and eval_sigma would otherwise refuse at step 0
            if name == "k0" and value <= 0.0:
                raise ConfigurationError(f"k0 must be positive, got {value}")
            if name in ("sigma0", "gamma") and value < 0.0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")

    def build(self, flux_left: float, flux_right: float) -> CoefficientModel:
        p = self.parameters
        if self.kind == "constant":
            k0, s0 = float(p["k0"]), float(p["sigma0"])
            k_fn = _const_fn(k0)
            s_fn = _const_fn(s0)
            zero = s0 == 0.0
        elif self.kind == "paper_example":
            gamma = float(p["gamma"])
            k_fn = _const_fn(1.0)
            s_fn = _const_fn(gamma)
            zero = gamma == 0.0
        else:  # rational_sigma
            k0, s0, lam = float(p["k0"]), float(p["sigma0"]), float(p["lambda"])
            k_fn = _const_fn(k0)

            def s_fn(u, _s0=s0, _lam=lam):
                den = 1.0 + _lam * np.asarray(u, dtype=float)
                # where den = 0, eval_sigma reports the non-finite value; where
                # den * den overflows, sigma is 0 and the potential reports it
                with np.errstate(divide="ignore", invalid="ignore",
                                 over="ignore"):
                    return _s0 / (den * den)

            zero = s0 == 0.0
        return CoefficientModel(
            thermal_conductivity=k_fn,
            electrical_conductivity=s_fn,
            flux_left=float(flux_left),
            flux_right=float(flux_right),
            sigma_is_zero=zero,
        )


def _const_fn(value: float) -> Callable:
    def fn(u, _v=float(value)):
        return np.full_like(np.asarray(u, dtype=float), _v)

    return fn
