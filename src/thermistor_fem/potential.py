"""Electric-potential system assembly and solve at one time level.

Two stiffness variants exist.  ``corrected`` is the standard P1 Galerkin
discretisation of (sigma(u) phi_x)_x = 0 with flux boundary data and a
mu_0 = 0 gauge row; it recovers a linear potential exactly for constant
sigma, and its solution is written down from its discrete first integral.
Every function here reads the temperature only through the nodal
conductivities sigma(alpha_j), which a step evaluates once and shares with
the Joule source.
``paper_literal`` reproduces the original published row formulas of this
scheme family verbatim, including their sign inconsistency in the interior
stencil, and is retained for characterisation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientModel
from .errors import NumericalFailureError, SingularSystemError, _own_state
from .mesh import Mesh
from .tridiag import TridiagonalSystem, _spare, checked_solve

STIFFNESS_CHOICES = ("paper_literal", "corrected")
SOURCE_CHOICES = ("paper_literal", "central")


@dataclass(frozen=True)
class SchemeVariant:
    """Independent toggles for the stiffness discretisation and the Joule
    source quadrature used by the temperature step."""

    stiffness: str = "corrected"
    source_quadrature: str = "central"

    def __post_init__(self):
        if self.stiffness not in STIFFNESS_CHOICES:
            raise ValueError(f"stiffness must be one of {STIFFNESS_CHOICES}")
        if self.source_quadrature not in SOURCE_CHOICES:
            raise ValueError(f"source_quadrature must be one of {SOURCE_CHOICES}")


CORRECTED = SchemeVariant("corrected", "central")
PAPER_LITERAL = SchemeVariant("paper_literal", "paper_literal")


def ghost_potential_left(mu0: float, mu1: float, h: float, flux_left: float) -> float:
    """Eliminated left ghost value: mu_{-1} = mu_1 - mu_0 - h*flux_left."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    return mu1 - mu0 - h * flux_left


def ghost_potential_right(mu_last: float, h: float, flux_right: float) -> float:
    """Reconstructed right value: mu_N = h*flux_right + mu_{N-1}."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    return h * flux_right + mu_last


def assemble_potential(sigma: np.ndarray, mesh: Mesh, model: CoefficientModel,
                       variant: SchemeVariant,
                       sigma_ghost_left: float | None = None) -> TridiagonalSystem:
    """Assemble the potential system from ``sigma``, sigma at the lagged
    temperature alpha^n; s_j below is sigma_j and s(-1) ``sigma_ghost_left``,
    sigma at the left temperature ghost.

    corrected (size N+1, unknowns mu_0..mu_N), rows scaled by 1/h:
        row 0      replaced by the gauge row mu_0 = 0
        row j      -s_{j-1/2} mu_{j-1} + (s_{j-1/2}+s_{j+1/2}) mu_j - s_{j+1/2} mu_{j+1} = 0
        row N      s_{N-1/2} (mu_N - mu_{N-1}) = h * s_N * flux_right
    with s_{j+1/2} = (s_j + s_{j+1}) / 2.

    paper_literal (size N, unknowns mu_0..mu_{N-1}), rows kept verbatim:
        row 0      (s0 + 3*s(-1) + 2*s1) mu_0 - (s(-1) + 2*s0 + s1) mu_1
                       = -h*flux_left*(3*s0 + s(-1))
        row j      -(s_j+s_{j-1}) mu_{j-1} + 2(s_{j+1}+s_{j-1}) mu_j
                       + (s_{j+1}+s_j) mu_{j+1} = 0
        row N-1    -(s_{N-1}+s_{N-2}) mu_{N-2} + (2 s_{N-2} + s_N - s_{N-1}) mu_{N-1}
                       = h*flux_right*(s_N + s_{N-1})
    The positive mu_{j+1} coefficient in the interior row is intentional:
    it is the published form, and it is why this variant does not reproduce
    a linear potential (see tests for the characterisation).
    """
    n = mesh.n_elements
    h = mesh.h
    s = _nodal(sigma, mesh)

    if variant.stiffness == "corrected":
        s_half = 0.5 * (s[:-1] + s[1:])
        sub = np.zeros(n)
        sup = np.zeros(n)
        main = np.zeros(n + 1)
        rhs = np.zeros(n + 1)
        main[1:n] = (s_half[:-1] + s_half[1:]) / h
        sub[:n - 1] = -s_half[:-1] / h
        sup[1:n] = -s_half[1:] / h
        main[n] = s_half[n - 1] / h
        sub[n - 1] = -s_half[n - 1] / h
        rhs[n] = s[n] * model.flux_right
        main[0] = 1.0  # gauge row pins mu_0 = 0
        sup[0] = 0.0
        rhs[0] = 0.0
        return TridiagonalSystem(sub=sub, main=main, sup=sup, rhs=rhs)

    if sigma_ghost_left is None:
        raise ValueError("paper_literal assembly needs sigma at the left "
                         "temperature ghost")
    s_ghost = float(sigma_ghost_left)
    sub = np.zeros(n - 1)
    sup = np.zeros(n - 1)
    main = np.zeros(n)
    rhs = np.zeros(n)
    main[0] = s[0] + 3.0 * s_ghost + 2.0 * s[1]
    sup[0] = -(s_ghost + 2.0 * s[0] + s[1])
    rhs[0] = -h * model.flux_left * (3.0 * s[0] + s_ghost)
    j = np.arange(1, n - 1)
    sub[j - 1] = -(s[j] + s[j - 1])
    main[j] = 2.0 * (s[j + 1] + s[j - 1])
    sup[j] = s[j + 1] + s[j]
    sub[n - 2] = -(s[n - 1] + s[n - 2])
    main[n - 1] = 2.0 * s[n - 2] + s[n] - s[n - 1]
    rhs[n - 1] = h * model.flux_right * (s[n] + s[n - 1])
    return TridiagonalSystem(sub=sub, main=main, sup=sup, rhs=rhs)


def solve_potential(sigma: np.ndarray, mesh: Mesh, model: CoefficientModel,
                    variant: SchemeVariant,
                    sigma_ghost_left: float | None = None,
                    residual_sink: list | None = None) -> np.ndarray:
    """Potential mu_0..mu_N for ``sigma``, sigma at the lagged temperature.

    corrected: the exact solution of the system ``assemble_potential``
    builds, from its discrete first integral.  Its rows say that the current
    s_{j+1/2} (mu_{j+1} - mu_j) / h is the same on every element and equals
    J = sigma_N * flux_right, and the gauge row sets mu_0 = 0, so
        mu = [0, cumsum(h * J / s_half)]
    with no solve.  This scheme never reads ``flux_left``: where the two
    boundary currents disagree, ``check_current_compatibility`` measures
    by how much.  An element with s_{j+1/2} = 0 raises SingularSystemError
    at row j+1, and a non-finite potential NumericalFailureError.
    ``residual_sink`` receives the first-integral defect
    max_j |s_{j+1/2} (mu_{j+1} - mu_j) / h - J| / (1 + |J|).

    paper_literal: the assembled system goes through ``checked_solve``,
    which factors it for this solve alone (the matrix changes whenever sigma
    does) and also feeds ``residual_sink``; its unknowns are mu_0..mu_{N-1},
    and mu_N is reconstructed by ``ghost_potential_right`` in the spare
    entry the solve leaves past them.
    """
    if variant.stiffness == "corrected":
        return _first_integral(sigma, mesh, model, residual_sink)
    system = assemble_potential(sigma, mesh, model, variant,
                                sigma_ghost_left=sigma_ghost_left)
    mu = checked_solve(system, "potential", residual_sink)
    # mu_N goes in the solve's spare entry: no copy of mu
    full = _spare(mu)
    full[-1] = ghost_potential_right(float(mu[-1]), mesh.h, model.flux_right)
    return full


def _nodal(sigma: np.ndarray, mesh: Mesh) -> np.ndarray:
    s = np.asarray(sigma, dtype=float)
    if s.shape != (mesh.n_nodes,):
        raise ValueError(f"sigma must have length {mesh.n_nodes}, got {s.shape}")
    return s


# s_half = 0 or an overflow makes a partial sum non-finite, which is
# refused by name
@_own_state
def _first_integral(sigma: np.ndarray, mesh: Mesh, model: CoefficientModel,
                    residual_sink: list | None) -> np.ndarray:
    n = mesh.n_elements
    h = mesh.h
    s = _nodal(sigma, mesh)
    current = float(s[n]) * model.flux_right
    # halved before the sum: 0.5 * (a + b) unless that sum would overflow;
    # each node is halved once, for both of its elements
    half = 0.5 * s
    s_half = half[:-1] + half[1:]
    mu = np.empty(n + 1)
    mu[0] = 0.0
    np.add.accumulate(h * current / s_half, out=mu[1:])
    # a non-finite step, from s_half = 0 or an overflow, stays in every
    # later partial sum, so the last one shows it
    if not math.isfinite(mu[n]):
        if (s_half == 0.0).any():
            row = int(np.argmax(s_half == 0.0)) + 1
            raise SingularSystemError(
                f"potential solve failed: zero conductivity on element "
                f"{row - 1}, so mu_{row} is undetermined", row=row)
        raise NumericalFailureError(
            "potential solve failed: non-finite solution")
    if residual_sink is not None:
        flux = np.subtract(mu[1:], mu[:-1])
        flux *= s_half  # h times the element current
        flux -= h * current
        defect = float(np.maximum.reduce(np.abs(flux, out=flux))) / h
        residual_sink.append(defect / (1.0 + abs(current)))
    return mu


def check_current_compatibility(sigma: np.ndarray, model: CoefficientModel) -> float:
    """Solvability residual of the flux data: sigma_N*flux_right - sigma_0*flux_left,
    read from the nodal conductivities ``sigma``.

    Nonzero values mean the two prescribed boundary currents disagree; run()
    warns above 1e-9 but does not refuse to run.  It is formed on Python
    floats, so a residual that overflows is inf, with no numpy warning.
    """
    return float(sigma[-1]) * model.flux_right \
        - float(sigma[0]) * model.flux_left
