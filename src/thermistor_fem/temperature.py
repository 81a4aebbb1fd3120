"""Backward-Euler temperature step: assembly and solve of one time level.

The nonlinearity is lagged: every k(.) and sigma(.) evaluation uses the
current level alpha^n or the previous level alpha^{n-1}, never the unknown
alpha^{n+1}, so each step is a single tridiagonal solve.

Variant summary (h = mesh step, tau = time step, beta = heat transfer):

corrected (size N+1, unknowns alpha_0..alpha_N)
    interior row j:  mass (h/6, 2h/3, h/6) plus tau/h times the stiffness
    (-k_{j-1/2}, k_{j-1/2}+k_{j+1/2}, -k_{j+1/2}) with arithmetic-mean
    midpoint conductivities k_{j+1/2} = (k(a_j)+k(a_{j+1}))/2.
    boundary rows:  half-hat mass (h/3 diagonal, h/6 off-diagonal),
    one-sided stiffness k_{1/2}/h (resp. k_{N-1/2}/h) and the weak-form
    Robin term tau*beta added to the diagonal.
    rhs: mass times alpha^n plus the Joule source row integral.

paper_literal (size N, unknowns alpha_0..alpha_{N-1})
    the original published rows, kept verbatim: generic interior row with
    the diagonal conductivity pair (k(a_{j+1})+k(a_{j-1})), and boundary
    rows obtained by eliminating the ghosts
        alpha_{-1}^m = alpha_1^m + (h*beta/k - 1) * alpha_0^m
        alpha_N^m    = k/(beta*h + k) * alpha_{N-1}^m
    where k is evaluated at the previous level inside right-hand-side
    reconstructions and at the current level elsewhere.  alpha_N is written
    back after the solve via the same relation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientModel, eval_k, eval_sigma
from .errors import ModelError
from .mesh import Mesh
from .potential import SchemeVariant
from .tridiag import TridiagonalSystem, checked_solve


@dataclass(frozen=True)
class TemperatureState:
    """Nodal temperature coefficients at one time level.

    ``alpha_prev`` is kept because the ghost eliminations evaluate k at the
    previous level.  At t = 0 both vectors are identically zero.
    """

    alpha: np.ndarray
    alpha_prev: np.ndarray
    time: float


def initial_temperature(mesh: Mesh) -> TemperatureState:
    """Zero initial condition, with alpha^{-1} taken equal to alpha^0."""
    zero = np.zeros(mesh.n_nodes)
    return TemperatureState(alpha=zero, alpha_prev=zero.copy(), time=0.0)


def ghost_temp_left(alpha1: float, alpha0: float, k_at_prev_alpha0: float,
                    h: float, beta: float) -> float:
    """Eliminated left ghost: alpha_{-1} = alpha_1 + (h*beta/k - 1)*alpha_0."""
    if k_at_prev_alpha0 <= 0.0:
        raise ModelError(f"k must be positive, got {k_at_prev_alpha0}")
    if h <= 0.0:
        raise ValueError("h must be positive")
    return alpha1 + (h * beta / k_at_prev_alpha0 - 1.0) * alpha0


def ghost_temp_right(alpha_last: float, k_at_prev_alphaN: float,
                     h: float, beta: float) -> float:
    """Right boundary value: alpha_N = k/(beta*h + k) * alpha_{N-1}."""
    den = beta * h + k_at_prev_alphaN
    if den <= 0.0:
        raise ModelError(f"degenerate denominator beta*h + k = {den}")
    return k_at_prev_alphaN / den * alpha_last


def ghost_alpha_left_of(state: TemperatureState, mesh: Mesh,
                        model: CoefficientModel, beta: float) -> float:
    """Left temperature ghost of the current level, alpha_{-1}^n."""
    k0_prev = eval_k(model, float(state.alpha_prev[0]))
    return ghost_temp_left(float(state.alpha[1]), float(state.alpha[0]),
                           k0_prev, mesh.h, beta)


def joule_source_vector(alpha: np.ndarray, mu: np.ndarray, mesh: Mesh, model: CoefficientModel, tau: float,
                        variant: SchemeVariant) -> np.ndarray:
    """Joule source contributions for every row of the variant's layout.

    central quadrature: tau * h * sigma(a_j) * g_j^2 with the centred
    gradient g_j = (mu_{j+1}-mu_{j-1})/(2h) on interior rows; boundary rows
    use the one-sided gradient and the half support weight tau*h/2.

    paper_literal quadrature: (tau/h) * sigma(a_j) * (-mu_{j-1}+mu_j+mu_{j+1})^2
    on generic rows, with the ghost-eliminated boundary forms
    (2 mu_0 + h*flux_left)^2 and (2 mu_{N-1} - mu_{N-2} + h*flux_right)^2.
    This expression is not gauge invariant; that is a property of the
    published form, preserved deliberately.
    """
    n = mesh.n_elements
    h = mesh.h
    mu = np.asarray(mu, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    size = n + 1 if variant.stiffness == "corrected" else n
    s = eval_sigma(model, alpha)
    out = np.empty(size)

    if variant.source_quadrature == "central":
        grad = np.empty(n + 1)
        grad[0] = (mu[1] - mu[0]) / h
        grad[n] = (mu[n] - mu[n - 1]) / h
        grad[1:n] = (mu[2:] - mu[:-2]) / (2.0 * h)
        weight = np.full(n + 1, h)
        weight[0] = 0.5 * h
        weight[n] = 0.5 * h
        full = tau * weight * s * grad * grad
        return full[:size]

    # paper_literal quadrature
    out[0] = (tau / h) * s[0] * (2.0 * mu[0] + h * model.flux_left) ** 2
    inner = np.arange(1, size - 1)
    out[inner] = (tau / h) * s[inner] * (-mu[inner - 1] + mu[inner] + mu[inner + 1]) ** 2
    if variant.stiffness == "paper_literal":
        out[size - 1] = (tau / h) * s[n - 1] * (
            2.0 * mu[n - 1] - mu[n - 2] + h * model.flux_right) ** 2
    else:
        # Off-matrix combination (corrected layout, literal source): close row N
        # with the mirrored ghost form, extending the published right-ghost pattern.
        out[size - 1] = (tau / h) * s[n] * (
            -mu[n - 1] + 2.0 * mu[n] + h * model.flux_right) ** 2
    return out


def source_term(alpha: np.ndarray, mu: np.ndarray, j: int,
                mesh: Mesh, model: CoefficientModel, tau: float,
                variant: SchemeVariant) -> float:
    """Joule source for a single row j of the variant's layout."""
    size = mesh.n_elements + 1 if variant.stiffness == "corrected" else mesh.n_elements
    if not 0 <= j < size:
        raise ValueError(f"row index {j} outside 0..{size - 1}")
    return float(joule_source_vector(alpha, mu, mesh, model, tau,
                                     variant)[j])


def assemble_temperature(state: TemperatureState, mu: np.ndarray,
                         mesh: Mesh, model: CoefficientModel, tau: float,
                         beta: float, variant: SchemeVariant) -> TridiagonalSystem:
    """Assemble one backward-Euler step; see the module docstring for the rows."""
    n = mesh.n_elements
    h = mesh.h
    alpha = state.alpha
    k = eval_k(model, alpha)
    src = joule_source_vector(alpha, mu, mesh, model, tau, variant)

    if variant.stiffness == "corrected":
        k_half = 0.5 * (k[:-1] + k[1:])
        sub = np.full(n, h / 6.0) - tau * k_half / h
        sup = np.full(n, h / 6.0) - tau * k_half / h
        main = np.full(n + 1, 2.0 * h / 3.0)
        main[1:n] += tau * (k_half[:-1] + k_half[1:]) / h
        main[0] = h / 3.0 + tau * k_half[0] / h + tau * beta
        main[n] = h / 3.0 + tau * k_half[n - 1] / h + tau * beta
        rhs = np.empty(n + 1)
        rhs[1:n] = (h / 6.0) * alpha[:-2] + (2.0 * h / 3.0) * alpha[1:-1] \
            + (h / 6.0) * alpha[2:]
        rhs[0] = (h / 3.0) * alpha[0] + (h / 6.0) * alpha[1]
        rhs[n] = (h / 6.0) * alpha[n - 1] + (h / 3.0) * alpha[n]
        rhs += src
        return TridiagonalSystem(sub=sub, main=main, sup=sup, rhs=rhs)

    # paper_literal: unknowns alpha_0..alpha_{N-1}
    k0_now = float(k[0])
    ghost_now = ghost_temp_left(float(alpha[1]), float(alpha[0]), k0_now, h, beta)
    k_ghost = eval_k(model, ghost_now)
    k0_prev = eval_k(model, float(state.alpha_prev[0]))
    kn_prev = eval_k(model, float(state.alpha_prev[n]))
    kn_now = float(k[n])

    sub = np.empty(n - 1)
    sup = np.empty(n - 1)
    main = np.empty(n)
    rhs = np.empty(n)

    j = np.arange(1, n - 1)
    sub[j - 1] = h / 6.0 - (tau / (2.0 * h)) * (k[j] + k[j - 1])
    main[j] = 2.0 * h / 3.0 + (tau / h) * (k[j + 1] + k[j - 1])
    sup[j] = h / 6.0 - (tau / (2.0 * h)) * (k[j + 1] + k[j])
    rhs[j] = (h / 6.0) * alpha[j - 1] + (2.0 * h / 3.0) * alpha[j] \
        + (h / 6.0) * alpha[j + 1] + src[j]

    a = h / 6.0 - (tau / (2.0 * h)) * (k0_now + k_ghost)
    b = 2.0 * h / 3.0 + (tau / h) * (float(k[1]) + k_ghost)
    c = h / 6.0 - (tau / (2.0 * h)) * (float(k[1]) + k0_now)
    main[0] = a * (beta * h / k0_now - 1.0) + b - tau * beta
    sup[0] = a + c
    rhs[0] = (h / 2.0) * (1.0 + h * beta / (3.0 * k0_prev)) * alpha[0] \
        + (h / 3.0) * alpha[1] + src[0]

    d = h / 6.0 - (tau / (2.0 * h)) * (float(k[n - 1]) + float(k[n - 2]))
    e = 2.0 * h / 3.0 + (tau / h) * (kn_now + float(k[n - 2]))
    f = h / 6.0 - (tau / (2.0 * h)) * (kn_now + float(k[n - 1]))
    sub[n - 2] = d
    main[n - 1] = e + kn_now / (beta * h + kn_now) * f
    rhs[n - 1] = (h / 6.0) * alpha[n - 2] \
        + (h / 6.0) * (4.0 + kn_prev / (beta * h + kn_prev)) * alpha[n - 1] \
        + src[n - 1]
    return TridiagonalSystem(sub=sub, main=main, sup=sup, rhs=rhs)


def solve_temperature(state: TemperatureState, mu: np.ndarray, mesh: Mesh,
                      model: CoefficientModel, tau: float, beta: float,
                      variant: SchemeVariant,
                      residual_sink: list | None = None) -> TemperatureState:
    """Advance one backward-Euler step; returns the state at time + tau."""
    system = assemble_temperature(state, mu, mesh, model, tau, beta, variant)
    x = checked_solve(system, "temperature", residual_sink)
    if variant.stiffness == "corrected":
        alpha_new = x
    else:
        kn_now = eval_k(model, float(state.alpha[mesh.n_elements]))
        alpha_new = np.append(
            x, ghost_temp_right(float(x[-1]), kn_now, mesh.h, beta))
    return TemperatureState(alpha=alpha_new,
                            alpha_prev=state.alpha.copy(),
                            time=state.time + tau)
