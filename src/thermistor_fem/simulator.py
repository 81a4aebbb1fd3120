"""Coupled time loop, steady-state detection, and the reduced benchmark scheme.

Each step first solves the potential from the current (lagged) temperature
and then advances the temperature one backward-Euler level with that
potential, so the potential stored alongside a snapshot was always computed
from that snapshot's predecessor.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import temperature as temp
from .coefficients import CoefficientModel, ModelSpec
from .errors import ConfigurationError, NotSteadyError, SolverError
from .mesh import Mesh, build_mesh
from .potential import (CORRECTED, SchemeVariant, check_current_compatibility,
                        solve_potential)
from .tridiag import TridiagonalSystem, checked_solve

COMPATIBILITY_WARN_THRESHOLD = 1e-9


@dataclass(frozen=True)
class SimulationConfig:
    """Run parameters for the coupled solver."""

    n_elements: int
    tau: float
    beta: float
    model: ModelSpec
    flux_left: float
    flux_right: float
    t_max: float
    variant: SchemeVariant = CORRECTED
    steady_tolerance: float = 1e-8
    record_every: int = 1
    freeze_potential_after_first_step: bool = False

    def __post_init__(self):
        for name in ("tau", "beta", "t_max", "steady_tolerance", "flux_left",
                     "flux_right"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.tau <= 0.0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")
        # beta < 0 would feed heat in through the boundary
        if self.beta < 0.0:
            raise ConfigurationError(f"beta must be >= 0, got {self.beta}")
        if self.t_max < self.tau:
            raise ConfigurationError(
                f"t_max ({self.t_max}) must be at least one step (tau={self.tau})")
        if self.steady_tolerance <= 0.0:
            raise ConfigurationError("steady_tolerance must be positive")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")

    def build_mesh(self) -> Mesh:
        return build_mesh(self.n_elements)

    def build_model(self) -> CoefficientModel:
        return self.model.build(self.flux_left, self.flux_right)


class Snapshot(NamedTuple):
    time: float
    temperature: np.ndarray
    potential: np.ndarray


@dataclass
class Diagnostics:
    """Per-step series collected during a run."""

    max_change: list = field(default_factory=list)
    compatibility_residuals: list = field(default_factory=list)
    solver_residuals: list = field(default_factory=list)


@dataclass(frozen=True)
class SimulationResult:
    snapshots: list
    steady_reached: bool
    steady_time: float | None
    final_profile: np.ndarray
    diagnostics: Diagnostics
    nodes: np.ndarray


def step(state: temp.TemperatureState, config: SimulationConfig,
         mesh: Mesh | None = None, model: CoefficientModel | None = None,
         residual_sink: list | None = None
         ) -> tuple[temp.TemperatureState, np.ndarray]:
    """One decoupled step: potential from alpha^n, then temperature advance.

    Returns the new state and the nodal potential mu_0..mu_N it used.
    Solver failures are re-raised with the step index attached.
    """
    mesh = mesh or config.build_mesh()
    model = model or config.build_model()
    index = int(round(state.time / config.tau))
    try:
        # only the literal potential assembly reads the temperature ghost
        ghost = temp.ghost_alpha_left_of(state, mesh, model, config.beta) \
            if config.variant.stiffness == "paper_literal" else None
        mu = solve_potential(state.alpha, mesh, model, config.variant,
                             alpha_ghost_left=ghost,
                             residual_sink=residual_sink)
        new_state = temp.solve_temperature(state, mu, mesh, model,
                                           config.tau, config.beta,
                                           config.variant,
                                           residual_sink=residual_sink)
    except SolverError as exc:
        exc.step = index
        raise
    return new_state, mu


def _march(config: SimulationConfig, mesh: Mesh, stepper,
           state: temp.TemperatureState,
           model: CoefficientModel | None = None) -> SimulationResult:
    """Advance ``stepper`` on the t0 + n*tau grid until steady or t_max.

    ``stepper(state, residual_sink)`` returns the next state and the nodal
    potential it used, and appends its solves' residuals to the sink.
    Snapshots are recorded at t0, every ``record_every`` steps, and at the
    final state.  The boundary-current compatibility of each step's starting
    state is recorded when ``model`` is given and is 0 otherwise.  A
    SolverError leaves with the failing step's index and the diagnostics
    collected so far.
    """
    diag = Diagnostics()
    snapshots = [Snapshot(state.time, state.alpha.copy(), mesh.nodes.copy())]
    steady_time = None
    mu = mesh.nodes
    t0 = state.time
    n = 0
    try:
        while (n + 1) * config.tau + t0 <= config.t_max * (1.0 + 1e-12):
            prev_alpha = state.alpha
            state, mu = stepper(state, diag.solver_residuals)
            n += 1
            # keep times on the exact t0 + n*tau grid instead of accumulating
            state = dataclasses.replace(state, time=t0 + n * config.tau)
            change = float(np.max(np.abs(state.alpha - prev_alpha)))
            diag.max_change.append(change)
            diag.compatibility_residuals.append(
                0.0 if model is None
                else check_current_compatibility(prev_alpha, model))
            if n % config.record_every == 0:
                snapshots.append(Snapshot(state.time, state.alpha.copy(),
                                          mu.copy()))
            if change / config.tau < config.steady_tolerance:
                steady_time = state.time
                break
    except SolverError as exc:
        exc.step = n
        exc.diagnostics = diag
        raise
    if snapshots[-1].time != state.time:
        snapshots.append(Snapshot(state.time, state.alpha.copy(), mu.copy()))
    return SimulationResult(snapshots=snapshots,
                            steady_reached=steady_time is not None,
                            steady_time=steady_time,
                            final_profile=state.alpha.copy(),
                            diagnostics=diag, nodes=mesh.nodes.copy())


def run(config: SimulationConfig,
        initial_state: temp.TemperatureState | None = None) -> SimulationResult:
    """Iterate until the per-unit-time max-norm change drops below tolerance.

    Snapshots are recorded at t = 0, every ``record_every`` steps, and at the
    final state.  Models with no electrical conduction skip the (singular)
    potential solve; their source is identically zero.
    """
    mesh = config.build_mesh()
    model = config.build_model()
    state = initial_state if initial_state is not None \
        else temp.initial_temperature(mesh)
    if state.alpha.shape != (mesh.n_nodes,):
        raise ConfigurationError("initial state does not match the mesh")
    # a potential that is no longer solved for: zero without conduction, or
    # the first step's potential when frozen
    fixed = np.zeros(mesh.n_nodes) if model.sigma_is_zero else None

    def advance(state, residual_sink):
        nonlocal fixed
        if fixed is not None:
            return temp.solve_temperature(
                state, fixed, mesh, model, config.tau, config.beta,
                config.variant, residual_sink=residual_sink), fixed
        state, mu = step(state, config, mesh, model,
                         residual_sink=residual_sink)
        if config.freeze_potential_after_first_step:
            fixed = mu
        return state, mu

    return _march(config, mesh, advance, state, model)


def reduced_system_rows(mesh: Mesh, tau: float, beta: float
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant matrix rows of the reduced benchmark scheme (k=1, phi=x).

    With a1 = h/6 - tau/h and b1 = 2h/3 + 2 tau/h the rows are
        row 0:    (a1*(beta*h - 1) + b1 - tau*beta, 2*a1)
        interior: (a1, b1, a1)
        row N-1:  (a1, b1 + a1/(beta*h + 1))
    over the unknowns alpha_0..alpha_{N-1}.
    """
    h = mesh.h
    n = mesh.n_elements
    a1 = h / 6.0 - tau / h
    b1 = 2.0 * h / 3.0 + 2.0 * tau / h
    sub = np.full(n - 1, a1)
    sup = np.full(n - 1, a1)
    main = np.full(n, b1)
    main[0] = a1 * (beta * h - 1.0) + b1 - tau * beta
    sup[0] = 2.0 * a1
    main[n - 1] = b1 + a1 / (beta * h + 1.0)
    return sub, main, sup


def reduced_rhs(alpha01: np.ndarray, mesh: Mesh, tau: float, beta: float,
                gamma: float) -> np.ndarray:
    """Right-hand side of the reduced scheme for the current level alpha01."""
    h = mesh.h
    n = mesh.n_elements
    rhs = np.empty(n)
    rhs[1:-1] = (h / 6.0) * alpha01[:-2] + (2.0 * h / 3.0) * alpha01[1:-1] \
        + (h / 6.0) * alpha01[2:]
    rhs[0] = (h / 2.0) * (1.0 + beta * h / 3.0) * alpha01[0] \
        + (h / 3.0) * alpha01[1]
    rhs[-1] = (h / 6.0) * alpha01[-2] \
        + (h / 6.0) * (4.0 + 1.0 / (1.0 + beta * h)) * alpha01[-1]
    return rhs + gamma * tau * h


def run_reduced(config: SimulationConfig) -> SimulationResult:
    """Run the reduced benchmark scheme: no potential solve, phi = x exactly.

    Only the constant-coefficient benchmark model is admissible.  The row
    formulas are kept verbatim from the published reduction, including the
    left-boundary closure; see run() with the corrected variant for the
    weak-form treatment.
    """
    if config.model.kind != "paper_example":
        raise ConfigurationError(
            "run_reduced requires the paper_example model "
            f"(got {config.model.kind!r})")
    gamma = float(config.model.parameters["gamma"])
    mesh = config.build_mesh()
    tau, beta = config.tau, config.beta
    sub, main, sup = reduced_system_rows(mesh, tau, beta)

    def advance(state, residual_sink):
        # the unknowns are alpha_0..alpha_{N-1}; alpha_N is not one of them
        system = TridiagonalSystem(sub=sub, main=main, sup=sup,
                                   rhs=reduced_rhs(state.alpha[:-1], mesh, tau,
                                                   beta, gamma))
        new01 = checked_solve(system, "reduced temperature", residual_sink)
        # alpha_N reconstructed via the right ghost relation at k = 1
        alpha = np.append(new01, new01[-1] / (1.0 + beta * mesh.h))
        return temp.TemperatureState(alpha=alpha, alpha_prev=state.alpha,
                                     time=state.time + tau), mesh.nodes

    return _march(config, mesh, advance, temp.initial_temperature(mesh))


def analytic_steady_state(x, beta: float, gamma: float):
    """Closed-form steady temperature of the constant-coefficient benchmark.

    u*(x) = (gamma/2) x (1 - x) + gamma / (2 beta); requires beta > 0 (the
    adiabatic case has no bounded steady state under constant heating).
    """
    if beta <= 0.0:
        raise ValueError("analytic steady state requires beta > 0")
    x = np.asarray(x, dtype=float)
    out = 0.5 * gamma * x * (1.0 - x) + gamma / (2.0 * beta)
    return float(out) if out.ndim == 0 else out


def steady_state_error(result: SimulationResult, beta: float,
                       gamma: float) -> float:
    """Max nodal deviation of the final profile from the analytic steady state."""
    if not result.steady_reached:
        raise NotSteadyError("steady_state_error requires a steady result")
    exact = analytic_steady_state(result.nodes, beta, gamma)
    return float(np.max(np.abs(result.final_profile - exact)))


def convergence_study(config: SimulationConfig, levels: int
                      ) -> list[tuple[int, float]]:
    """Run N, 2N, 4N, ... and return (n_elements, steady error) per level."""
    if levels < 1:
        raise ConfigurationError("levels must be >= 1")
    if config.model.kind != "paper_example":
        raise ConfigurationError(
            "the convergence study needs the paper_example model "
            "(analytic oracle)")
    if config.beta <= 0.0:
        raise ConfigurationError(
            f"the convergence study needs beta > 0 (analytic oracle), "
            f"got {config.beta}")
    gamma = float(config.model.parameters["gamma"])
    out = []
    for i in range(levels):
        n_i = config.n_elements * 2 ** i
        result = run(dataclasses.replace(config, n_elements=n_i))
        err = steady_state_error(result, config.beta, gamma)
        out.append((n_i, err))
    return out
