"""Coupled time loop, steady-state detection, and the reduced benchmark scheme.

Each step first solves the potential from the current (lagged) temperature
and then advances the temperature one backward-Euler level with that
potential, so the potential stored alongside a snapshot was always computed
from that snapshot's predecessor.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import temperature as temp
from .coefficients import CoefficientModel, ModelSpec, eval_sigma
from .errors import (ConfigurationError, NotSteadyError, SingularSystemError,
                     StepFailure)
from .mesh import Mesh, build_mesh, check_integer
from .potential import (CORRECTED, PAPER_LITERAL, SchemeVariant,
                        check_current_compatibility, solve_potential)

COMPATIBILITY_WARN_THRESHOLD = 1e-9
# the factors a run holds, with the work arrays of their solves, take
# about 315 bytes per node, 0.32 GB here
MAX_ELEMENTS = 10**6


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
        for name in ("n_elements", "record_every"):
            check_integer(name, getattr(self, name))
        if self.n_elements < 3:
            raise ConfigurationError(
                f"n_elements must be >= 3, got {self.n_elements}")
        if self.n_elements > MAX_ELEMENTS:
            raise ConfigurationError(
                f"n_elements must be <= {MAX_ELEMENTS}, got {self.n_elements}")
        for name in ("tau", "beta", "t_max", "steady_tolerance", "flux_left",
                     "flux_right"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ConfigurationError(
                    f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
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
    """Per-step series collected during a run.

    ``solver_residuals`` holds each solve's scaled residual in the order of
    the solves.  On a temperature system of at most
    ``temperature.CELLS // 8`` rows the run forms the temperature residuals
    a block of steps at a time (``temperature.ResidualBlock``); the values
    and their order are those of one residual per step.
    """

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

    Returns the new state and the nodal potential mu_0..mu_N it used; a
    sigma zero at every node gives the zero potential, as in run().  A bad
    state is refused as in run(); failures carry the step index.  Each
    call builds and factors the temperature rows anew: 0.8 ms per call
    against 0.12 ms per step inside run, for rational_sigma at N = 1000 on a
    2-CPU host.  Advance a state through many steps with run.
    """
    mesh = mesh or config.build_mesh()
    model = model or config.build_model()
    _check_state(state, mesh)
    try:
        alpha, mu, _ = _coupled(config, mesh, model)(
            state, [] if residual_sink is None else residual_sink)
    except StepFailure as exc:
        exc.step = int(round(state.time / config.tau))
        raise
    return temp.TemperatureState(alpha, state.time + config.tau), mu


def _check_state(state: temp.TemperatureState, mesh: Mesh) -> None:
    """Refuse a starting state that does not fit ``mesh``, whose values are
    not real numbers (bool, int and float are) or are not finite, or whose
    time is not a finite real number."""
    if np.shape(state.alpha) != (mesh.n_nodes,):
        raise ConfigurationError("initial state does not match the mesh")
    kind = np.asarray(state.alpha).dtype
    if kind.kind not in "biuf":
        raise ConfigurationError(
            f"initial state must hold real numbers, got dtype {kind}")
    bad = np.flatnonzero(~np.isfinite(state.alpha))
    if bad.size:
        raise ConfigurationError(f"initial state is not finite at node {bad[0]}")
    if not (isinstance(state.time, numbers.Real)
            and math.isfinite(state.time)):
        raise ConfigurationError(
            f"initial time must be finite, got {state.time!r}")


def _coupled(config: SimulationConfig, mesh: Mesh, model: CoefficientModel):
    """A run's coupled stepper, for ``_march``, holding the temperature
    operator, which holds its factors, and what a step derives from sigma.

    The potential, its residual record, the Joule source and the
    compatibility residual depend on sigma at alpha^n alone, and the
    paper_literal potential also on sigma at the left temperature ghost.
    A numeric sigma is evaluated once, here, and they are made once and
    held for the whole run; each step appends the held potential residual
    to the sink, as a new solve would.  A callable sigma is evaluated at
    each step's alpha^n and they are made anew every step: its values
    change at every step until the run is steady.  A sigma zero at every
    node conducts no current, so its singular potential system gives the
    zero potential.  ``config.freeze_potential_after_first_step`` keeps the
    first potential, whose residual is recorded on the first step only.
    """
    operator = temp.TemperatureOperator(mesh, model, config.tau, config.beta,
                                        config.variant)
    literal = config.variant.stiffness == "paper_literal"
    varying = callable(model.electrical_conductivity)
    potential = mu = record = source = compatibility = None

    def couple(alpha):
        nonlocal potential, mu, record, source, compatibility
        sigma = eval_sigma(model, alpha)
        mu, record = potential, []
        if mu is None:
            ghost = None
            if literal:
                # only the literal potential reads sigma at the temperature ghost
                ghost = eval_sigma(model, temp.ghost_temp_left(
                    float(alpha[1]), float(alpha[0]), model.k, mesh.h,
                    config.beta)) if varying else model.electrical_conductivity
            try:
                mu = solve_potential(sigma, mesh, model, config.variant,
                                     sigma_ghost_left=ghost,
                                     residual_sink=record)
            except SingularSystemError:
                if sigma.any():
                    raise
                mu = np.zeros(mesh.n_nodes)  # no conduction, no current
            if config.freeze_potential_after_first_step:
                potential = mu
        source = operator.source(sigma, mu)
        compatibility = check_current_compatibility(sigma, model)

    if not varying:
        couple(np.zeros(mesh.n_nodes))  # any temperature gives the number

    def advance(state, residual_sink):
        nonlocal record
        if varying:
            couple(state.alpha)
        residual_sink.extend(record)
        if potential is not None:
            record = []  # a frozen potential is solved, and recorded, once
        return (operator.advance(state.alpha, source, residual_sink), mu,
                compatibility)

    return advance


def _march(config: SimulationConfig, mesh: Mesh, make_stepper,
           state: temp.TemperatureState) -> SimulationResult:
    """Advance the stepper ``make_stepper()`` builds, on the t0 + n*tau grid,
    until steady or t_max.

    ``stepper(state, residual_sink)`` returns the next level alpha^{n+1},
    the potential it used and its starting state's compatibility residual,
    and appends its solves' residuals to the sink, a
    ``temperature.ResidualBlock`` over ``Diagnostics.solver_residuals``; on
    small systems the held temperature step defers its residual to it.  A
    step whose change is not finite has its solution checked there.
    Snapshots are recorded at t0, every ``record_every`` steps, and at the
    final state; the snapshots of one potential object share one read-only
    copy of it.  A SolverError or ModelError, building the stepper (step 0)
    included, leaves with the failing step's index and the diagnostics
    collected so far, the deferred residuals written in.
    """
    diag = Diagnostics()
    residuals = temp.ResidualBlock(diag.solver_residuals)
    snapshots = [Snapshot(state.time, state.alpha.copy(), mesh.nodes.copy())]
    steady_time = None
    mu = mesh.nodes
    held = None  # (potential, its read-only copy)

    def record(state):
        nonlocal held
        if held is None or held[0] is not mu:
            copy = mu.copy()
            copy.flags.writeable = False
            held = (mu, copy)
        snapshots.append(Snapshot(state.time, state.alpha.copy(), held[1]))

    t0 = state.time
    n = 0
    diff = np.empty(mesh.n_nodes)  # alpha^{n+1} - alpha^n, for the change
    try:
        stepper = make_stepper()
        while (n + 1) * config.tau + t0 <= config.t_max * (1.0 + 1e-12):
            alpha, mu, compatibility = stepper(state, residuals)
            np.subtract(alpha, state.alpha, out=diff)
            change = float(np.abs(diff, out=diff).max())
            if not math.isfinite(change):
                # alpha^n is finite, so alpha^{n+1} may not be: a held step
                # is checked here, and a finite one runs on
                residuals.check()
            n += 1
            # keep times on the exact t0 + n*tau grid instead of accumulating
            state = temp.TemperatureState(alpha, t0 + n * config.tau)
            diag.max_change.append(change)
            diag.compatibility_residuals.append(compatibility)
            if n % config.record_every == 0:
                record(state)
            if change / config.tau < config.steady_tolerance:
                steady_time = state.time
                break
    except StepFailure as exc:
        residuals.flush()
        exc.step = n
        exc.diagnostics = diag
        raise
    residuals.flush()
    if snapshots[-1].time != state.time:
        record(state)
    return SimulationResult(snapshots=snapshots,
                            steady_reached=steady_time is not None,
                            steady_time=steady_time,
                            final_profile=state.alpha.copy(),
                            diagnostics=diag, nodes=mesh.nodes.copy())


def run(config: SimulationConfig,
        initial_state: temp.TemperatureState | None = None) -> SimulationResult:
    """Iterate until the per-unit-time max-norm change drops below tolerance.

    Snapshots are recorded at t = 0, every ``record_every`` steps, and at the
    final state.  An initial state that does not fit the mesh, does not
    hold real numbers or is not finite, or whose time is not finite, is a
    ConfigurationError.  A sigma that is zero at every node
    gives the zero potential, with no (singular) potential solve, and a
    zero source.  A UserWarning reports boundary currents that disagree
    (check_current_compatibility above COMPATIBILITY_WARN_THRESHOLD at some step).
    """
    mesh = config.build_mesh()
    model = config.build_model()
    state = initial_state or temp.initial_temperature(mesh)
    _check_state(state, mesh)
    result = _march(config, mesh, lambda: _coupled(config, mesh, model), state)
    worst = max(map(abs, result.diagnostics.compatibility_residuals),
                default=0.0)
    if worst > COMPATIBILITY_WARN_THRESHOLD:
        warnings.warn("boundary currents are incompatible "
                      f"(max residual {worst:.3e})", stacklevel=2)
    return result


def run_reduced(config: SimulationConfig) -> SimulationResult:
    """Run the reduced benchmark scheme: no potential solve, phi = x exactly.

    Only the constant-coefficient benchmark model is admissible.  Its step
    is the paper_literal temperature step at k = 1 with the uniform source
    gamma*tau*h in place of the Joule source, so the rows are the published
    reduction, left-boundary closure included; see run() with the corrected
    variant for the weak-form treatment.
    """
    if config.model.kind != "paper_example":
        raise ConfigurationError(
            "run_reduced requires the paper_example model "
            f"(got {config.model.kind!r})")
    gamma = float(config.model.parameters["gamma"])
    mesh = config.build_mesh()
    src = np.full(mesh.n_elements, gamma * config.tau * mesh.h)

    def reduced():
        operator = temp.TemperatureOperator(
            mesh, config.build_model(), config.tau, config.beta, PAPER_LITERAL,
            "reduced temperature")

        def advance(state, residual_sink):
            return (operator.advance(state.alpha, src, residual_sink),
                    mesh.nodes, 0.0)

        return advance

    return _march(config, mesh, reduced, temp.initial_temperature(mesh))


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
    # N * 2**(levels - 1) <= MAX_ELEMENTS, without forming 2**levels
    max_levels = (MAX_ELEMENTS // config.n_elements).bit_length()
    if levels > max_levels:
        raise ConfigurationError(
            f"levels = {levels} would refine n_elements = {config.n_elements} "
            f"past {MAX_ELEMENTS}; at most {max_levels} levels")
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
