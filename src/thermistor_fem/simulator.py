"""Coupled time loop, steady-state detection, and the reduced benchmark scheme.

Each step first solves the potential from the current (lagged) temperature
and then advances the temperature one backward-Euler level with that
potential, so the potential stored alongside a snapshot was always computed
from that snapshot's predecessor.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import temperature as temp
from .coefficients import CoefficientModel, ModelSpec, eval_sigma, finite_float
from .errors import ConfigurationError, NotSteadyError, StepFailure, _run_state
from .mesh import Mesh, build_mesh, check_integer
from .potential import (CORRECTED, PAPER_LITERAL, SchemeVariant,
                        check_current_compatibility)

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
            finite_float(name, getattr(self, name), ConfigurationError)
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
    """Per-step series collected during a run, and one residual per solve.

    ``potential_residuals`` has one per potential solved: one for a numeric
    sigma or a frozen potential, one per step for a callable sigma, none for
    a sigma zero at every node or for ``run_reduced``.
    ``temperature_residuals`` has one per step, in step order, formed a
    block of steps at a time on small systems (``temperature.ResidualBlock``).
    """

    max_change: list = field(default_factory=list)
    compatibility_residuals: list = field(default_factory=list)
    potential_residuals: list = field(default_factory=list)
    temperature_residuals: list = field(default_factory=list)


@dataclass(frozen=True)
class SimulationResult:
    """What a run gives.  ``steady_error_estimate`` is about how far the
    final profile lies from the steady state, in the max norm: with q the
    last ratio of ``max_change``, the changes still to come sum to about
    ``max_change[-1] * q / (1 - q)``.  It is None when the run is not
    steady, took fewer than two steps, or q is not in (0, 1).
    ``extrapolated_profile`` adds those changes to the final profile, as
    its last step times q / (1 - q) (Aitken's extrapolation); it is None
    exactly when the estimate is, and no output writes it."""

    snapshots: list
    steady_reached: bool
    steady_time: float | None
    final_profile: np.ndarray
    diagnostics: Diagnostics
    nodes: np.ndarray
    steady_error_estimate: float | None = None
    extrapolated_profile: np.ndarray | None = None


def step(state: temp.TemperatureState, config: SimulationConfig,
         mesh: Mesh | None = None, model: CoefficientModel | None = None,
         residual_sink: list | None = None
         ) -> tuple[temp.TemperatureState, np.ndarray]:
    """One decoupled step: potential from alpha^n, then temperature advance.

    Returns the new state and the nodal potential mu_0..mu_N it used; a
    sigma zero at every node gives the zero potential, as in run().  The
    sink gets the potential's residual, if one was solved, then the
    temperature's.  A bad state is refused as in run(); failures carry the
    step index.  The step runs in the run's floating-point error state,
    entered once, as a run's steps do.  Each call builds and factors the
    temperature rows anew, so many steps should use run.
    """
    mesh = mesh or config.build_mesh()
    model = model or config.build_model()
    state = _check_state(state, mesh)
    try:
        with _run_state():
            alpha, mu, _ = _coupled(config, mesh, model, residual_sink)(
                state.alpha, residual_sink)
    except StepFailure as exc:
        exc.step = int(round(state.time / config.tau))
        raise
    return temp.TemperatureState(alpha, state.time + config.tau), mu


def _check_state(state: temp.TemperatureState,
                 mesh: Mesh) -> temp.TemperatureState:
    """Refuse a starting state that does not fit ``mesh``, whose values are
    not real numbers (bool, int and float are) or are not finite, or whose
    time is not a finite real number; return it as a float64 array and a
    float time, the state a run starts from."""
    if np.shape(state.alpha) != (mesh.n_nodes,):
        raise ConfigurationError("initial state does not match the mesh")
    kind = np.asarray(state.alpha).dtype
    if kind.kind not in "biuf":
        raise ConfigurationError(
            f"initial state must hold real numbers, got dtype {kind}")
    bad = np.flatnonzero(~np.isfinite(state.alpha))
    if bad.size:
        raise ConfigurationError(f"initial state is not finite at node {bad[0]}")
    time = finite_float("initial time", state.time, ConfigurationError)
    return temp.TemperatureState(np.asarray(state.alpha, dtype=float), time)


def _coupled(config: SimulationConfig, mesh: Mesh, model: CoefficientModel,
             potential_sink: list):
    """A run's coupled stepper, for ``_march``, holding the temperature
    operator, which holds its factors, and what a step derives from sigma.

    The potential, the Joule source and the compatibility residual depend
    on sigma at alpha^n alone, and the paper_literal potential also on sigma
    at the left temperature ghost.  A numeric sigma is evaluated once, here,
    and they are made once and held for the whole run.  A callable sigma is
    evaluated at each step's alpha^n and they are made anew every step: its
    values change at every step until the run is steady.  The potential is
    ``TemperatureOperator.potential``'s, as in ``steady_residual``, and
    each one solved appends its residual to ``potential_sink``.
    ``config.freeze_potential_after_first_step`` keeps the first potential
    and solves no other.
    """
    operator = temp.TemperatureOperator(mesh, model, config.tau, config.beta,
                                        config.variant)
    varying = callable(model.electrical_conductivity)
    potential = mu = source = compatibility = None

    def couple(alpha):
        nonlocal potential, mu, source, compatibility
        sigma = eval_sigma(model, alpha)
        mu = potential
        if mu is None:
            mu = operator.potential(alpha, sigma, potential_sink)
            if config.freeze_potential_after_first_step:
                potential = mu
        source = operator.source(sigma, mu)
        compatibility = check_current_compatibility(sigma, model)

    if not varying:
        couple(np.zeros(mesh.n_nodes))  # any temperature gives the number

    def advance(alpha, residual_sink):
        if varying:
            couple(alpha)
        return operator.advance(alpha, source, residual_sink), mu, \
            compatibility

    return advance


def _march(config: SimulationConfig, mesh: Mesh, make_stepper,
           state: temp.TemperatureState) -> SimulationResult:
    """Advance the stepper ``make_stepper(potential_sink)`` builds, on the
    t0 + n*tau grid, until steady or t_max.

    ``state`` is a checked one, float64 values at a float time; the loop
    holds alpha^n and t0 + n*tau itself, and alpha^{n-1} by reference, for
    the extrapolated profile.  The stepper appends each
    potential's residual to ``potential_sink``,
    ``Diagnostics.potential_residuals``.  ``stepper(alpha, residual_sink)``
    returns the next level alpha^{n+1} from alpha^n = ``alpha``, the
    potential it used and alpha^n's compatibility residual, and gives its
    temperature residual to the sink, a ``temperature.ResidualBlock`` over
    ``Diagnostics.temperature_residuals``, which the held step defers it to
    on small systems.  A step whose change is not finite is checked there.
    Snapshots are recorded at t0, every ``record_every`` steps, and at the
    final state; the snapshots of one potential object share one read-only
    copy of it.  The stepper is built and run, and the deferred residuals
    written in once, at the end, inside the run's floating-point error
    state (``errors._run_state``), entered once, whether the run ends or
    fails.  A SolverError or ModelError, building the stepper (step 0)
    included, leaves with the failing step's index and the diagnostics
    collected so far, the deferred residuals written in.
    """
    diag = Diagnostics()
    residuals = temp.ResidualBlock(diag.temperature_residuals)
    alpha, t0 = state.alpha, state.time
    snapshots = [Snapshot(t0, alpha.copy(), mesh.nodes.copy())]
    steady_time = None
    mu = mesh.nodes
    held = None  # (potential, its read-only copy)

    def record():
        nonlocal held
        if held is None or held[0] is not mu:
            copy = mu.copy()
            copy.flags.writeable = False
            held = (mu, copy)
        snapshots.append(Snapshot(time, alpha.copy(), held[1]))

    tau, every = config.tau, config.record_every
    tolerance, end = config.steady_tolerance, config.t_max * (1.0 + 1e-12)
    time = t0
    n = 0
    diff = np.empty(mesh.n_nodes)  # alpha^{n+1} - alpha^n, for the change
    with _run_state():
        try:
            stepper = make_stepper(diag.potential_residuals)
            while (n + 1) * tau + t0 <= end:
                new, mu, compatibility = stepper(alpha, residuals)
                np.subtract(new, alpha, out=diff)
                change = float(np.maximum.reduce(np.abs(diff, out=diff)))
                if not math.isfinite(change):
                    # alpha^n is finite, so alpha^{n+1} may not be: a held
                    # step is checked here, and a finite one runs on
                    residuals.check()
                n += 1
                # keep times on the exact t0 + n*tau grid, not accumulated
                previous, alpha, time = alpha, new, t0 + n * tau
                diag.max_change.append(change)
                diag.compatibility_residuals.append(compatibility)
                if n % every == 0:
                    record()
                if change / tau < tolerance:
                    steady_time = time
                    break
        except StepFailure as exc:
            exc.step = n
            exc.diagnostics = diag
            raise
        finally:
            residuals.flush()
    if snapshots[-1].time != time:
        record()
    estimate = extrapolated = None
    changes = diag.max_change
    # a change before the steady one is >= tau * tolerance > 0
    if steady_time is not None and len(changes) >= 2:
        q = changes[-1] / changes[-2]
        if 0.0 < q < 1.0:
            estimate = changes[-1] * q / (1.0 - q)
            extrapolated = alpha + (alpha - previous) * (q / (1.0 - q))
    return SimulationResult(snapshots=snapshots,
                            steady_reached=steady_time is not None,
                            steady_time=steady_time,
                            final_profile=alpha.copy(),
                            diagnostics=diag, nodes=mesh.nodes.copy(),
                            steady_error_estimate=estimate,
                            extrapolated_profile=extrapolated)


def run(config: SimulationConfig,
        initial_state: temp.TemperatureState | None = None) -> SimulationResult:
    """Iterate until the per-unit-time max-norm change drops below tolerance.

    Snapshots are recorded at t = 0, every ``record_every`` steps, and at the
    final state.  An initial state that does not fit the mesh, does not
    hold real numbers or is not finite, or whose time is not finite, is a
    ConfigurationError; one it accepts is run from its float64 values at a
    float time.  A sigma that is zero at every node
    gives the zero potential, with no (singular) potential solve, and a
    zero source.  A UserWarning reports boundary currents that disagree
    (check_current_compatibility above COMPATIBILITY_WARN_THRESHOLD at some step).
    """
    mesh = config.build_mesh()
    model = config.build_model()
    state = _check_state(initial_state or temp.initial_temperature(mesh),
                         mesh)
    result = _march(config, mesh,
                    lambda sink: _coupled(config, mesh, model, sink), state)
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
    gamma = config.model.parameters["gamma"]
    mesh = config.build_mesh()
    src = np.full(mesh.n_elements, gamma * config.tau * mesh.h)

    def reduced(potential_sink):  # phi = x is solved by no potential
        operator = temp.TemperatureOperator(
            mesh, config.build_model(), config.tau, config.beta, PAPER_LITERAL,
            "reduced temperature")

        def advance(alpha, residual_sink):
            return operator.advance(alpha, src, residual_sink), mesh.nodes, \
                0.0

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
    check_integer("levels", levels)
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
    gamma = config.model.parameters["gamma"]
    out = []
    for i in range(levels):
        n_i = config.n_elements * 2 ** i
        result = run(dataclasses.replace(config, n_elements=n_i))
        err = steady_state_error(result, config.beta, gamma)
        out.append((n_i, err))
    return out
