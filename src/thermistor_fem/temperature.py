"""Backward-Euler temperature step: assembly and solve of one time level.

The thermal conductivity k is a constant of the model, so the matrix of a
step depends only on the mesh, tau, beta and k.  The nonlinearity is in
sigma alone, and it is lagged: sigma is evaluated at the current level
alpha^n, never at the unknown alpha^{n+1}, so each step is a single
tridiagonal solve.  A ``TemperatureOperator`` factors that matrix once and
holds the factors, the package's only held factorisation.  A step's
right-hand side is the mass rows times alpha^n, ``TemperatureOperator.mass``,
plus a source; the run's stepper builds the Joule source once for a
numeric sigma and at every step for a callable one, and solves with
``TemperatureOperator.advance``.
``assemble_temperature`` and ``solve_temperature`` build the source afresh,
for one step.  On a system of at most ``CELLS // 8`` rows a run defers each
step's residual check to a ``ResidualBlock``, which takes them a block of
steps at a time and appends them to the run's temperature residuals in step
order.
The reduced benchmark scheme (``run_reduced``) is the paper_literal step at
k = 1 with the uniform source gamma*tau*h in place of the Joule source.

Variant summary (h = mesh step, tau = time step, beta = heat transfer):

corrected (size N+1, unknowns alpha_0..alpha_N)
    rows M + tau K, with M the P1 mass rows (half-hat rows at the ends) and
    K the stiffness (-k_{j-1/2}, k_{j-1/2}+k_{j+1/2}, -k_{j+1/2}) / h with
    arithmetic-mean midpoint conductivities k_{j+1/2} = (k+k)/2, one-sided
    at the ends, where the weak-form Robin term beta adds to the diagonal.
    rhs: M alpha^n plus the Joule source row integral.

paper_literal (size N, unknowns alpha_0..alpha_{N-1})
    the original published rows, kept verbatim: generic interior row with
    the diagonal conductivity pair k(a_{j+1})+k(a_{j-1}), which with the
    constant k is k+k, and boundary rows obtained by eliminating the ghosts
        alpha_{-1}^m = alpha_1^m + (h*beta/k - 1) * alpha_0^m
        alpha_N^m    = k/(beta*h + k) * alpha_{N-1}^m
    alpha_N is written back after the solve via the same relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tridiag
from .coefficients import CoefficientModel, eval_sigma
from .errors import (ConfigurationError, ModelError, NumericalFailureError,
                     _own_state, _run_state)
from .mesh import Mesh, mass_row
from .potential import SchemeVariant, solve_potential
from .tridiag import TridiagonalSystem

# A run's held step defers its residual, on a system of m rows, to a block
# of K = CELLS // m steps where K >= 8 (m <= 1024), and takes it at once on
# larger systems.  `tools/ab_pairs.py cells` times a step both ways: the
# block takes 0.60-0.63 of the per-step time at m = 101, 0.93-0.96 at
# m = 801 and 1.06-1.11 at m = 2001 (medians of 21 loops, three runs;
# README, "The block residual").
CELLS = 8192


@dataclass(frozen=True)
class TemperatureState:
    """Nodal temperature coefficients at one time level."""

    alpha: np.ndarray
    time: float


def initial_temperature(mesh: Mesh) -> TemperatureState:
    """Zero initial condition."""
    return TemperatureState(alpha=np.zeros(mesh.n_nodes), time=0.0)


def ghost_temp_left(alpha1: float, alpha0: float, k: float,
                    h: float, beta: float) -> float:
    """Eliminated left ghost: alpha_{-1} = alpha_1 + (h*beta/k - 1)*alpha_0."""
    if k <= 0.0:
        raise ModelError(f"k must be positive, got {k}")
    if h <= 0.0:
        raise ValueError("h must be positive")
    return alpha1 + (h * beta / k - 1.0) * alpha0


def ghost_temp_right(alpha_last: float, k: float,
                     h: float, beta: float) -> float:
    """Right boundary value: alpha_N = k/(beta*h + k) * alpha_{N-1}."""
    den = beta * h + k
    if den <= 0.0:
        raise ModelError(f"degenerate denominator beta*h + k = {den}")
    return k / den * alpha_last


def joule_source_vector(sigma: np.ndarray, mu: np.ndarray, mesh: Mesh,
                        model: CoefficientModel, tau: float,
                        variant: SchemeVariant) -> np.ndarray:
    """Joule source contributions for every row of the variant's layout.

    ``sigma`` holds the nodal conductivities sigma(alpha_j) of the step.

    central quadrature: tau * h * sigma_j * g_j^2 with the centred
    gradient g_j = (mu_{j+1}-mu_{j-1})/(2h) on interior rows; boundary rows
    use the one-sided gradient and the half support weight tau*h/2.

    paper_literal quadrature: (tau/h) * sigma_j * (-mu_{j-1}+mu_j+mu_{j+1})^2
    on generic rows, with the ghost-eliminated boundary forms
    (2 mu_0 + h*flux_left)^2 and (2 mu_{N-1} - mu_{N-2} + h*flux_right)^2.
    This expression is not gauge invariant; that is a property of the
    published form, preserved deliberately.
    """
    n = mesh.n_elements
    h = mesh.h
    mu = np.asarray(mu, dtype=float)
    s = np.asarray(sigma, dtype=float)
    size = n + 1 if variant.stiffness == "corrected" else n

    if variant.source_quadrature == "central":
        grad = np.empty(n + 1)
        grad[0] = (mu[1] - mu[0]) / h
        grad[n] = (mu[n] - mu[n - 1]) / h
        inner = np.subtract(mu[2:], mu[:-2], out=grad[1:n])
        inner /= 2.0 * h
        # tau * h * s * g * g, in place, in the same order
        full = (tau * h) * s
        full *= grad
        full *= grad
        # the half support weight; halving is exact, so this is the value
        # of tau * (h / 2) * s * g * g
        full[0] *= 0.5
        full[n] *= 0.5
        return full[:size]

    # paper_literal quadrature
    out = np.empty(size)
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


def assemble_temperature(state: TemperatureState, mu: np.ndarray,
                         mesh: Mesh, model: CoefficientModel, tau: float,
                         beta: float, variant: SchemeVariant) -> TridiagonalSystem:
    """Assemble one backward-Euler step; see the module docstring for the rows."""
    op = TemperatureOperator(mesh, model, tau, beta, variant)
    source = op.source(eval_sigma(model, state.alpha), mu)
    # an overflow shows as a non-finite rhs, which with_rhs reports; not
    # decorated, as eval_sigma runs a user's sigma in the caller's state
    with _run_state():
        return op.matrix.with_rhs(op.mass(state.alpha) + source)


class TemperatureOperator:
    """The rows of a backward-Euler step, M + tau K in ``matrix`` and M in
    ``mass_matrix`` (whose ``rhs`` is unused), built and checked once, here,
    and factored once, by the first ``advance``: they depend only on the
    mesh, tau, beta and the constant k.  For the corrected scheme,
    ``stiffness`` gives K, the stiffness-plus-Robin rows of
    ``steady_residual``, built and checked at its first use, so that a run
    neither builds nor checks them.  Every failure, of the rows or of a
    step, reads ``"<what> solve failed: ..."``.  On at most ``CELLS // 8``
    rows, a run's steps leave their residuals to a ``ResidualBlock``, which
    records the values a step records, in the same order.
    """

    def __init__(self, mesh: Mesh, model: CoefficientModel, tau: float,
                 beta: float, variant: SchemeVariant,
                 what: str = "temperature"):
        self.mesh, self.model, self.variant = mesh, model, variant
        self.tau, self.beta, self.what = tau, beta, what
        n, h, k = mesh.n_elements, mesh.h, model.k
        size = n + 1 if variant.stiffness == "corrected" else n
        below, diag, above = mass_row(mesh, 1)
        m_sub, m_sup = np.full(size - 1, below), np.full(size - 1, above)
        m_main = np.full(size, diag)
        if variant.stiffness == "corrected":
            m_main[0] = m_main[n] = h / 3.0  # half-hat rows
            sub, main, sup = self._rows(m_sub, m_main, m_sup, tau)
        else:
            # paper_literal: unknowns alpha_0..alpha_{N-1}; end rows from the ghosts
            m_main[0] = (h / 2.0) * (1.0 + h * beta / (3.0 * k))
            m_sup[0] = h / 3.0
            m_main[n - 1] = (h / 6.0) * (4.0 + k / (beta * h + k))
            # each conductivity of the published rows, k(a_j), k(a_{-1}) or
            # k(a_N) at either level, is k
            a = c = h / 6.0 - (tau / (2.0 * h)) * (k + k)
            b = 2.0 * h / 3.0 + (tau / h) * (k + k)
            sub = np.full(n - 1, a)
            sup = np.full(n - 1, c)
            main = np.full(n, b)
            main[0] = a * (beta * h / k - 1.0) + b - tau * beta
            sup[0] = a + c
            main[n - 1] = b + k / (beta * h + k) * c
        zeros = np.zeros(size)
        # the factors, and the system whose rhs is their rhs block, which
        # each advance rewrites
        self._factors = self._system = None
        with tridiag._named(what):
            self.mass_matrix = TridiagonalSystem(m_sub, m_main, m_sup, zeros)
            self.matrix = TridiagonalSystem(sub, main, sup, zeros)

    def _rows(self, m_sub, m_main, m_sup, s):
        """Corrected rows M + s K: a step's at s = tau, K's at M = 0, s = 1."""
        h, k_half = self.mesh.h, 0.5 * (self.model.k + self.model.k)
        main = m_main + s * (k_half + k_half) / h
        main[[0, -1]] = m_main[[0, -1]] + s * k_half / h + s * self.beta
        return m_sub - s * k_half / h, main, m_sup - s * k_half / h

    def mass(self, alpha: np.ndarray) -> np.ndarray:
        """Mass rows times alpha^n: the right-hand side before any source."""
        return self.mass_matrix.matvec(alpha[:self.matrix.size])

    @cached_property
    def stiffness(self) -> TridiagonalSystem | None:
        """K, the corrected scheme's stiffness-plus-Robin rows: the rows of
        ``matrix`` from the same builder, at zero mass rows and scale 1;
        None for paper_literal.  Not (matrix - M) / tau, which rounds
        otherwise.  K can overflow where tau K does not (k / h above the
        largest float, say), which fails here, not in a run."""
        if self.variant.stiffness != "corrected":
            return None
        zeros = np.zeros(self.mesh.n_nodes)
        rows = self._rows(zeros[1:], zeros, zeros[1:], 1.0)
        with tridiag._named(self.what):
            return TridiagonalSystem(*rows, zeros)

    def steady_residual(self, alpha: np.ndarray) -> np.ndarray:
        """K alpha - S(alpha), zero where alpha is a steady state of the
        corrected scheme: S is the Joule source at tau = 1, with sigma and
        the potential taken at alpha.  paper_literal has no K, and its
        steady state is a characterisation: a ConfigurationError."""
        if self.stiffness is None:
            raise ConfigurationError(
                "the steady residual is defined for the corrected scheme, "
                "not paper_literal")
        sigma = eval_sigma(self.model, alpha)
        mu = solve_potential(sigma, self.mesh, self.model, self.variant)
        # not decorated, as eval_sigma runs a user's sigma in the caller's
        # state; an overflow shows as a non-finite entry
        with _run_state():
            return self.stiffness.matvec(alpha) - joule_source_vector(
                sigma, mu, self.mesh, self.model, 1.0, self.variant)

    # an overflow shows as a non-finite rhs, which advance reports
    @_own_state
    def source(self, sigma: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """The Joule source of ``sigma`` and ``mu`` in this step's rows."""
        return joule_source_vector(sigma, mu, self.mesh, self.model,
                                   self.tau, self.variant)

    # an overflow shows as a non-finite rhs or solution, which are reported
    @_own_state
    def advance(self, alpha: np.ndarray, source,
                residual_sink: list | None = None) -> np.ndarray:
        """alpha^{n+1} from alpha^n = ``alpha`` and the step's ``source``,
        solved by the held factors, with alpha_N written back for
        paper_literal into the spare entry past the solution.  The
        right-hand side, ``mass(alpha)`` plus the source, is formed in the
        factors' rhs block, the rhs of a system made with them, so the
        solve copies none, and the step allocates only its result and the
        carry's two vectors of 2 entries a block.  Singular rows raise as
        ``"<what> solve failed: ..."``.  The solve is checked after it
        runs, by the check of every solve (``tridiag._check``): a non-finite
        solution raises, naming a non-finite right-hand side if there is
        one, and a list sink gets the residual.  A run's ``ResidualBlock``
        sink, on a system of at most ``CELLS // 8`` rows, holds the step
        instead, and takes its check later, for a block of steps."""
        if self._factors is None:  # made here, so assembly factors none
            matrix = self.matrix
            with tridiag._named(self.what):
                self._factors = tridiag._factor(matrix.sub, matrix.main,
                                                matrix.sup)
            self._system = matrix.with_rhs(self._factors.rhs_in)
        factors = self._factors
        rhs = tridiag._product(self.mass_matrix, alpha[:factors.size],
                               factors.rhs_in, factors.row)
        rhs += source
        x = tridiag.thomas_solve(self._system, factors)
        if isinstance(residual_sink, ResidualBlock) \
                and CELLS // factors.size >= 8:
            residual_sink.hold(self, rhs, x)
        else:
            # the work arrays are free once the solve is done
            residual = tridiag._check(self.matrix, rhs, x, factors, self.what)
            if residual_sink is not None:
                residual_sink.append(residual)
        if self.variant.stiffness == "corrected":
            return x
        # alpha_N goes in the solve's spare entry: no copy of x
        full = tridiag._spare(x)
        full[-1] = ghost_temp_right(float(x[-1]), self.model.k, self.mesh.h,
                                    self.beta)
        return full


class ResidualBlock:
    """A run's temperature residual sink: the held step's residual, on a
    small system, a block of steps at a time.

    ``append`` adds a value to ``values``, the run's
    ``Diagnostics.temperature_residuals``, at once.
    ``TemperatureOperator.advance`` given this sink, on a system of
    m <= ``CELLS // 8`` rows, solves without its check and ``hold``s the
    step's rhs and x as a row of (K, m) stacks, K = ``CELLS // m``.
    ``flush`` gives all held rows at once to the check of every solve,
    ``tridiag._check``, and appends their residuals: the same values, in the
    same order, as an immediate sink records.  A held step is not checked
    until then, so the time loop calls ``check``, the same check of the
    step last held, when a step's change is not finite.
    """

    def __init__(self, values: list):
        self.values = values
        self.append = values.append
        self._operator = self._rhs = self._x = None
        self._held = 0  # rows held since the last flush

    def hold(self, operator: TemperatureOperator, rhs: np.ndarray,
             x: np.ndarray) -> None:
        """Keep a step's rhs and x for ``flush``; a full block is flushed
        first, so the step last held is never flushed before ``check``."""
        if self._rhs is None:
            m = rhs.shape[0]
            self._operator = operator
            self._rhs, self._x = np.empty((2, CELLS // m, m))
        elif self._held == len(self._rhs):
            self.flush()
        self._rhs[self._held] = rhs
        self._x[self._held] = x
        self._held += 1

    # an overflow shows as a non-finite solution or residual
    @_own_state
    def check(self) -> None:
        """Refuse the step last held if its x is not finite, by the check
        of a solve: its row is dropped, and the error names a non-finite
        rhs, or else the solution."""
        last = self._held - 1
        if last < 0:
            return
        try:
            tridiag._check(self._operator.matrix, self._rhs[last],
                           self._x[last], None, self._operator.what)
        except NumericalFailureError:
            self._held = last  # the failing step records no residual
            raise

    # an overflow shows as an infinite residual, which is recorded
    @_own_state
    def flush(self) -> None:
        """Append the residuals of the held rows, all checked at once."""
        held, self._held = self._held, 0
        if not held:
            return
        operator = self._operator
        self.values.extend(tridiag._check(
            operator.matrix, self._rhs[:held], self._x[:held], None,
            operator.what).tolist())


def solve_temperature(state: TemperatureState, sigma: np.ndarray,
                      mu: np.ndarray, operator: TemperatureOperator,
                      residual_sink: list | None = None) -> TemperatureState:
    """Advance one backward-Euler step; returns the state at time + tau.

    ``sigma`` is sigma(alpha^n) at the nodes and ``mu`` the step's potential;
    the system is ``assemble_temperature``'s, solved with ``operator``'s rows
    and factors.
    """
    alpha = operator.advance(state.alpha, operator.source(sigma, mu),
                             residual_sink)
    return TemperatureState(alpha=alpha, time=state.time + operator.tau)
