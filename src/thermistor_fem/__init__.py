"""1D Galerkin finite element solver for the coupled thermistor problem.

Solves the temperature equation with Joule heating, coupled to the electric
potential conservation equation, by decoupled backward-Euler steps, and runs
the iteration to steady state.
"""

from .coefficients import (CoefficientModel, ModelSpec, eval_k, eval_sigma,
                           validate_physical)
from .errors import (ConfigurationError, ModelError, NotSteadyError,
                     NumericalFailureError, SingularSystemError, SolverError,
                     ThermistorError)
from .mesh import Mesh, build_mesh, eval_hat, mass_row
from .potential import (CORRECTED, PAPER_LITERAL, SchemeVariant,
                        assemble_potential, check_current_compatibility,
                        ghost_potential_left, ghost_potential_right,
                        solve_potential)
from .simulator import (Diagnostics, SimulationConfig, SimulationResult,
                        Snapshot, analytic_steady_state, convergence_study,
                        run, run_reduced, steady_state_error, step)
from .temperature import (TemperatureState, assemble_temperature,
                          ghost_temp_left, ghost_temp_right,
                          initial_temperature, joule_source_vector,
                          solve_temperature, source_term)
from .tridiag import (TridiagonalSystem, checked_solve, dense_solve_oracle,
                      residual_norm, thomas_solve)

__version__ = "0.1.0"

__all__ = [
    "CORRECTED",
    "PAPER_LITERAL",
    "CoefficientModel",
    "ConfigurationError",
    "Diagnostics",
    "Mesh",
    "ModelError",
    "ModelSpec",
    "NotSteadyError",
    "NumericalFailureError",
    "SchemeVariant",
    "SimulationConfig",
    "SimulationResult",
    "SingularSystemError",
    "Snapshot",
    "SolverError",
    "TemperatureState",
    "ThermistorError",
    "TridiagonalSystem",
    "analytic_steady_state",
    "assemble_potential",
    "assemble_temperature",
    "build_mesh",
    "check_current_compatibility",
    "checked_solve",
    "convergence_study",
    "dense_solve_oracle",
    "eval_hat",
    "eval_k",
    "eval_sigma",
    "ghost_potential_left",
    "ghost_potential_right",
    "ghost_temp_left",
    "ghost_temp_right",
    "initial_temperature",
    "joule_source_vector",
    "mass_row",
    "residual_norm",
    "run",
    "run_reduced",
    "solve_potential",
    "solve_temperature",
    "source_term",
    "steady_state_error",
    "step",
    "thomas_solve",
    "validate_physical",
]
