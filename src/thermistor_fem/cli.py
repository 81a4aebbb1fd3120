"""Command-line front end: config parsing, CSV export, verification subcommands.

Machine-readable data goes to stdout or to files; human-readable messages go
to stderr.  Exit codes: 0 success, 1 configuration error, 2 numerical
failure, 3 steady state not reached where required.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .coefficients import ModelSpec, validate_physical
from .errors import (ConfigurationError, ModelError, NotSteadyError,
                     SolverError)
from .potential import SchemeVariant, check_current_compatibility, solve_potential
from .simulator import (COMPATIBILITY_WARN_THRESHOLD, SimulationConfig,
                        SimulationResult, convergence_study, run, run_reduced)
from .temperature import ghost_alpha_left_of, initial_temperature

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_NOT_STEADY = 3

_SCALAR_KEYS = {
    "n_elements": int,
    "tau": float,
    "t_max": float,
    "beta": float,
    "flux_left": float,
    "flux_right": float,
    "steady_tol": float,
    "record_every": int,
}
_MODEL_KEYS = ("gamma", "k0", "sigma0", "lambda")
_ENUM_KEYS = {
    "scheme": ("paper", "corrected"),
    "source": ("paper", "central"),
}
_BOOL_KEYS = ("freeze_potential",)
_ALL_KEYS = set(_SCALAR_KEYS) | set(_MODEL_KEYS) | set(_ENUM_KEYS) | set(_BOOL_KEYS)
_REQUIRED = set(_SCALAR_KEYS)


def parse_config(text: str) -> SimulationConfig:
    """Parse the line-oriented ``key = value`` configuration format.

    '#' starts a comment; unknown keys, duplicates, missing required keys and
    unparsable values are all configuration errors carrying the line number.
    The model family is chosen by its keys: ``gamma`` selects the
    constant-coefficient benchmark; ``k0``/``sigma0`` (optionally ``lambda``)
    select the constant or rational-sigma family.  ``scheme`` defaults to
    corrected and ``source`` to central.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})")
        lines[key] = lineno
        values[key] = _parse_value(key, value, lineno)

    missing = sorted(_REQUIRED - set(values))
    if missing:
        raise ConfigurationError(f"missing required key {missing[0]!r}")
    model = _infer_model(values)

    scheme = values.get("scheme", "corrected")
    source = values.get("source", "central")
    variant = SchemeVariant(
        stiffness="paper_literal" if scheme == "paper" else "corrected",
        source_quadrature="paper_literal" if source == "paper" else "central",
    )
    config = SimulationConfig(
        n_elements=values["n_elements"],
        tau=values["tau"],
        beta=values["beta"],
        model=model,
        flux_left=values["flux_left"],
        flux_right=values["flux_right"],
        t_max=values["t_max"],
        variant=variant,
        steady_tolerance=values["steady_tol"],
        record_every=values["record_every"],
        freeze_potential_after_first_step=values.get("freeze_potential", False),
    )
    if model.kind == "paper_example":
        gamma = float(model.parameters["gamma"])
        if config.beta > 0.0 and gamma > 0.0 \
                and not validate_physical(config.beta, gamma):
            print("warning: physical constraint 1/beta + 1/2 <= 1/gamma violated",
                  file=sys.stderr)
    return config


def _parse_value(key: str, value: str, lineno: int):
    try:
        if key in _SCALAR_KEYS:
            return _SCALAR_KEYS[key](value)
        if key in _MODEL_KEYS:
            return float(value)
        if key in _ENUM_KEYS:
            if value not in _ENUM_KEYS[key]:
                raise ValueError(f"expected one of {_ENUM_KEYS[key]}")
            return value
        if key in _BOOL_KEYS:
            low = value.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError("expected a boolean")
    except ValueError as exc:
        raise ConfigurationError(
            f"line {lineno}: cannot parse {key} = {value!r} ({exc})") from exc
    raise ConfigurationError(f"line {lineno}: unknown key {key!r}")


def _infer_model(values: dict) -> ModelSpec:
    has_gamma = "gamma" in values
    has_ks = "k0" in values or "sigma0" in values
    if has_gamma and has_ks:
        raise ConfigurationError(
            "gamma and k0/sigma0 select conflicting model families")
    if has_gamma:
        if "lambda" in values:
            raise ConfigurationError("lambda is not a parameter of the gamma model")
        return ModelSpec("paper_example", {"gamma": values["gamma"]})
    if has_ks:
        if "k0" not in values or "sigma0" not in values:
            raise ConfigurationError("constant-family models need both k0 and sigma0")
        if "lambda" in values:
            return ModelSpec("rational_sigma", {"k0": values["k0"],
                                                "sigma0": values["sigma0"],
                                                "lambda": values["lambda"]})
        return ModelSpec("constant", {"k0": values["k0"],
                                      "sigma0": values["sigma0"]})
    raise ConfigurationError(
        "missing model keys: provide gamma, or k0 and sigma0")


def write_series_csv(result: SimulationResult) -> str:
    """Long-format time series: header ``t,x,u,phi``, time-major rows.

    Numbers are written with 13 significant digits so the file parses back
    losslessly to well within one unit in the 12th digit.
    """
    if not result.snapshots:
        raise ValueError("result has no snapshots")
    # Python floats format faster than numpy scalars, with the same digits
    x = [f"{xj:.12e}" for xj in result.nodes.tolist()]
    lines = ["t,x,u,phi"]
    for snap in result.snapshots:
        t = f"{snap.time:.12e}"
        lines.extend(f"{t},{xj},{uj:.12e},{pj:.12e}" for xj, uj, pj in
                     zip(x, snap.temperature.tolist(), snap.potential.tolist()))
    return "\n".join(lines) + "\n"


def write_profile_csv(result: SimulationResult) -> str:
    """Final profile: header ``x,u`` plus one row per node."""
    lines = ["x,u"]
    lines.extend(f"{xj:.12e},{uj:.12e}" for xj, uj in
                 zip(result.nodes.tolist(), result.final_profile.tolist()))
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermistor-fem",
        description="1D coupled thermistor simulator (Galerkin P1, backward Euler)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", help="write the t,x,u,phi series CSV here "
                                     "(default: stdout)")
        p.add_argument("--profile", help="write the final x,u profile here")
        p.add_argument("--require-steady", action="store_true",
                       help="exit with status 3 if no steady state was reached")

    add_run_flags(sub.add_parser("run", help="run the coupled solver"))
    add_run_flags(sub.add_parser("run-reduced",
                                 help="run the reduced constant-coefficient scheme"))

    conv = sub.add_parser("convergence",
                          help="steady-state error at N, 2N, 4N, ... vs the analytic oracle")
    conv.add_argument("--config", required=True)
    conv.add_argument("--levels", type=int, required=True)

    chk = sub.add_parser("check-potential",
                         help="solve one potential system from the zero state")
    chk.add_argument("--config", required=True)
    return parser


def _load_config(path: str) -> SimulationConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    return parse_config(p.read_text())


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args, reduced: bool) -> int:
    config = _load_config(args.config)
    result = run_reduced(config) if reduced else run(config)
    _emit(write_series_csv(result), args.out)
    if args.profile:
        Path(args.profile).write_text(write_profile_csv(result))
    if result.steady_reached:
        print(f"steady state reached at t={result.steady_time:g}", file=sys.stderr)
    else:
        print(f"no steady state before t_max={config.t_max:g}", file=sys.stderr)
        if args.require_steady:
            return EXIT_NOT_STEADY
    worst = max(map(abs, result.diagnostics.compatibility_residuals),
                default=0.0)
    if worst > COMPATIBILITY_WARN_THRESHOLD:
        print("warning: boundary currents are incompatible "
              f"(max residual {worst:.3e})", file=sys.stderr)
    return EXIT_OK


def _cmd_convergence(args) -> int:
    config = _load_config(args.config)
    pairs = convergence_study(config, args.levels)
    lines = ["n_elements,steady_error,observed_order"]
    prev_err = None
    for n_i, err in pairs:
        order = "" if prev_err is None or err == 0.0 \
            else f"{math.log2(prev_err / err):.6f}"
        lines.append(f"{n_i},{err:.12e},{order}")
        prev_err = err
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_check_potential(args) -> int:
    config = _load_config(args.config)
    mesh = config.build_mesh()
    model = config.build_model()
    state = initial_temperature(mesh)
    ghost = ghost_alpha_left_of(state, mesh, model, config.beta) \
        if config.variant.stiffness == "paper_literal" else None
    mu = solve_potential(state.alpha, mesh, model, config.variant,
                         alpha_ghost_left=ghost)
    chord = mu[0] + (mu[-1] - mu[0]) * mesh.nodes
    deviation = float(np.max(np.abs(mu - chord)))
    residual = check_current_compatibility(state.alpha, model)
    sys.stdout.write("max_deviation_from_linear,compatibility_residual\n"
                     f"{deviation:.12e},{residual:.12e}\n")
    return EXIT_OK


def run_cli(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        if args.command == "run":
            return _cmd_run(args, reduced=False)
        if args.command == "run-reduced":
            return _cmd_run(args, reduced=True)
        if args.command == "convergence":
            return _cmd_convergence(args)
        if args.command == "check-potential":
            return _cmd_check_potential(args)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, ModelError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except NotSteadyError as exc:  # a convergence level never became steady
        print(f"not steady: {exc}", file=sys.stderr)
        return EXIT_NOT_STEADY


def main() -> None:
    sys.exit(run_cli())
