"""Command-line front end: config parsing, CSV export, verification subcommands.

Machine-readable data goes to stdout or to files; human-readable messages go
to stderr.  Exit codes: 0 success, 1 configuration error, 2 numerical
failure, 3 steady state not reached where required.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .coefficients import ModelSpec, eval_sigma, validate_physical
from .errors import (ConfigurationError, ModelError, NotSteadyError,
                     SolverError)
from .potential import SchemeVariant, check_current_compatibility
from .simulator import (SimulationConfig, SimulationResult, convergence_study,
                        run, run_reduced, step)
from .temperature import initial_temperature

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_NOT_STEADY = 3


def _choice(**tokens: str):
    """Parser of a value that must be one of ``tokens``; returns its meaning."""
    def parse(value: str) -> str:
        if value not in tokens:
            raise ValueError(f"expected one of {tuple(tokens)}")
        return tokens[value]
    return parse


def _boolean(value: str) -> bool:
    low = value.lower()
    if low not in ("true", "1", "yes", "on", "false", "0", "no", "off"):
        raise ValueError("expected a boolean")
    return low in ("true", "1", "yes", "on")


# key -> parser of its value, which raises ValueError on a bad value
_REQUIRED = {
    "n_elements": int,
    "tau": float,
    "t_max": float,
    "beta": float,
    "flux_left": float,
    "flux_right": float,
    "steady_tol": float,
    "record_every": int,
}
_KEYS = {
    **_REQUIRED,
    **dict.fromkeys(("gamma", "k0", "sigma0", "lambda"), float),
    "scheme": _choice(paper="paper_literal", corrected="corrected"),
    "source": _choice(paper="paper_literal", central="central"),
    "freeze_potential": _boolean,
}


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
        if key not in _KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})")
        lines[key] = lineno
        try:
            values[key] = _KEYS[key](value)
        except ValueError as exc:
            raise ConfigurationError(
                f"line {lineno}: cannot parse {key} = {value!r} ({exc})") from exc

    missing = sorted(_REQUIRED.keys() - values.keys())
    if missing:
        raise ConfigurationError(f"missing required key {missing[0]!r}")
    model = _infer_model(values)

    variant = SchemeVariant(stiffness=values.get("scheme", "corrected"),
                            source_quadrature=values.get("source", "central"))
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
        kind = "rational_sigma" if "lambda" in values else "constant"
        return ModelSpec(kind, {key: values[key] for key in
                                ("k0", "sigma0", "lambda") if key in values})
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

    # the drivers are read from this module when the parser is built, so a
    # patched ``run`` or ``run_reduced`` is the one that runs
    for name, driver, text in (
            ("run", run, "run the coupled solver"),
            ("run-reduced", run_reduced,
             "run the reduced constant-coefficient scheme")):
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=_cmd_run, driver=driver)
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", help="write the t,x,u,phi series CSV here "
                                     "(default: stdout)")
        p.add_argument("--profile", help="write the final x,u profile here")
        p.add_argument("--require-steady", action="store_true",
                       help="exit with status 3 if no steady state was reached")

    conv = sub.add_parser("convergence",
                          help="steady-state error at N, 2N, 4N, ... vs the analytic oracle")
    conv.set_defaults(handler=_cmd_convergence)
    conv.add_argument("--config", required=True)
    conv.add_argument("--levels", type=int, required=True)

    chk = sub.add_parser("check-potential",
                         help="solve one potential system from the zero state")
    chk.set_defaults(handler=_cmd_check_potential)
    chk.add_argument("--config", required=True)
    return parser


def _load_config(path: str) -> SimulationConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    return parse_config(p.read_text())


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    result = args.driver(config)
    series = write_series_csv(result)
    if args.out:
        Path(args.out).write_text(series)
    else:
        sys.stdout.write(series)
    if args.profile:
        Path(args.profile).write_text(write_profile_csv(result))
    if result.steady_reached:
        print(f"steady state reached at t={result.steady_time:g}", file=sys.stderr)
    else:
        print(f"no steady state before t_max={config.t_max:g}", file=sys.stderr)
        if args.require_steady:
            return EXIT_NOT_STEADY
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
    # the potential of run's first step; its temperature advance is unused
    _, mu = step(state, config, mesh, model)
    chord = mu[0] + (mu[-1] - mu[0]) * mesh.nodes
    deviation = float(np.max(np.abs(mu - chord)))
    residual = check_current_compatibility(eval_sigma(model, state.alpha),
                                           model)
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
    # library warnings (incompatible boundary currents) follow the command's
    # own messages, whatever its exit code; other categories keep the
    # caller's filters, so a RuntimeWarning made an error stays one
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            code = args.handler(args)
        except ConfigurationError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            code = EXIT_CONFIG
        except (SolverError, ModelError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            code = EXIT_NUMERICAL
        except NotSteadyError as exc:  # a convergence level never became steady
            print(f"not steady: {exc}", file=sys.stderr)
            code = EXIT_NOT_STEADY
    for record in caught:
        print(f"warning: {record.message}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run_cli())
