"""Command-line front end: config parsing, CSV export, verification subcommands.

Machine-readable data goes to stdout or to files; human-readable messages go
to stderr.  Both CSVs are formatted by numpy (``_cells``, byte-equal to
``"%.12e"``) as arrays of 19-byte cells, or of cells NUL-padded at the front
where a value is negative or its exponent is not two digits; every cell ends
in its separator, and the last of a row becomes its newline.  A cell is a
blank cell's bytes, with its lead digit, three groups of four digits and
its exponent stored in.  The series is made a block of snapshots at a time,
each block one ``_cells`` call whose rows start from one row template of
the columns its snapshots share, and streamed as bytes to its file or to
stdout's binary buffer as each block is made (a stdout with no binary
buffer gets the whole text).  Exit codes:
0 success, 1 configuration error, 2 numerical failure, 3 steady state not
reached where required, 141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .coefficients import ModelSpec, eval_sigma, validate_physical
from .errors import (ConfigurationError, NotSteadyError, StepFailure,
                     _own_state)
from .potential import SchemeVariant, check_current_compatibility
from .simulator import (SimulationConfig, SimulationResult, convergence_study,
                        run, run_reduced, step)
from .temperature import initial_temperature

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_NOT_STEADY = 3
_EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer


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
    if not 0.0 < values["steady_tol"] < math.inf:
        raise ConfigurationError("steady_tol must be finite and positive, "
                                 f"got {values['steady_tol']}")
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
        gamma = model.parameters["gamma"]
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


# the cell of a non-negative finite value with a two-digit exponent and its
# separator, "d.dddddddddddde+XX,"
_FIXED = 19
# any "%.12e" cell and its separator, NUL-padded at the front; the widest is
# "-1.000000000000e-300,"
_PADDED = 21
# snapshots per series block hold about this many rows (at least one snapshot)
_BLOCK_ROWS = 12_000
# at k = e + 10 for the exponents e in [-10, 34] of _fast_cells, the
# exact powers of ten that scale |v| to 13 digits, 10**(12 - e) up to
# e = 12 and 10**(e - 12) down past it; the other factor is 1
_UP = np.array([float(10 ** max(12 - e, 0)) for e in range(-10, 35)])
_DOWN = np.array([float(10 ** max(e - 12, 0)) for e in range(-10, 35)])
# "00", "01", ..., "99" as uint16 read from their bytes: any byte order
_PAIRS = np.frombuffer("".join(f"{k:02d}" for k in range(100)).encode(),
                       np.uint16)
# "0000", "0001", ..., "9999" as uint32, each two pairs side by side in
# memory, so again any byte order
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS),
                  axis=-1).view(np.uint32).ravel()
# "-10,", "-09,", ..., "+34,": exponent e's sign, digits and separator at
# k = e + 10
_EXPS = np.frombuffer("".join(f"{e:+03d}," for e in range(-10, 35)).encode(),
                      np.uint32)
# a fixed-width cell; the digit groups and exponent are unaligned fields
_CELL = np.dtype({
    "names": ["lead", "groups", "exp"],
    "formats": [np.uint8, (np.uint32, 3), np.uint32],
    "offsets": [0, 2, 15],
    "itemsize": _FIXED})
# the cell whose "." and "e" no value writes; n cells are _BLANK * n, a
# writable buffer made by one repeated copy
_BLANK = bytearray(b"0.000000000000e+00,")


# log10 of zero or of a non-finite value is left out of the mask
@_own_state
def _fast_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``("%.12e" % abs(v)).encode() + b","`` as ``_CELL`` records, right
    where the returned mask is True.

    With e = floor(log10|v|) in [-10, 34], q = |v| * 10**(12 - e) is one
    correctly rounded product (or quotient) by an exact power of ten, so
    below 2**44 it is within 2**-10 of the exact scaled value.  Where
    1e12 <= q < 1e13 - 1/2 and frac(q) is more than 2**-9 from one half,
    rint(q) is the exact value's correctly rounded 13 digits, whichever side
    of a power of ten a log10 off by one puts q.  Zero is digit 0 and
    exponent 0.  Near ties, values that round up to 1e13 (whose exponent is
    e + 1), subnormals, three-digit exponents and non-finite values are
    left out of the mask.  Each cell starts as ``_BLANK``, then takes the
    lead digit, three groups of four digits, each written from ``_QUADS``,
    and the exponent's sign, its two digits and the separator, from
    ``_EXPS``.
    """
    # in place where it can be: a new array for each step, or for each
    # part below, timed slower on a 12,000-value block
    a = np.abs(v)
    k = np.log10(a)
    np.floor(k, out=k)
    k += 10  # e + 10, which indexes the tables; e = 0 where out of range
    fast = (k >= 0) & (k <= 44)
    k = np.where(fast, k, 10.0).astype(np.int64)
    q = _UP[k]
    q *= a
    q /= _DOWN[k]
    fast &= q >= 1e12
    fast &= q < 1e13 - 0.5
    fast |= a == 0.0
    # |q - rint(q)|, exact, is 1/2 - |frac(q) - 1/2|
    r = np.rint(q)
    q -= r
    np.abs(q, out=q)
    fast &= q < 0.5 - 2.0 ** -9
    np.copyto(r, 0.0, where=~fast)
    r = r.astype(np.int64)
    cells = np.frombuffer(_BLANK * v.size, _CELL)
    # scalar divisors: a divisor array is 4x slower
    groups = cells["groups"]
    part = r // 10 ** 8  # the lead digit and the first group
    r -= part * 10 ** 8  # the last two groups
    lead = part // 10 ** 4
    part -= lead * 10 ** 4
    groups[:, 0] = _QUADS[part]
    np.floor_divide(r, 10 ** 4, out=part)
    groups[:, 1] = _QUADS[part]
    part *= 10 ** 4
    r -= part
    groups[:, 2] = _QUADS[r]
    lead += ord("0")
    cells["lead"] = lead
    cells["exp"] = _EXPS[k]
    return cells, fast


def _cells(values) -> np.ndarray:
    """``("%.12e" % v).encode() + b","`` for each v: ``_fast_cells`` where it
    is exact, Python's own ``%`` elsewhere.

    The cells are ``V19`` when every one has that width (no sign bit, no
    three-digit exponent, no ``nan`` or ``inf``), judged from the cells
    themselves, else ``V21`` cells NUL-padded at the front by ``_padded``.
    Either way each cell's separator is its last byte.
    """
    v = np.asarray(values, dtype=float).ravel()
    cells, fast = _fast_cells(v)
    cells = cells.view(f"V{_FIXED}")
    slow = np.flatnonzero(~fast)
    texts = [("%.12e," % vj).encode() for vj in v[slow].tolist()]
    sign = np.signbit(v)
    if sign.any() or any(len(text) != _FIXED for text in texts):
        cells = _padded(cells, sign)
    if texts:
        width = cells.dtype.itemsize
        cells[slow] = np.array([text.rjust(width, b"\0") for text in texts],
                               f"S{width}").view(f"V{width}")
    return cells


def _padded(cells: np.ndarray, sign) -> np.ndarray:
    """Fixed-width ``cells`` as ``V21`` cells NUL-padded at the front, '-'
    just before the cell where ``sign`` is True."""
    out = np.zeros((cells.size, _PADDED), np.uint8)
    out[:, -_FIXED - 1] = np.where(sign, ord("-"), 0)
    out[:, -_FIXED:] = cells.view(np.uint8).reshape(-1, _FIXED)
    return out.view(f"V{_PADDED}").ravel()


def _bytes(rows: np.ndarray) -> bytes | memoryview:
    """The ASCII bytes of an array of rows of cells (its last axis is a
    row): each row's last separator made a newline, the NUL padding of
    padded cells dropped.  Fixed-width cells are returned as a view of
    ``rows``, with no copy."""
    width = rows.dtype.itemsize
    data = rows.view(np.uint8).reshape(-1, rows.shape[-1] * width)
    data[:, -1] = ord("\n")
    if width == _PADDED:
        return data.tobytes().translate(None, b"\0")
    return data.data


def write_series_csv(result: SimulationResult, out=None) -> str | None:
    """Long-format time series: header ``t,x,u,phi``, time-major rows.

    Numbers are written as ``"%.12e"``, 13 significant digits, so the file
    parses back losslessly to well within one unit in the 12th digit.  The
    text is built in blocks of whole snapshots (about ``_BLOCK_ROWS`` rows),
    each written as ASCII bytes to the binary stream ``out`` as it is made
    (a fixed-width block as a view of its cells, with no copy); without
    ``out`` the whole text is returned as ``str``.  A block is one
    ``_cells`` call on its times, the nodes, its temperatures and each of
    its potential arrays once (a run shares one array per potential), so
    one call decides the width of all its cells; its rows are filled from
    slices of that array, x and a single potential by a row template
    copied to each snapshot.
    Nothing is carried from one block to the next.
    """
    if not result.snapshots:
        raise ValueError("result has no snapshots")
    parts: list[str] = []
    # without a stream each block is decoded as it is made, and freed
    write = out.write if out is not None \
        else lambda data: parts.append(str(data, "ascii"))
    write(b"t,x,u,phi\n")
    n = result.nodes.size
    per_block = max(1, _BLOCK_ROWS // n)
    for start in range(0, len(result.snapshots), per_block):
        block = result.snapshots[start:start + per_block]
        count = len(block)
        # each potential array once, by identity
        phis = {id(snap.potential): snap.potential for snap in block}
        cells = _cells(np.concatenate(
            [[snap.time for snap in block], result.nodes,
             *(snap.temperature for snap in block), *phis.values()]))
        t, x, u, phi = np.split(cells, [count, count + n,
                                        count + n + count * n])
        phi = phi.reshape(-1, n)
        rows = np.empty((count, n, 4), cells.dtype)
        # the columns every snapshot shares, x and a single phi, go in the
        # first snapshot's rows, the row template, whose bytes are copied
        # to the others; with several phis too, as the one contiguous copy
        # of the fresh rows timed faster than their x column alone
        rows[0, :, 1] = x
        rows[0, :, 3] = phi[0]
        data = rows.view(np.uint8).reshape(count, -1)
        data[1:] = data[0]
        rows[:, :, 0] = t[:, None]
        rows[:, :, 2] = u.reshape(count, n)
        if len(phis) > 1:  # each snapshot's own, by its array's rank
            rank = {key: k for k, key in enumerate(phis)}
            rows[:, :, 3] = phi[[rank[id(snap.potential)] for snap in block]]
        write(_bytes(rows))
    return "".join(parts) if out is None else None


def write_profile_csv(result: SimulationResult) -> str:
    """Final profile: header ``x,u`` plus one row per node, in ``_cells``."""
    cells = _cells(np.stack((result.nodes, result.final_profile), axis=1))
    return "x,u\n" + str(_bytes(cells.reshape(-1, 2)), "ascii")


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
    try:
        text = p.read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    return parse_config(text)


def _write(path: str, write) -> None:
    """Open ``path`` for binary writing and ``write(stream)``."""
    try:
        with open(path, "wb") as stream:
            write(stream)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    for path in filter(None, (args.out, args.profile)):  # before the run
        if os.path.isdir(path):
            raise ConfigurationError(f"cannot write {path}: is a directory")
        if not os.access(Path(path).parent, os.W_OK | os.X_OK):
            raise ConfigurationError(f"cannot write {path}: no writable directory")
    # an output that is the config or the other output would overwrite it
    named = {}
    for option, path in (("--config", args.config), ("--out", args.out),
                         ("--profile", args.profile)):
        if path:
            first = named.setdefault(os.path.realpath(path), option)
            if first != option:
                raise ConfigurationError(
                    f"{first} and {option} name the same file: {path}")
    result = args.driver(config)
    if args.out:
        _write(args.out, lambda stream: write_series_csv(result, stream))
    elif getattr(sys.stdout, "buffer", None) is None:
        # a text-only stdout, such as an IDE's or a notebook's
        sys.stdout.write(write_series_csv(result))
    else:
        sys.stdout.flush()  # what the text layer holds goes first
        write_series_csv(result, sys.stdout.buffer)
    if args.profile:
        _write(args.profile, lambda stream: stream.write(
            write_profile_csv(result).encode("ascii")))
    if result.steady_reached:
        estimate = result.steady_error_estimate
        left = "" if estimate is None else f" (about {estimate:.2g} from steady)"
        print(f"steady state reached at t={result.steady_time:g}{left}",
              file=sys.stderr)
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
            sys.stdout.flush()  # a closed pipe shows here, not at exit
        except BrokenPipeError:  # stdout's reader has gone: stop writing
            code = _EXIT_BROKEN_PIPE
        except ConfigurationError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            code = EXIT_CONFIG
        except StepFailure as exc:
            at = "" if exc.step is None else f" (step {exc.step})"
            print(f"numerical failure: {exc}{at}", file=sys.stderr)
            code = EXIT_NUMERICAL
        except NotSteadyError as exc:  # a convergence level never became steady
            print(f"not steady: {exc}", file=sys.stderr)
            code = EXIT_NOT_STEADY
    for record in caught:
        print(f"warning: {record.message}", file=sys.stderr)
    return code


def main() -> None:
    code = run_cli()
    if code == _EXIT_BROKEN_PIPE:
        # what stdout still buffers goes nowhere, so the flush at exit
        # raises nothing and prints no "Exception ignored"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":  # python -m thermistor_fem.cli
    main()
