"""Per-layer tracing from outside the program.

Each hooked public function is replaced, under every ``thermistor_fem``
module name that binds it, by a wrapper that records a span: its layer
boundary, start, end and the span that called it.  Modules that import a
function by name (``potential`` and ``temperature`` bind ``thomas_solve``)
hold their own reference, so patching the defining module alone would
measure nothing.  A hook point the package no longer has is reported as
unmeasured rather than failing the run.

Spans stay in memory; ``iteration_metrics`` turns the spans of one workload
run into the per-layer metrics and clears them.  A layer's self time is its
span time minus the time of the spans it called.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# layer -> public functions at its boundary (cli names live in thermistor_fem.cli)
HOOKS = {
    "cli": ("run_cli", "parse_config", "write_series_csv", "write_profile_csv"),
    "simulator": ("run", "run_reduced", "step"),
    "coefficients": ("eval_k", "eval_sigma"),
    "potential": ("assemble_potential", "solve_potential",
                  "check_current_compatibility"),
    "temperature": ("joule_source_vector", "assemble_temperature",
                    "solve_temperature"),
    "tridiag": ("thomas_solve", "residual_norm"),
}

# computed per Thomas solve of size m, cache effects ignored: 8 flops per row
# (6 forward, 2 back); 4 input arrays read and 1 solution written, 8 bytes each
THOMAS_FLOPS_PER_ROW = 8
THOMAS_BYTES_PER_ROW = 40

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "cli.parse_s": ("s", "lower"),
    "cli.series_csv_s": ("s", "lower"),
    "cli.profile_csv_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "simulator.self_s": ("s", "lower"),
    "simulator.steps": ("count", "lower"),
    "simulator.snapshots": ("count", "lower"),
    "coefficients.eval_s": ("s", "lower"),
    "coefficients.eval_calls": ("count", "lower"),
    "potential.assemble_s": ("s", "lower"),
    "potential.solve_self_s": ("s", "lower"),
    "potential.compat_s": ("s", "lower"),
    "potential.calls": ("count", "lower"),
    "potential.max_residual": ("rel", "lower"),
    "temperature.source_s": ("s", "lower"),
    "temperature.assemble_s": ("s", "lower"),
    "temperature.solve_self_s": ("s", "lower"),
    "temperature.calls": ("count", "lower"),
    "temperature.max_residual": ("rel", "lower"),
    "tridiag.solve_s": ("s", "lower"),
    "tridiag.solve_calls": ("count", "lower"),
    "tridiag.solve_us_p50": ("us", "lower"),
    "tridiag.solve_us_tail": ("us", "lower"),
    "tridiag.system_size": ("count", "lower"),
    "tridiag.residual_s": ("s", "lower"),
    "tridiag.singular_count": ("count", "lower"),
    "tridiag.flops": ("flop", "lower"),
    "tridiag.bytes": ("bytes", "lower"),
    "tridiag.gflops": ("GFLOP/s", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.accounted_frac": ("ratio", "higher"),
    "trace.unmeasured_hooks": ("count", "lower"),
}

# computed over all traced runs together rather than per run
POOLED = ("tridiag.solve_us_p50", "tridiag.solve_us_tail", "trace.overhead_s")

# metric -> hooked functions whose spans it is made of
_SELF_TIME = {
    "cli.parse_s": ("parse_config",),
    "cli.series_csv_s": ("write_series_csv",),
    "cli.profile_csv_s": ("write_profile_csv",),
    "cli.self_s": ("run_cli",),
    "simulator.self_s": ("run", "run_reduced", "step"),
    "coefficients.eval_s": ("eval_k", "eval_sigma"),
    "potential.assemble_s": ("assemble_potential",),
    "potential.solve_self_s": ("solve_potential",),
    "potential.compat_s": ("check_current_compatibility",),
    "temperature.source_s": ("joule_source_vector",),
    "temperature.assemble_s": ("assemble_temperature",),
    "temperature.solve_self_s": ("solve_temperature",),
    "tridiag.solve_s": ("thomas_solve",),
    "tridiag.residual_s": ("residual_norm",),
}
_CALLS = {
    "coefficients.eval_calls": ("eval_k", "eval_sigma"),
    "potential.calls": ("solve_potential",),
    "temperature.calls": ("solve_temperature",),
    "tridiag.solve_calls": ("thomas_solve",),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "error", "value")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child = 0.0  # time covered by spans this one called
        self.error = None
        self.value = None  # what the span measured besides time

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


def _probe(name: str, args, result):
    """Counts read at the boundary: sizes, output bytes, residuals, steps."""
    if name == "thomas_solve":
        return len(args[0].rhs)
    if name in ("write_series_csv", "write_profile_csv"):
        return len(result)
    if name == "residual_norm":
        system = args[0]
        return result / (1.0 + float(abs(system.rhs).max()))
    if name in ("run", "run_reduced"):
        return (len(result.diagnostics.max_change), len(result.snapshots))
    return None


class Tracer:
    """Installs span-recording wrappers and undoes them on ``uninstall``."""

    def __init__(self, tf, cli):
        self.spans: list[Span] = []
        self.called: set[str] = set()
        self._stack: list[Span] = []
        self._patches: list[tuple] = []
        self._singular = getattr(tf, "SingularSystemError", ())
        self.unmeasured: list[str] = []
        originals = {}
        for layer, names in HOOKS.items():
            home = cli if layer == "cli" else tf
            for name in names:
                fn = getattr(home, name, None)
                if callable(fn):
                    originals[id(fn)] = self._wrap(name, fn)
                else:
                    self.unmeasured.append(f"{layer}.{name}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "thermistor_fem" and not mod_name.startswith("thermistor_fem."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def idle_layers(self) -> list[str]:
        """Layers none of whose hooked functions ran in a checked run."""
        return [layer for layer, names in HOOKS.items()
                if not self.called.intersection(names)]

    def uninstall(self) -> None:
        for module, attr, value in self._patches:
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        singular = self._singular

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = "singular" if isinstance(exc, singular) else type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                spans.append(span)
            try:
                span.value = _probe(name, args, result)
            except (AttributeError, IndexError, TypeError):
                span.value = None
            return result

        return wrapper

    def iteration_metrics(self, wall: float) -> tuple[dict, list[float]]:
        """Per-layer metrics of the spans since the last call, then forget them.

        Returns the metrics and the per-call Thomas solve times in
        microseconds (pooled by the caller for percentiles).
        """
        spans, self.spans[:] = list(self.spans), []
        by_name: dict[str, list[Span]] = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        self.called.update(by_name)
        m = {}
        for metric, names in _SELF_TIME.items():
            m[metric] = sum(s.self_time for n in names for s in by_name.get(n, ()))
        for metric, names in _CALLS.items():
            m[metric] = sum(len(by_name.get(n, ())) for n in names)
        m["cli.out_bytes"] = sum(s.value or 0 for n in ("write_series_csv", "write_profile_csv")
                                 for s in by_name.get(n, ()))
        runs = [s.value for n in ("run", "run_reduced") for s in by_name.get(n, ())
                if s.value is not None]
        m["simulator.steps"] = sum(r[0] for r in runs)
        m["simulator.snapshots"] = sum(r[1] for r in runs)
        for layer, caller in (("potential", "solve_potential"),
                              ("temperature", "solve_temperature")):
            m[f"{layer}.max_residual"] = max(
                (s.value for s in by_name.get("residual_norm", ())
                 if s.parent is not None and s.parent.name == caller
                 and s.value is not None), default=0.0)
        solves = by_name.get("thomas_solve", ())
        rows = sum(s.value or 0 for s in solves)
        m["tridiag.system_size"] = max((s.value or 0 for s in solves), default=0)
        m["tridiag.singular_count"] = sum(s.error == "singular" for s in solves)
        m["tridiag.flops"] = THOMAS_FLOPS_PER_ROW * rows
        m["tridiag.bytes"] = THOMAS_BYTES_PER_ROW * rows
        m["tridiag.gflops"] = (m["tridiag.flops"] / m["tridiag.solve_s"] / 1e9
                               if m["tridiag.solve_s"] > 0 else 0.0)
        m["trace.wall_s"] = wall
        m["trace.accounted_frac"] = sum(s.self_time for s in spans) / wall
        m["trace.unmeasured_hooks"] = len(self.unmeasured)
        return m, [s.duration * 1e6 for s in solves]

