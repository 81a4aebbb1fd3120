"""Time a layer table or a perfbench workload on this tree alone, or on this
tree and another in one process, in interleaved pairs.

    python3 tools/ab_pairs.py WHAT [--against DIR] [--pairs 21] [--runs R]
        [--sizes S [S ...]]

WHAT is a workload of ``perfbench/workloads.py`` (this tree's copy, for
both sides), whose ``execute`` is timed on the nominal draw, at its N or
each of ``--sizes``, after its set-up and first run, or one of these
tables, over sizes m or N:

    solve   on the corrected fig1 temperature rows, a held solve
            (``thomas_solve`` of the factors' rhs block, as a step makes
            it) and a one-off ``checked_solve``, a tenth as many, by blocks
            (``DENSE_BLOCKS`` patched to 0) and by T^-1 (patched to the
            number of blocks); past 384 rows T^-1 is not formed and its
            columns read ``-``
    cells   ``TemperatureOperator.advance`` on the same rows with a list
            sink, which checks each step, and with a ``ResidualBlock``,
            which checks K = ``CELLS // m`` steps, at least 8, at once
            (flushes included); both inside the run's error state, as a
            run calls it (a tree without that state calls it as it is),
            so their ratio measures the block check
    phases  a corrected ``rational_sigma`` step (k0 = sigma0 = lambda = 1,
            beta = 0.2, tau = 0.1, unit fluxes) by its public calls, each
            a direct call in its own error state: ``eval_sigma``,
            ``solve_potential`` with its defect,
            ``TemperatureOperator.source`` and ``advance`` with a
            ``ResidualBlock``; and one call of the stepper ``run`` builds,
            which also takes the compatibility residual, inside the run's
            error state, entered once a loop, as ``simulator._march`` calls
            it (a tree without that state calls it as it is)
    csv     the series CSV of a run recorded at every step, by
            ``write_series_csv`` into a ``BytesIO`` (4 values a row): of
            fig1, whose blocks share one potential array, and of fig1 with
            a ``rational_sigma`` (k0 = sigma0 = lambda = 1), whose
            snapshots each hold their own; and ``_cells`` alone on the
            temperatures of fig1's first block (about ``_BLOCK_ROWS``
            rows); each in ns per value

A figure is one loop of ``--runs`` calls, timed per call (a workload's is
its median call), and reads as its median over ``--pairs`` pairs; a pair
times the figure on each side, the other tree first in odd-numbered pairs.
With ``--against DIR``, the root of another checkout (the parent commit,
say, from ``git archive``), both trees' packages are imported under two
module names, and every figure prints both sides' medians and quartiles,
their ratio and the pairs this tree won; a workload and ``csv`` also say
whether the first outputs have the same bits.  Fresh processes time a
solve bimodally, by where its arrays land, so two trees compare more
closely in one process.
``tools/bench_pairs.py`` writes the BENCH records.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import importlib
import importlib.util
import statistics
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from io import BytesIO
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np

from bench_pairs import summary  # this script's directory is on the path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path, name: str, search: list[str] | None = None):
    """Import the module or package file ``path`` as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def program(root: Path, name: str):
    """The package of the tree at ``root``, imported as ``name``."""
    package = root / "src" / "thermistor_fem"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"ab_pairs: no package source under {root}")
    return load(package / "__init__.py", name, [str(package)])


def timed(call, *args, sink=None, within=nullcontext):
    """A loop: microseconds per call of ``calls`` calls of ``call(*args)``,
    given a fresh ``sink()`` last, if any, whose ``flush`` (a
    ``ResidualBlock``'s) is timed too; inside ``within()``, a context (a
    patch of a setting, a run's error state), if given."""
    def loop(calls: int) -> float:
        with within():
            full = args if sink is None else (*args, sink())
            t0 = perf_counter()
            for _ in range(calls):
                call(*full)
            if sink is not None and hasattr(full[-1], "flush"):
                full[-1].flush()
            return (perf_counter() - t0) / calls * 1e6
    return loop


def step_rows(tf, m: int):
    """The corrected fig1 step operator on m nodes, a profile, its rhs."""
    mesh = tf.build_mesh(m - 1)
    operator = tf.TemperatureOperator(
        mesh, tf.CoefficientModel(1.0, 0.1, 1.0, 1.0), 0.1, 0.2, tf.CORRECTED)
    alpha = 0.05 * np.sin(np.pi * mesh.nodes) + 0.25
    return operator, alpha, operator.mass(alpha) + 1e-4


def solve(tf, m: int):
    tridiag = tf.tridiag
    operator, _, rhs = step_rows(tf, m)
    system = operator.matrix.with_rhs(rhs)
    blocks = -(-m // min(tridiag.BLOCK, m))
    caps = {"block": 0, "dense": blocks} \
        if m <= max(TABLES["solve"].sizes) else {"block": 0}
    figures = {}
    for name, cap in caps.items():
        cap = mock.patch.object(tridiag, "DENSE_BLOCKS", cap)
        with cap:
            factors = tridiag._factor(system.sub, system.main, system.sup)
        factors.rhs_in[:] = system.rhs
        figures[f"held:{name}"] = timed(
            tridiag.thomas_solve, system.with_rhs(factors.rhs_in), factors)
        once = timed(tf.checked_solve, system, "temperature", sink=list,
                     within=lambda cap=cap: cap)
        figures[f"once:{name}"] = lambda calls, once=once: once(
            max(calls // 10, 1))
    return {"m": m, "blocks": blocks}, figures, None


def cells(tf, m: int):
    temperature = tf.temperature
    operator, alpha, _ = step_rows(tf, m)
    source = np.full(m, 1e-4)
    operator.advance(alpha, source)  # factor once, outside the timing
    steps = max(temperature.CELLS // m, 8)
    state = getattr(tf.errors, "_run_state", nullcontext)
    cap = mock.patch.object(temperature, "CELLS", steps * m)

    @contextmanager
    def held():  # K rows of m, for any m
        with state(), cap:
            yield

    return {"m": m, "K": steps}, {
        "per step": timed(operator.advance, alpha, source, sink=list,
                          within=state),
        "per block": timed(operator.advance, alpha, source,
                           sink=lambda: temperature.ResidualBlock([]),
                           within=held),
    }, None


def phases(tf, n: int):
    config = tf.SimulationConfig(
        n_elements=n, tau=0.1, beta=0.2,
        model=tf.ModelSpec("rational_sigma",
                           {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0}),
        flux_left=1.0, flux_right=1.0, t_max=1.0)
    mesh, model = config.build_mesh(), config.build_model()
    alpha = 0.05 * np.sin(np.pi * mesh.nodes) + 0.25
    operator = tf.TemperatureOperator(mesh, model, config.tau, config.beta,
                                      tf.CORRECTED)
    sigma = tf.eval_sigma(model, alpha)
    mu = tf.solve_potential(sigma, mesh, model, tf.CORRECTED)
    source = operator.source(sigma, mu)
    operator.advance(alpha, source)  # factor once, outside the timing
    stepper = tf.simulator._coupled(config, mesh, model, [])
    stepper(alpha, [])  # its operator factors at its first step

    def block():
        return tf.temperature.ResidualBlock([])

    return {"N": n}, {
        "sigma": timed(tf.eval_sigma, model, alpha),
        "potential": timed(tf.solve_potential, sigma, mesh, model,
                           tf.CORRECTED, None, sink=list),
        "source": timed(operator.source, sigma, mu),
        "advance": timed(operator.advance, alpha, source, sink=block),
        "step": timed(stepper, alpha, sink=block, within=getattr(
            tf.errors, "_run_state", nullcontext)),
    }, None


def csv(tf, n: int):
    cli = importlib.import_module(f"{tf.__name__}.cli")
    fig1 = dataclasses.replace(
        cli.parse_config((ROOT / "fig1.cfg").read_text()), n_elements=n,
        record_every=1)
    # sigma depends on the temperature: a potential array per snapshot
    rational = dataclasses.replace(fig1, model=tf.ModelSpec(
        "rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0}))
    results = [tf.run(fig1), tf.run(rational)]
    block = results[0].snapshots[:max(1, cli._BLOCK_ROWS // (n + 1))]
    temperatures = np.concatenate([snap.temperature for snap in block])

    def series(result) -> BytesIO:
        out = BytesIO()
        cli.write_series_csv(result, out)
        return out

    def per_value(loop, values: int):  # ns per value
        return lambda calls: loop(calls) * 1e3 / values

    return {"N": n}, {
        **{name: per_value(timed(series, result),
                           4 * len(result.snapshots) * (n + 1))
           for name, result in zip(("fig1", "rational"), results)},
        "cells": per_value(timed(cli._cells, temperatures),
                           temperatures.size),
    }, [series(result).getvalue() for result in results]


class Table(NamedTuple):
    """``row(tf, size)`` gives a row's keys, its figures' loops and its
    first output, compared by ``==`` (None for a layer); ``columns`` are
    figures and "ratio", the figure before it over the one before that;
    ``title`` is formatted with ``tf`` and ``runs``."""
    row: Callable
    sizes: tuple
    runs: int
    columns: tuple
    title: str


TABLES = {
    "solve": Table(
        solve, (33, 64, 101, 128, 129, 256, 384), 200,
        ("held:block", "held:dense", "ratio", "once:block", "once:dense",
         "ratio"), "DENSE_BLOCKS = {tf.tridiag.DENSE_BLOCKS}; us per solve, "
        "loops of {runs} held and a tenth as many one-off solves"),
    "cells": Table(
        cells, (101, 201, 401, 801, 1001, 2001), 2000,
        ("per step", "per block", "ratio"),
        "CELLS = {tf.temperature.CELLS}; us per step, loops of {runs} steps; "
        "both in the run's error state, so the ratio is the block check's"),
    "phases": Table(
        phases, (100, 1000, 2000), 2000,
        ("sigma", "potential", "source", "advance", "step"),
        "rational_sigma, corrected; us per step, loops of {runs} steps; "
        "direct calls in their own error states, the stepper in the run's"),
    "csv": Table(
        csv, (100, 1000), 5, ("fig1", "rational", "cells"),
        "record_every = 1; ns per value, loops of {runs} calls: "
        "write_series_csv into a BytesIO of fig1 and of rational_sigma, "
        "_cells on a fig1 block's temperatures"),
}


def workload(workloads, name: str, tmp: Path) -> Table:
    """The workload ``name`` as a table of one figure, at its N or the
    sizes given, whose output is the first run's."""
    work = workloads.WORKLOADS[name]

    def row(tf, n: int):
        cli = importlib.import_module(f"{tf.__name__}.cli")
        files = Path(tempfile.mkdtemp(dir=tmp))  # a row's own files
        case = work.prepare(tf, cli, workloads.draws(0)[0], files, 0, n,
                            with_reference=False)
        first = work.collect(case, work.execute(tf, cli, case))

        def loop(calls: int) -> float:
            times = []
            for _ in range(calls):
                t0 = perf_counter()
                raw = work.execute(tf, cli, case)
                times.append(perf_counter() - t0)
                work.collect(case, raw)  # removes a run's files
            return statistics.median(times) * 1e3
        return {"workload": name, "N": n}, {"ms": loop}, (
            first.profile.tobytes(), first.series)

    return Table(row, (work.n_elements,), 5, ("ms",), f"{name}, nominal "
                 "draw; ms per run, median of {runs} runs")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", metavar="WHAT",
                        help="solve, cells, phases, csv or a perfbench "
                             "workload")
    parser.add_argument("--against", type=Path,
                        help="root of a tree to time with this one")
    parser.add_argument("--pairs", type=int, default=21)
    parser.add_argument("--runs", type=int,
                        help="calls per loop (default: the table's)")
    parser.add_argument("--sizes", type=int, nargs="+", metavar="S",
                        help="the sizes, m or N, to time")
    args = parser.parse_args(argv)
    sides = {"change": ROOT} if args.against is None else {
        "against": args.against.resolve(), "change": ROOT}
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        workloads = load(ROOT / "perfbench" / "workloads.py", "ab_workloads")
        if args.what in TABLES:
            table = TABLES[args.what]
        elif args.what in workloads.WORKLOADS:
            table = workload(workloads, args.what, Path(tmp))
        else:
            parser.error(f"WHAT must be one of "
                         f"{', '.join([*TABLES, *workloads.WORKLOADS])}")
        runs = table.runs if args.runs is None else args.runs
        if args.pairs < 1 or runs < 1:
            parser.error("--pairs and --runs must be at least 1")
        built, titles = {}, {}
        for side, root in sides.items():
            tf = program(root, f"ab_{side}_thermistor_fem")
            built[side] = [table.row(tf, size)
                           for size in args.sizes or table.sizes]
            titles[side] = table.title.format(tf=tf, runs=runs)
        times = [{figure: {side: [] for side in sides} for figure in figures}
                 for _, figures, _ in built["change"]]
        for pair in range(args.pairs):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for row, by_figure in enumerate(times):
                for figure, by_side in by_figure.items():
                    for side in order:
                        by_side[side].append(built[side][row][1][figure](runs))

    keys = [row[0] for row in built["change"]]
    if args.against is None:
        print(f"{titles['change']}, median of {args.pairs} loops")
        lines = [[*keys[0], *table.columns]]
        for row, by_figure in zip(keys, times):
            medians = {figure: statistics.median(by_side["change"])
                       for figure, by_side in by_figure.items()}
            values = []  # None where a figure was not timed
            for column in table.columns:
                values.append(values[-1] and values[-1] / values[-2]
                              if column == "ratio" else medians.get(column))
            lines.append([*map(str, row.values()), *(
                "-" if v is None else f"{v:.2f}" for v in values)])
        widths = [max(map(len, column)) for column in zip(*lines)]
        for line in lines:
            print(" ".join(f"{word:>{w}}" for word, w in zip(line, widths)))
        return 0

    print(f"{args.what}: {args.pairs} pairs, the other tree first in "
          f"odd-numbered ones")
    for side, root in sides.items():
        print(f"{side:>8}: {titles[side]}  {root}")
    for row, by_figure in zip(keys, times):
        for figure, by_side in by_figure.items():
            s = summary(by_side["against"], by_side["change"], "lower")
            spreads = ("{} {:.2f} [{:.2f} {:.2f}],".format(
                side, s[f"{key}_median"], *s[f"{key}_quartiles"])
                for side, key in (("against", "parent"), ("change", "change")))
            print(*(f"{k} {v}" for k, v in row.items()), f"{figure}:",
                  *spreads,
                  f"ratio {s['change_median'] / s['parent_median']:.4f},",
                  f"change faster in {s['change_better']} of {s['pairs']}")
    firsts = [(a[2], c[2]) for a, c in zip(built["against"], built["change"])
              if c[2] is not None]
    if firsts:  # a workload's or the csv's, at every size
        same = all(a == c for a, c in firsts)
        print(f"same output bits: {'yes' if same else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
