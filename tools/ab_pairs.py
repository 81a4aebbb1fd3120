"""Time one perfbench workload on two source trees in one process, in
interleaved pairs.

    python3 tools/ab_pairs.py --against DIR [--workload reduced_n2000] \
        [--pairs 21] [--runs 5]

DIR is the root of another checkout of this repository (the parent commit,
say, from ``git archive``).  Its package and this tree's are imported under
two module names with importlib, and the workload's ``execute`` of
``perfbench/workloads.py`` (this tree's copy, for both sides) is timed on
the nominal draw.  A pair is ``--runs`` calls on each side, the other tree
first in odd-numbered pairs and this tree first in even-numbered ones, and
a side's value for the pair is the median of its calls.  The script prints
each side's median and quartiles over the pairs, the ratio of the medians,
how many pairs this tree won, and whether the two trees' first outputs have
the same bits.

Fresh processes time a solve bimodally, by where its arrays land, so two
trees compare more closely in one process.  ``tools/bench_pairs.py``
remains the script that writes the BENCH records.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from bench_pairs import quartiles  # this script's directory is on the path

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
    """The package of the tree at ``root``, imported as ``name``, and its
    cli module."""
    package = root / "src" / "thermistor_fem"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"ab_pairs: no package source under {root}")
    tf = load(package / "__init__.py", name, [str(package)])
    return tf, importlib.import_module(f"{name}.cli")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="root of the tree to compare this one with")
    parser.add_argument("--workload", default="reduced_n2000")
    parser.add_argument("--pairs", type=int, default=21)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.runs < 1:
        parser.error("--pairs and --runs must be at least 1")

    workloads = load(ROOT / "perfbench" / "workloads.py", "ab_workloads")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    draw = workloads.draws(0)[0]
    sides = {"against": args.against.resolve(), "change": ROOT}
    times = {side: [] for side in sides}
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        tmp = Path(tmp)
        runs = {}
        for index, (side, root) in enumerate(sides.items()):
            tf, cli = program(root, f"ab_{side}_thermistor_fem")
            case = workload.prepare(tf, cli, draw, tmp, index,
                                    with_reference=False)
            # set-up and the first outputs, outside the timing
            case.first = workload.collect(
                case, workload.execute(tf, cli, case))
            runs[side] = (tf, cli, case)
        for pair in range(args.pairs):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for side in order:
                tf, cli, case = runs[side]
                calls = []
                for _ in range(args.runs):
                    t0 = perf_counter()
                    raw = workload.execute(tf, cli, case)
                    calls.append(perf_counter() - t0)
                    workload.collect(case, raw)  # removes a run's files
                times[side].append(statistics.median(calls))
    first = {side: runs[side][2].first for side in sides}
    same = first["change"].profile.tobytes() \
        == first["against"].profile.tobytes() \
        and first["change"].series == first["against"].series

    print(f"{args.workload}, nominal draw: {args.pairs} pairs of "
          f"{args.runs} runs, ms (median of each side's runs in a pair)")
    for side, root in sides.items():
        low, high = quartiles(times[side])
        print(f"{side:>8} median {statistics.median(times[side]) * 1e3:.3f} "
              f"quartiles {low * 1e3:.3f} {high * 1e3:.3f}  {root}")
    ratio = statistics.median(times["change"]) \
        / statistics.median(times["against"])
    won = sum(c < a for a, c in zip(times["against"], times["change"]))
    print(f"ratio {ratio:.4f}, change faster in {won} of {args.pairs} pairs")
    print(f"same output bits: {'yes' if same else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
