"""Benchmark a change against its parent commit in alternating pairs and
write the result as ``BENCH_<n>.json``.

    python3 tools/bench_pairs.py --number 25 --change "what changed" \
        --claim "the claimed gain, or none" [--parent HEAD] [--seconds 6]

The parent commit is extracted with ``git archive`` into a scratch
directory, and the change is the working tree this script sits in.  Each
side's interpreters read and write their bytecode in a directory of that
side's own (``PYTHONPYCACHEPREFIX``), empty at the start, and a first,
untimed run of each workload on each side fills it, so neither side's
set-up time reads a ``__pycache__`` the other lacks.  For every workload of
``BENCHMARK.json`` and every seed (1-10 by default) it runs
``perfbench/run.py --trace 0`` once on each side, the parent first on odd
seeds and the change first on even ones, and reads the end-to-end metrics
from the ``--out`` record.  Then it runs ``--trace 1`` at seed 0, parent
then change, for the call counts and the per-layer metrics.  The record
keeps, per workload and metric, both sides' values, their medians and
quartiles, and how many pairs the change won (by the metric's ``better`` in
``BENCHMARK.json``) or tied.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("simulator.steps", "coefficients.eval_calls", "potential.calls",
          "tridiag.solve_calls", "temperature.calls")


def extract(commit: str, into: Path) -> None:
    """Write the tree of ``commit`` into ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def child_env(pycache: Path) -> dict:
    """This process's environment, with bytecode read and written under
    ``pycache`` and never kept from being written."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def perfbench(side: Path, workload: str, seed: int, seconds: float,
              trace: int, out: Path, env: dict) -> dict:
    """One ``perfbench/run.py`` record of the tree at ``side``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=side, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"{' '.join(cmd)} in {side} exited "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(out.read_text())


def summary(parent: list, change: list, better: str) -> dict:
    """Both sides' values, medians, quartiles, and the pairs won or tied."""
    wins = sum((c < p) if better == "lower" else (c > p)
               for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    return {
        "parent": parent,
        "change": change,
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "change_better": wins,
        "ties": ties,
        "pairs": len(parent),
    }


def quartiles(values: list) -> list:
    """First and third quartile (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return [values[0], values[0]] if values else []
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def host(env: dict, note: str) -> str:
    numba = "numba" if env.get("numba") else "no numba"
    text = (f"{env.get('nproc')}-CPU {platform.machine()} host, Python "
            f"{env.get('python')}, numpy {env.get('numpy')}, scipy "
            f"{env.get('scipy')}, {numba}")
    return f"{note} {text}" if note else text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True,
                        help="write BENCH_<number>.json at the repo root")
    parser.add_argument("--change", required=True,
                        help="one line on what the change does")
    parser.add_argument("--claim", required=True,
                        help="the gain claimed, or 'none'")
    parser.add_argument("--parent", default="HEAD",
                        help="the commit to compare with (default HEAD)")
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 10),
                        metavar=("FIRST", "LAST"))
    parser.add_argument("--workloads", nargs="*",
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--host-note", default="",
                        help="words put before the host description")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    layers = [m["name"] for m in bench["per_layer"]]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = range(args.seeds[0], args.seeds[1] + 1)
    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                            check=True, capture_output=True,
                            text=True).stdout.strip()

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        tmp = Path(tmp)
        sides = {"parent": tmp / "parent", "change": ROOT}
        extract(commit, sides["parent"])
        envs = {side: child_env(tmp / f"pycache-{side}") for side in sides}
        values = {w: {s: {m: [] for m in better} for s in sides}
                  for w in workloads}
        failed = {w: {s: 0 for s in sides} for w in workloads}
        env = None
        for workload in workloads:
            for side in sides:  # compiles what the timed runs import
                perfbench(sides[side], workload, 0, 0.5, 0,
                          tmp / "record.json", envs[side])
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change",
                                                               "parent")
                for side in order:
                    record = perfbench(sides[side], workload, seed,
                                       args.seconds, 0, tmp / "record.json",
                                       envs[side])
                    env = env or record["env"]
                    result = record["result"]
                    failed[workload][side] += result["failed"]
                    for name in better:
                        values[workload][side][name].append(
                            result["metrics"][name]["value"])
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{result['metrics']['wall_s']['value']:.5g}",
                          file=sys.stderr)
        counts = {w: {} for w in workloads}
        traced = {w: {} for w in workloads}
        for workload in workloads:
            for side in ("parent", "change"):
                record = perfbench(sides[side], workload, 0, args.seconds, 1,
                                   tmp / "record.json", envs[side])
                metrics = record["result"]["metrics"]
                counts[workload][side] = {name: metrics[name]["value"]
                                          for name in COUNTS}
                traced[workload][side] = {name: metrics[name]["value"]
                                          for name in layers
                                          if name in metrics}

    pairs_command = (f"python3 perfbench/run.py --workload W --seed S "
                     f"--seconds {args.seconds:g} --trace 0 --out FILE, "
                     f"seeds {seeds.start}-{seeds.stop - 1}, parent first on "
                     f"odd seeds and the change first on even ones, each "
                     f"side with its own PYTHONPYCACHEPREFIX, filled by an "
                     f"untimed run of each workload")
    record = {
        "what": "perfbench/run.py end-to-end medians of the parent commit "
                "and of this change, in alternating pairs on every "
                "workload, and the call counts of --trace 1 records at "
                "seed 0",
        "parent_commit": commit,
        "change": args.change,
        "claim": args.claim,
        "host": host(env, args.host_note),
        "pairs_command": pairs_command,
        "trace_command": f"python3 perfbench/run.py --workload W --seed 0 "
                         f"--seconds {args.seconds:g} --trace 1 --out FILE, "
                         f"parent then change",
        "pairs": {w: {name: summary(values[w]["parent"][name],
                                    values[w]["change"][name], better[name])
                      for name in better} for w in workloads},
        "failed_runs": failed,
        "trace_counts": counts,
        "trace_layers": traced,
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload in workloads:
        wall = record["pairs"][workload]["wall_s"]
        print(f"{workload}: wall_s {wall['parent_median']:.5g} -> "
              f"{wall['change_median']:.5g} s, change better in "
              f"{wall['change_better']} of {wall['pairs']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
