"""End-to-end and per-layer benchmark of thermistor_fem.

    python3 perfbench/run.py --workload fig1_cli --seed 0 --seconds 30 --trace 0

One client, one process, one thread, closed loop: each run of the workload
starts when the previous one has been checked.  BLAS threads are pinned to 1.
The seed picks the parameter mix (see ``workloads.py``); runs cycle through
the mix until ``--seconds`` have passed, and timings are reported as the
median over the mix of each parameter set's median.  The end-to-end timings
are scaled to a fixed host speed by a reference kernel timed before and
after every run (``refspeed.py``); the raw timings are in the record.

``--trace 0`` prints the end-to-end metrics; set-up time and peak memory come
from fresh child interpreters.  ``--trace 1`` spends half the time untraced
and half with span-recording wrappers around each layer's public functions
(``layers.py``), and prints the per-layer metrics.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
import refspeed
from workloads import WORKLOADS, GateError, draws

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "steps": ("count", "lower"),
    "solution_err": ("abs", "lower"),
}
SETUP_RUNS = 8
REF_SHARE = 0.2  # reference block after each timed run, as a share of its time
CHILD_TIMEOUT_S = 120


def load_program():
    """Import thermistor_fem from the source tree beside the benchmark."""
    if not (SRC / "thermistor_fem" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import thermistor_fem as tf
    from thermistor_fem import cli
    if SRC not in Path(tf.__file__).resolve().parents:
        print(f"perfbench: imported {tf.__file__}, not the source tree",
              file=sys.stderr)
        sys.exit(2)
    return tf, cli


def median_of_medians(samples: list[list[float]]) -> float:
    """Median over parameter sets of each set's median; 0.0 if none ran."""
    medians = [statistics.median(s) for s in samples if s]
    return statistics.median(medians) if medians else 0.0


def scale(walls: list[list[float]], refs: list[list[float]]) -> list[list[float]]:
    """Wall times scaled to the reference host speed (see refspeed.py)."""
    return [[w * refspeed.REF_S / r for w, r in zip(ws, rs)]
            for ws, rs in zip(walls, refs)]


def steps_per_s(cases, walls: list[list[float]], done: list[int]) -> float:
    """Median over the finished parameter sets of steps / median wall time."""
    if not done:
        return 0.0
    return statistics.median([cases[k].first.steps / statistics.median(walls[k])
                              for k in done])


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9), ("p50", 0.5)):
        if len(values) * (1.0 - q) >= 10:
            return label, quantile(values, q)
    return None


def quantile(values, q: float) -> float:
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


class Bench:
    """Runs one workload's cases, checks every output, counts failures."""

    def __init__(self, tf, cli, workload, cases):
        self.tf, self.cli, self.wl, self.cases = tf, cli, workload, cases
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def once(self, case) -> float | None:
        """Run, time and check one case; None if it failed."""
        self.attempted += 1
        try:
            t0 = perf_counter()
            raw = self.wl.execute(self.tf, self.cli, case)
            wall = perf_counter() - t0
            out = self.wl.collect(case, raw)
            err = self.wl.gate(case, out)
            if case.first is None:
                case.first, case.err = out, err
            elif out.steps != case.first.steps \
                    or not np.array_equal(out.profile, case.first.profile) \
                    or out.series != case.first.series:
                raise GateError("output differs from an earlier run of the same input")
        except Exception as exc:  # a failed run is counted, never dropped
            self.fail(f"draw {case.index}: {type(exc).__name__}: {exc}")
            return None
        return wall

    def phase(self, seconds: float, tracer=None, ref_share: float = 0.0):
        """Cycle through the cases for ``seconds`` (at least once each).

        After each run the reference kernel runs for ``ref_share`` of the
        run's time.  Returns per case the wall times, the mean of the
        reference blocks on either side of each run, and the layer metrics.
        """
        walls = [[] for _ in self.cases]
        refs = [[] for _ in self.cases]
        layer = [[] for _ in self.cases]
        per_call: list[float] = []
        deadline = perf_counter() + seconds
        refspeed.warm_up()
        ref_before = refspeed.reference_s(ref_share)
        i = 0
        while i < len(self.cases) or perf_counter() < deadline:
            k = i % len(self.cases)
            i += 1
            wall = self.once(self.cases[k])
            ref_after = refspeed.reference_s(ref_share * (wall or 0.0))
            ref = 0.5 * (ref_before + ref_after)
            ref_before = ref_after
            if wall is None:
                if tracer is not None:
                    tracer.spans.clear()
                continue
            walls[k].append(wall)
            refs[k].append(ref)
            if tracer is not None:
                metrics, calls = tracer.iteration_metrics(wall)
                layer[k].append(metrics)
                per_call.extend(calls)
        return walls, refs, layer, per_call

    def child(self, tmp: Path, run: bool) -> dict | None:
        """One fresh-interpreter probe of the first case (see child.py)."""
        case = self.cases[0]
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.wl.name,
               "--draw", json.dumps(case.draw), "--n-elements", str(case.n_elements),
               "--tmp", str(tmp)] + (["--run"] if run else [])
        self.attempted += 1
        tmp.mkdir(exist_ok=True)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            self.fail(f"child timed out after {CHILD_TIMEOUT_S} s")
            return None
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.fail(f"child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return None
        if run and not record.get("ok"):
            self.fail(f"child run: {record.get('error')}")
            return None
        return record


def environment(tf, seed: int) -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "numba": importlib.util.find_spec("numba") is not None,
        "solve_path": getattr(tf, "ACTIVE_BACKEND", None),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "seed": seed,
        "commit": commit,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            n_elements: int | None = None, setup_runs: int = SETUP_RUNS) -> dict:
    """Run one workload and return the full record (result line included)."""
    tf, cli = load_program()
    wl = WORKLOADS[workload]
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        t0 = perf_counter()
        cases = [wl.prepare(tf, cli, d, tmp, i, n_elements)
                 for i, d in enumerate(draws(seed))]
        prepare_s = perf_counter() - t0
        bench = Bench(tf, cli, wl, cases)
        bench.once(cases[0])  # warm-up, checked and counted like any run

        record = {"workload": workload, "seed": seed, "trace": int(trace),
                  "n_elements": cases[0].n_elements,
                  "draws": [c.draw for c in cases],
                  "prepare_s": prepare_s, "env": environment(tf, seed)}
        if not trace:
            walls, refs, _, _ = bench.phase(seconds, ref_share=REF_SHARE)
            scaled = scale(walls, refs)
            rss = bench.child(tmp / "child", True)
            children = [bench.child(tmp / "child", False)
                        for _ in range(setup_runs)] + [rss]
            children = [r for r in children if r]
            done = [k for k, c in enumerate(cases) if c.first and walls[k]]
            metrics = {
                "setup_s": statistics.median(
                    [r["setup_s"] * refspeed.REF_S / r["ref_s"] for r in children])
                if children else 0.0,
                "wall_s": median_of_medians(scaled),
                "steps_per_s": steps_per_s(cases, scaled, done),
                "peak_rss_mib": rss["peak_rss_mib"] if rss else 0.0,
                "steps": statistics.median([cases[k].first.steps for k in done])
                if done else 0,
                "solution_err": statistics.median([cases[k].err for k in done])
                if done else 0.0,
            }
            units = END_TO_END
            all_walls = [w for ws in walls for w in ws]
            record["raw"] = {
                "setup_s": statistics.median([r["setup_s"] for r in children])
                if children else None,
                "wall_s": median_of_medians(walls),
                "steps_per_s": steps_per_s(cases, walls, done),
                "ref_s": statistics.median([r for rs in refs for r in rs])
                if any(refs) else None,
            }
            record["walls"] = walls
            record["refs"] = refs
            record["steps"] = [c.first.steps if c.first else None for c in cases]
            record["samples"] = len(all_walls)
            record["wall_tail"] = tail(all_walls)
        else:
            untraced = scale(*bench.phase(seconds / 2.0, ref_share=REF_SHARE)[:2])
            tracer = layers.Tracer(tf, cli)
            try:
                traced, refs, layer, per_call = bench.phase(seconds / 2.0, tracer,
                                                            REF_SHARE)
            finally:
                tracer.uninstall()
            metrics = {name: median_of_medians([[m[name] for m in ms] for ms in layer])
                       for name in layers.PER_LAYER if name not in layers.POOLED}
            metrics["tridiag.solve_us_p50"] = \
                statistics.median(per_call) if per_call else 0.0
            solve_tail = tail(per_call)
            metrics["tridiag.solve_us_tail"] = solve_tail[1] if solve_tail else 0.0
            # both halves scaled, so a change of host speed between them cancels
            metrics["trace.overhead_s"] = (median_of_medians(scale(traced, refs))
                                           - median_of_medians(untraced))
            units = layers.PER_LAYER
            record["solve_tail"] = solve_tail
            record["samples"] = sum(len(ms) for ms in layer)
            record["unmeasured"] = tracer.unmeasured
            record["idle_layers"] = tracer.idle_layers()
        record["errors"] = bench.errors
        record["result"] = {
            "correct": bench.failed == 0 and bench.attempted > 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
        }
        return record
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def report(record: dict) -> None:
    """Human-readable lines; the JSON result line comes last."""
    res = record["result"]
    print(f"workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} n_elements={record['n_elements']} "
          f"draws={len(record['draws'])} samples={record['samples']} "
          f"failed_frac={res['failed'] / res['attempted']:.4g}")
    for i, d in enumerate(record["draws"]):
        print(f"  draw {i}: " + " ".join(f"{k}={v:.6g}" for k, v in d.items()))
    if record.get("wall_tail"):
        label, value = record["wall_tail"]
        print(f"  raw wall_s {label}={value:.6g} s over {record['samples']} runs")
    if record.get("raw"):
        print("  raw (not scaled by the reference) "
              + " ".join(f"{k}={v:.6g}" for k, v in record["raw"].items() if v))
    if record.get("solve_tail"):
        print(f"  tridiag.solve_us_tail is {record['solve_tail'][0]}")
    for key in ("unmeasured", "idle_layers"):
        if record.get(key):
            print(f"  {key}: {', '.join(record[key])}")
    for line in record["errors"]:
        print(f"  error: {line}")
    for name, m in res["metrics"].items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print("  env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(res))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record as JSON here")
    args = parser.parse_args(argv)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
