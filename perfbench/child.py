"""Fresh-interpreter probe for one workload: set-up time and peak memory.

Run by ``run.py``; prints one JSON line.  ``setup_s`` is the time to import
``thermistor_fem`` and build the config, mesh and model; ``ref_s`` is the
mean reference kernel time over a block as long as the set-up, run right
after it (``refspeed.py``), which the parent uses to scale ``setup_s`` to
the reference host speed.  With ``--run`` the
probe also runs the workload once, reads its peak resident memory before the
oracle allocates anything, and then checks the output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--draw", required=True, help="parameter set as JSON")
    parser.add_argument("--n-elements", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--run", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))

    t0 = perf_counter()
    import thermistor_fem as tf
    from thermistor_fem import cli
    import_s = perf_counter() - t0

    import workloads  # the benchmark's own code: numpy is loaded already

    wl = workloads.WORKLOADS[args.workload]
    t1 = perf_counter()
    case = wl.prepare(tf, cli, json.loads(args.draw), Path(args.tmp), index=0,
                      n_elements=args.n_elements, with_reference=False)
    case.config.build_mesh()
    case.config.build_model()
    setup_s = import_s + perf_counter() - t1

    import refspeed
    refspeed.warm_up()
    record = {"setup_s": setup_s, "ref_s": refspeed.reference_s(setup_s)}

    if args.run:
        try:
            raw = wl.execute(tf, cli, case)
            record["peak_rss_mib"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            case.reference = wl.reference(tf, case)
            wl.gate(case, wl.collect(case, raw))
            record["ok"] = True
        except Exception as exc:  # reported to the parent, which counts it failed
            record["ok"] = False
            record["error"] = f"{type(exc).__name__}: {exc}"
    print(json.dumps(record))


if __name__ == "__main__":
    main()
