"""Time a tridiagonal solve by its blocks and by one product with T^-1,
over system sizes, to set ``tridiag.DENSE_BLOCKS``.

    PYTHONPATH=src python3 tools/solve_sweep.py [--solves 200] [--repeats 101]
        [--sizes M [M ...]]

For each size m (``SIZES`` unless ``--sizes`` names others) it factors the
corrected fig1 temperature rows (N = m - 1) twice, with ``DENSE_BLOCKS``
patched to 0, so the factors hold no T^-1 and solve by their blocks, and
to the number of blocks, so they hold T^-1.  It times the held solve of
either set, ``thomas_solve`` of a system whose rhs is the factors' rhs
block, as a temperature step makes it.  It also times a one-off
``checked_solve``, which factors its system, at either cap.  T^-1 takes
m^2 floats, so it is formed only up to the largest of ``SIZES`` (384 rows);
past that, its columns read ``-`` and only the block solve is timed.  Each
figure is the best of ``--repeats`` loops of ``--solves`` solves (a tenth
as many one-off ones), in microseconds per solve, one BLAS thread; the
loops of the two caps alternate.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from time import perf_counter

import numpy as np

import thermistor_fem as tf
from thermistor_fem import tridiag

SIZES = (33, 64, 101, 128, 129, 256, 384)


def held_us(system, cap: int, solves: int) -> float:
    """Microseconds per held solve by factors made with ``cap``."""
    tridiag.DENSE_BLOCKS = cap
    factors = tridiag._factor(system.sub, system.main, system.sup)
    held = system.with_rhs(factors.rhs_in)
    factors.rhs_in[:] = system.rhs
    t0 = perf_counter()
    for _ in range(solves):
        tridiag.thomas_solve(held, factors)
    return (perf_counter() - t0) / solves * 1e6


def once_us(system, cap: int, solves: int) -> float:
    """Microseconds per one-off checked solve with ``cap``."""
    tridiag.DENSE_BLOCKS = cap
    t0 = perf_counter()
    for _ in range(solves):
        tf.checked_solve(system, "temperature", [])
    return (perf_counter() - t0) / solves * 1e6


def columns(times: list[float]) -> str:
    """One kind of solve's figures by blocks and by T^-1, and their ratio;
    ``-`` where T^-1 was not formed."""
    if len(times) == 1:
        return f"{times[0]:>10.2f} {'-':>10} {'-':>6}"
    block, dense = times
    return f"{block:>10.2f} {dense:>10.2f} {dense / block:>6.2f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--solves", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=101)
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES,
                        metavar="M", help="system sizes (default: %(default)s)")
    args = parser.parse_args(argv)
    cap = tridiag.DENSE_BLOCKS
    model = tf.CoefficientModel(1.0, 0.1, 1.0, 1.0)
    once = max(args.solves // 10, 1)
    print(f"DENSE_BLOCKS = {cap}; us per solve, best of {args.repeats} x "
          f"{args.solves} held and {once} one-off solves")
    print(f"{'m':>5} {'blocks':>6} {'held:block':>10} {'held:dense':>10} "
          f"{'ratio':>6} {'once:block':>10} {'once:dense':>10} {'ratio':>6}")
    for m in args.sizes:
        mesh = tf.build_mesh(m - 1)
        operator = tf.TemperatureOperator(mesh, model, 0.1, 0.2, tf.CORRECTED)
        alpha = 0.05 * np.sin(np.pi * mesh.nodes) + 0.25
        system = operator.matrix.with_rhs(operator.mass(alpha) + 1e-4)
        blocks = -(-m // min(tridiag.BLOCK, m))
        caps = (0, blocks) if m <= max(SIZES) else (0,)
        best = [float("inf")] * (2 * len(caps))
        try:
            for _ in range(args.repeats):  # the caps alternate
                best = [min(old, new) for old, new in zip(best, (
                    *(held_us(system, c, args.solves) for c in caps),
                    *(once_us(system, c, once) for c in caps)))]
        finally:
            tridiag.DENSE_BLOCKS = cap
        print(f"{m:>5} {blocks:>6} {columns(best[:len(caps)])} "
              f"{columns(best[len(caps):])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
