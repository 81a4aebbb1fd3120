"""Time the held temperature step with its residual taken per step and per
block, over system sizes, to set ``temperature.CELLS``.

    PYTHONPATH=src python3 tools/cells_sweep.py [--steps 2000] [--repeats 15]

For each size m it times ``TemperatureOperator.advance`` on the corrected
fig1 rows (N = m - 1) with a list as its residual sink, which checks every
step at once, and with a ``ResidualBlock``, which holds the step and checks
a block of K steps in one pass (flushes included).  K is ``CELLS // m``, and
at least 8, so sizes past the cut-over are timed too.  Each figure is the
best of ``--repeats`` loops of ``--steps`` steps, in microseconds per step;
the two kinds of loop alternate.
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
from thermistor_fem import temperature

SIZES = (101, 201, 401, 801, 1001, 2001)


def loop_us(operator, alpha, source, sink, steps) -> float:
    """Microseconds per step of ``steps`` advances into ``sink``."""
    t0 = perf_counter()
    for _ in range(steps):
        operator.advance(alpha, source, sink)
    if isinstance(sink, temperature.ResidualBlock):
        sink.flush()
    return (perf_counter() - t0) / steps * 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    cells = temperature.CELLS
    model = tf.CoefficientModel(1.0, 0.1, 1.0, 1.0)
    print(f"CELLS = {cells}; us per step, best of {args.repeats} x "
          f"{args.steps} steps")
    print(f"{'m':>6} {'K':>4} {'per step':>9} {'per block':>10} {'ratio':>6}")
    for m in SIZES:
        mesh = tf.build_mesh(m - 1)
        operator = tf.TemperatureOperator(mesh, model, 0.1, 0.2, tf.CORRECTED)
        alpha = 0.05 * np.sin(np.pi * mesh.nodes) + 0.25
        source = np.full(m, 1e-4)
        block_steps = max(cells // m, 8)
        operator.advance(alpha, source)  # factor once, outside the timing
        step = block = float("inf")
        for _ in range(args.repeats):  # the two loops alternate
            step = min(step, loop_us(operator, alpha, source, [],
                                     args.steps))
            temperature.CELLS = block_steps * m  # K rows of m, for any m
            try:
                block = min(block, loop_us(
                    operator, alpha, source, temperature.ResidualBlock([]),
                    args.steps))
            finally:
                temperature.CELLS = cells
        print(f"{m:>6} {block_steps:>4} {step:>9.2f} {block:>10.2f} "
              f"{block / step:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
