"""Time the coupled step of a run with a callable sigma, phase by phase,
over mesh sizes.

    PYTHONPATH=src python3 tools/stage_sweep.py [--steps 2000] [--repeats 15]

For each N it builds the corrected ``rational_sigma`` case (k0 = sigma0 =
lambda = 1, beta = 0.2, tau = 0.1, unit fluxes) at a fixed temperature
profile and times, in microseconds per step, each the best of ``--repeats``
loops of ``--steps`` calls, the loops of the phases alternating:

    sigma      eval_sigma(model, alpha), the callable and its checks
    potential  solve_potential with a list sink: the potential and its
               first-integral defect
    source     TemperatureOperator.source(sigma, mu), the Joule source
    advance    TemperatureOperator.advance with a ResidualBlock sink, the
               held solve as a run makes it
    step       one call of the stepper ``run`` makes (``simulator._coupled``):
               all of the above and the compatibility residual

Each phase is timed through its public entry, which sets its own
floating-point error state; ``step`` shows what a run pays for them
together.
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
from thermistor_fem import simulator, temperature

SIZES = (100, 1000, 2000)
PHASES = ("sigma", "potential", "source", "advance", "step")


def loop_us(call, args, steps, sink=None) -> float:
    """Microseconds per call of ``steps`` calls of ``call(*args)``; a
    ``ResidualBlock`` sink is flushed inside the timing."""
    t0 = perf_counter()
    for _ in range(steps):
        call(*args)
    if sink is not None:
        sink.flush()
    return (perf_counter() - t0) / steps * 1e6


def phases(n: int):
    """A function that gives ``{phase: (call, args, sink)}`` for each of
    ``PHASES`` at N = ``n``, with fresh sinks at each call."""
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
    stepper = simulator._coupled(config, mesh, model, [])
    stepper(alpha, [])  # its operator factors at its first step

    def loops():
        advance_sink = temperature.ResidualBlock([])
        step_sink = temperature.ResidualBlock([])
        return {
            "sigma": (tf.eval_sigma, (model, alpha), None),
            "potential": (tf.solve_potential,
                          (sigma, mesh, model, tf.CORRECTED, None, []), None),
            "source": (operator.source, (sigma, mu), None),
            "advance": (operator.advance, (alpha, source, advance_sink),
                        advance_sink),
            "step": (stepper, (alpha, step_sink), step_sink),
        }

    return loops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    print(f"rational_sigma, corrected; us per step, best of {args.repeats} x "
          f"{args.steps} steps")
    print(f"{'N':>6} " + " ".join(f"{name:>9}" for name in PHASES))
    for n in SIZES:
        loops = phases(n)
        best = dict.fromkeys(PHASES, float("inf"))
        for _ in range(args.repeats):  # the phases' loops alternate
            for name, (call, call_args, sink) in loops().items():
                best[name] = min(best[name],
                                 loop_us(call, call_args, args.steps, sink))
        print(f"{n:>6} " + " ".join(f"{best[name]:>9.2f}" for name in PHASES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
