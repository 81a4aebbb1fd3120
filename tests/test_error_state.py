"""numpy's floating-point error state in a run: one state per run or step,
the caller's state for a sigma the package did not make, and each thread's
state its own."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

import thermistor_fem as tf
from helpers import wrap_sigma

# the literal rows' boundary currents disagree, which a run warns of
pytestmark = pytest.mark.filterwarnings(
    "ignore:boundary currents are incompatible:UserWarning")

RATIONAL = tf.SimulationConfig(
    n_elements=20, tau=0.1, beta=0.2,
    model=tf.ModelSpec("rational_sigma",
                       {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0}),
    flux_left=1.0, flux_right=1.0, t_max=1.0, steady_tolerance=1e-14)
FIG1 = dataclasses.replace(
    RATIONAL, n_elements=100, model=tf.ModelSpec("paper_example",
                                                 {"gamma": 0.1}))


def count_entries(monkeypatch) -> list:
    """Count every error state the package enters, in ``counted[0]``."""
    counted = [0]
    entry = tf.errors._entry

    def counting(state):
        counted[0] += 1
        return entry(state)

    monkeypatch.setattr(tf.errors, "_entry", counting)
    return counted


def one_step(config):
    return tf.step(tf.initial_temperature(config.build_mesh()), config)


@pytest.mark.parametrize("call, config", [
    (tf.run, RATIONAL),
    (tf.run, dataclasses.replace(RATIONAL, variant=tf.PAPER_LITERAL)),
    (tf.run, FIG1),
    (tf.run_reduced, FIG1),
    (one_step, RATIONAL),
], ids=["run_rational", "run_rational_literal", "run_fig1", "run_reduced",
        "step_rational"])
def test_a_run_enters_one_error_state_whatever_its_steps(call, config,
                                                         monkeypatch):
    counted = count_entries(monkeypatch)
    entries = []
    for t_max in (1.0, 10.0):  # 10 and 100 steps
        counted[0] = 0
        result = call(dataclasses.replace(config, t_max=t_max))
        if call is not one_step:
            assert len(result.diagnostics.max_change) == round(t_max / 0.1)
        entries.append(counted[0])
    # the run's own state, entered once; a step adds none
    assert entries == [1, 1]
    # the count sees a direct call, which enters its own state
    operator = tf.TemperatureOperator(FIG1.build_mesh(), FIG1.build_model(),
                                      0.1, 0.2, tf.CORRECTED)
    counted[0] = 0
    operator.source(np.ones(101), np.linspace(0.0, 1.0, 101))
    assert counted[0] == 1


@pytest.mark.parametrize("variant", [tf.CORRECTED, tf.PAPER_LITERAL],
                         ids=["corrected", "paper_literal"])
def test_a_users_sigma_runs_in_the_callers_error_state(variant, monkeypatch):
    # the run holds its own state around the user's callable, which sees
    # only the state the run was called in, at every step and at the
    # literal temperature ghost
    seen = []

    def recording(sigma):
        def user_sigma(u):
            seen.append(np.geterr())
            return sigma(u)
        return user_sigma

    wrap_sigma(monkeypatch, recording)
    config = dataclasses.replace(RATIONAL, variant=variant)
    with np.errstate(over="raise", divide="warn"):
        expected = np.geterr()
        result = tf.run(config)
        one_step(config)
    steps = len(result.diagnostics.max_change)
    assert steps == 10 and len(seen) >= steps + 1
    assert all(state == expected for state in seen)


def test_a_run_in_one_thread_leaves_another_threads_error_state_alone():
    # a run's state is its thread's: a direct advance in another thread,
    # under over="raise", still ignores the overflow of its 1e308 source
    # in its own state and refuses the step by name; two threads of each
    alpha, source = np.zeros(101), np.full(101, 1e308)
    config = dataclasses.replace(RATIONAL, t_max=0.5)
    stop = time.monotonic() + 1.0
    runs, refusals, failures = [], [], []

    def running():
        try:
            while time.monotonic() < stop:
                runs.append(len(tf.run(config).diagnostics.max_change))
        except Exception as exc:
            failures.append(exc)

    def advancing():
        operator = tf.TemperatureOperator(
            FIG1.build_mesh(), FIG1.build_model(), 0.1, 0.2, tf.CORRECTED)
        try:
            while time.monotonic() < stop:
                with np.errstate(over="raise"):
                    try:
                        operator.advance(alpha, source, [])
                    except tf.NumericalFailureError as exc:
                        refusals.append(str(exc))
                    else:
                        refusals.append(None)
        except Exception as exc:  # a FloatingPointError among them
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work)
                   for work in (running, advancing) * 2]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert runs and set(runs) == {5}
    assert refusals and set(refusals) == {
        "temperature solve failed: non-finite solution"}
