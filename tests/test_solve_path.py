"""The solve path against the one it replaced.

A run's corrected potential comes from its discrete first integral and every
tridiagonal solve substitutes by blocks.  The replaced path assembled and
Thomas-solved the potential and substituted row by row
(``helpers.reference_thomas``).  Both solve the same discrete equations, so
runs on the two paths take the same steps and differ by rounding only; the
bounds below are about twice the largest deviation measured.
"""

import dataclasses

import numpy as np
import pytest

import thermistor_fem as tf
import thermistor_fem.simulator as simulator
from helpers import reference_checked_solve, reference_thomas

FIG1 = tf.SimulationConfig(
    n_elements=100, tau=0.1, beta=0.2,
    model=tf.ModelSpec("paper_example", {"gamma": 0.1}),
    flux_left=1.0, flux_right=1.0, t_max=200.0, steady_tolerance=1e-8)
RATIONAL = dataclasses.replace(
    FIG1, n_elements=1000, steady_tolerance=1e-10, record_every=10,
    model=tf.ModelSpec("rational_sigma",
                       {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0}))


def assembled_potential(sigma, mesh, model, variant, sigma_ghost_left=None,
                        residual_sink=None, held=None):
    system = tf.assemble_potential(sigma, mesh, model, variant,
                                   sigma_ghost_left=sigma_ghost_left)
    mu = tf.checked_solve(system, "potential", residual_sink)
    if variant.stiffness == "corrected":
        return mu
    return np.append(mu, tf.ghost_potential_right(float(mu[-1]), mesh.h,
                                                  model.flux_right))


def run_both(config, monkeypatch):
    new = tf.run(config)
    with monkeypatch.context() as m:
        m.setattr(tf.tridiag, "thomas_solve",
                  lambda system, held=None: reference_thomas(system))
        m.setattr(simulator, "solve_potential", assembled_potential)
        old = tf.run(config)
    return new, old


def deviations(new, old):
    assert len(new.diagnostics.max_change) == len(old.diagnostics.max_change)
    assert new.steady_time == old.steady_time
    assert [s.time for s in new.snapshots] == [s.time for s in old.snapshots]
    return (float(np.max(np.abs(new.final_profile - old.final_profile))),
            max(float(np.max(np.abs(a.potential - b.potential)))
                for a, b in zip(new.snapshots, old.snapshots)))


# measured (final profile, snapshot potential): fig1 1.2e-15 and 6.5e-15,
# rational N = 1000 4.7e-13 and 5.5e-12, literal fig1 3.5e-18 and 8.7e-19
@pytest.mark.parametrize("config, profile_bound, potential_bound", [
    (FIG1, 2.5e-15, 1.5e-14),
    (RATIONAL, 1e-12, 1e-11),
    (dataclasses.replace(FIG1, variant=tf.PAPER_LITERAL), 1e-17, 2e-18),
], ids=["fig1", "rational_n1000", "literal_fig1"])
def test_run_matches_replaced_path(config, profile_bound, potential_bound,
                                   monkeypatch):
    new, old = run_both(config, monkeypatch)
    profile, potential = deviations(new, old)
    assert profile <= profile_bound
    assert potential <= potential_bound


# measured final-profile deviation: 6.9e-17 at N = 100 and 1.8e-16 at
# N = 2000 (max|u| about 0.043); the potential is the nodes on both paths
@pytest.mark.parametrize("config, profile_bound", [
    (FIG1, 1.5e-16),
    (dataclasses.replace(FIG1, n_elements=2000, tau=0.05), 4e-16),
], ids=["fig1", "n2000"])
def test_run_reduced_matches_replaced_path(config, profile_bound,
                                           monkeypatch):
    new = tf.run_reduced(config)
    monkeypatch.setattr(tf.tridiag, "thomas_solve",
                        lambda system, held=None: reference_thomas(system))
    old = tf.run_reduced(config)
    profile, potential = deviations(new, old)
    assert profile <= profile_bound
    assert potential == 0.0


# checked_solve checks the rhs and the solution with one reduction each and
# forms the residual in place; the checks are unchanged and so is every
# number a run records
@pytest.mark.filterwarnings("ignore:boundary currents are incompatible")
@pytest.mark.parametrize("driver, config", [
    (tf.run, FIG1),
    (tf.run, RATIONAL),
    (tf.run, dataclasses.replace(RATIONAL, variant=tf.PAPER_LITERAL)),
    (tf.run_reduced, dataclasses.replace(FIG1, n_elements=2000, tau=0.05)),
], ids=["fig1", "rational_n1000", "literal_rational_n1000", "reduced_n2000"])
def test_fused_checks_record_the_same_run(driver, config, monkeypatch):
    new = driver(config)
    with monkeypatch.context() as m:
        for module in (tf.temperature, tf.potential):
            m.setattr(module, "checked_solve", reference_checked_solve)
        old = driver(config)
    assert new.diagnostics.solver_residuals == old.diagnostics.solver_residuals
    # equal lists: the same steps, each with the same change
    assert new.diagnostics.max_change == old.diagnostics.max_change
    assert new.steady_time == old.steady_time
    np.testing.assert_array_equal(new.final_profile, old.final_profile)
