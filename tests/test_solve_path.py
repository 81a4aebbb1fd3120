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
from helpers import (reference_advance, reference_checked_solve,
                     reference_coupled, reference_thomas, wrap_sigma)

FIG1 = tf.SimulationConfig(
    n_elements=100, tau=0.1, beta=0.2,
    model=tf.ModelSpec("paper_example", {"gamma": 0.1}),
    flux_left=1.0, flux_right=1.0, t_max=200.0, steady_tolerance=1e-8)
RATIONAL = dataclasses.replace(
    FIG1, n_elements=1000, steady_tolerance=1e-10, record_every=10,
    model=tf.ModelSpec("rational_sigma",
                       {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0}))


def assembled_potential(sigma, mesh, model, variant, sigma_ghost_left=None,
                        residual_sink=None):
    system = tf.assemble_potential(sigma, mesh, model, variant,
                                   sigma_ghost_left=sigma_ghost_left)
    mu = tf.checked_solve(system, "potential", residual_sink)
    if variant.stiffness == "corrected":
        return mu
    return np.append(mu, tf.ghost_potential_right(float(mu[-1]), mesh.h,
                                                  model.flux_right))


def counting(fn, calls: dict, name: str):
    """``fn``, counting its calls in ``calls[name]``: a reference swapped in
    must be the one the run calls, or the run compares the new path with
    itself."""
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def replaced_thomas(calls: dict):
    """The row-by-row sweep in place of ``thomas_solve``, its solution at the
    start of a buffer with one spare entry, as ``thomas_solve`` leaves it for
    a literal step's boundary value."""
    def solve(system, factors=None):
        x = reference_thomas(system)
        full = np.empty(x.shape[0] + 1)
        full[:-1] = x
        return full[:-1]

    return counting(solve, calls, "thomas_solve")


def run_both(config, monkeypatch):
    new = tf.run(config)
    calls = {}
    with monkeypatch.context() as m:
        m.setattr(tf.tridiag, "thomas_solve", replaced_thomas(calls))
        m.setattr(tf.temperature, "solve_potential",
                  counting(assembled_potential, calls, "solve_potential"))
        old = tf.run(config)
    steps = len(old.diagnostics.max_change)
    assert calls["thomas_solve"] >= steps
    # the potential is solved again only when sigma changes
    assert calls["solve_potential"] >= 1
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
    calls = {}
    monkeypatch.setattr(tf.tridiag, "thomas_solve", replaced_thomas(calls))
    old = tf.run_reduced(config)
    assert calls["thomas_solve"] == len(old.diagnostics.max_change)
    profile, potential = deviations(new, old)
    assert profile <= profile_bound
    assert potential == 0.0


# checked_solve and the held step check the rhs and the solution with one
# reduction each and form the residual in place, and the held step forms
# its rhs in the factors' rhs block; the checks are unchanged and so is
# every number a run records
@pytest.mark.filterwarnings("ignore:boundary currents are incompatible")
@pytest.mark.parametrize("driver, config", [
    (tf.run, FIG1),
    (tf.run, RATIONAL),
    (tf.run, dataclasses.replace(RATIONAL, variant=tf.PAPER_LITERAL)),
    (tf.run_reduced, dataclasses.replace(FIG1, n_elements=2000, tau=0.05)),
    # past the interface cap of 128 blocks, the held step carries by the
    # scalar passes: m = 4097 (129 blocks) on corrected rows, m = 5000 (157
    # blocks) on literal ones
    (tf.run, dataclasses.replace(FIG1, n_elements=4096)),
    (tf.run_reduced, dataclasses.replace(FIG1, n_elements=5000, tau=0.05)),
], ids=["fig1", "rational_n1000", "literal_rational_n1000", "reduced_n2000",
        "fig1_n4096", "reduced_n5000"])
def test_fused_checks_record_the_same_run(driver, config, monkeypatch):
    new = driver(config)
    calls = {}
    with monkeypatch.context() as m:
        m.setattr(tf.TemperatureOperator, "advance", counting(
            reference_advance, calls, tf.temperature.__name__))
        m.setattr(tf.potential, "checked_solve", counting(
            reference_checked_solve, calls, tf.potential.__name__))
        old = driver(config)
    steps = len(old.diagnostics.max_change)
    assert calls[tf.temperature.__name__] == steps
    # only the literal potential is solved by a tridiagonal solve, and
    # rational sigma changes at every step
    literal = config.variant == tf.PAPER_LITERAL and driver is tf.run
    assert calls[tf.potential.__name__] == (steps if literal else 0)
    assert new.diagnostics.potential_residuals == \
        old.diagnostics.potential_residuals
    assert new.diagnostics.temperature_residuals == \
        old.diagnostics.temperature_residuals
    # equal lists: the same steps, each with the same change
    assert new.diagnostics.max_change == old.diagnostics.max_change
    assert new.steady_time == old.steady_time
    np.testing.assert_array_equal(new.final_profile, old.final_profile)


# A run's stepper holds the potential, the Joule source and the
# compatibility residual of a numeric sigma for the whole run, where
# ``reference_coupled`` builds them again every step.  The runs are the same,
# but for the potential residuals: the held run records its one potential's
# once, and the reference the same value at every step.
CONSTANT = dataclasses.replace(
    FIG1, model=tf.ModelSpec("constant", {"k0": 1.0, "sigma0": 0.3}))
HELD_CASES = {
    "fig1": FIG1,
    "fig1_paper_literal": dataclasses.replace(FIG1, variant=tf.PAPER_LITERAL),
    "fig1_paper_source": dataclasses.replace(
        FIG1, variant=tf.SchemeVariant("corrected", "paper_literal")),
    "fig1_frozen": dataclasses.replace(
        FIG1, freeze_potential_after_first_step=True),
    "fig1_flux_right_2": dataclasses.replace(FIG1, flux_right=2.0),
    "constant_sigma0_0.3": CONSTANT,
    "constant_sigma0_0": dataclasses.replace(
        CONSTANT, model=tf.ModelSpec("constant", {"k0": 1.0, "sigma0": 0.0})),
    "rational_n1000": RATIONAL,
    "rational_n1000_frozen": dataclasses.replace(
        RATIONAL, freeze_potential_after_first_step=True),
    "literal_rational_n100": dataclasses.replace(
        RATIONAL, n_elements=100, variant=tf.PAPER_LITERAL),
}


def run_reference(config, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(simulator, "_coupled", reference_coupled)
        return tf.run(config)


def assert_same_run(new, old, held=False):
    """``held``: ``new`` solved a numeric sigma's potential once, where
    ``old`` solved it again at every step."""
    assert new.steady_time == old.steady_time
    assert len(new.snapshots) == len(old.snapshots)
    for a, b in zip(new.snapshots, old.snapshots):
        assert a.time == b.time
        assert a.temperature.tobytes() == b.temperature.tobytes()
        assert a.potential.tobytes() == b.potential.tobytes()
    assert new.final_profile.tobytes() == old.final_profile.tobytes()
    for name in ("max_change", "compatibility_residuals",
                 "temperature_residuals"):
        assert getattr(new.diagnostics, name) == getattr(old.diagnostics, name)
    ours = new.diagnostics.potential_residuals
    theirs = old.diagnostics.potential_residuals
    if not held:
        assert ours == theirs
        return
    # each of the reference's values is the held run's one value, bit for bit
    assert len(ours) == min(len(theirs), 1)
    assert np.array(theirs).tobytes() == np.array(ours * len(theirs)).tobytes()


@pytest.mark.filterwarnings("ignore:boundary currents are incompatible")
@pytest.mark.parametrize("config", HELD_CASES.values(), ids=HELD_CASES.keys())
def test_held_coupling_records_the_same_run(config, monkeypatch):
    held = not callable(config.build_model().electrical_conductivity)
    assert_same_run(tf.run(config), run_reference(config, monkeypatch), held)


def count_rebuilds(monkeypatch) -> dict:
    """Count the potentials solved and the Joule sources built by a run."""
    calls = {"solve_potential": 0, "joule_source_vector": 0}
    for module, name in ((tf.temperature, "solve_potential"),
                         (tf.temperature, "joule_source_vector")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("config, per_step", [(FIG1, False),
                                              (RATIONAL, True)],
                         ids=["fig1", "rational_n1000"])
def test_step_rebuilds_only_when_sigma_changes(config, per_step, monkeypatch):
    # fig1's sigma is gamma at every step; rational sigma moves with alpha
    calls = count_rebuilds(monkeypatch)
    steps = len(tf.run(config).diagnostics.max_change)
    assert steps > 200
    expected = steps if per_step else 1
    assert calls == {"solve_potential": expected,
                     "joule_source_vector": expected}


@pytest.mark.filterwarnings("ignore:boundary currents are incompatible")
@pytest.mark.parametrize("variant, warm, ghost_only", [
    (tf.CORRECTED, 0.05, False),
    # the literal scheme's fig1 bar warms to 0.0063 only
    (tf.PAPER_LITERAL, 0.003, False),
    # its temperature ghost warms from 0 to 6.4e-5 while nodal sigma stays
    (tf.PAPER_LITERAL, 3e-5, True),
], ids=["corrected", "paper_literal", "paper_literal_ghost"])
def test_step_rebuilds_from_the_step_sigma_changes(variant, warm, ghost_only,
                                                   monkeypatch):
    # sigma stays gamma until the bar (or only the ghost) warms past
    # ``warm``, and is then scaled point by point, so runs of steps with
    # the same sigma alternate with changes; a callable sigma's potential
    # and source are still made at every step
    seen = []

    def scaled(sigma):
        def fn(u):
            warmed = np.asarray(u) > warm
            if ghost_only and np.ndim(u):
                warmed = False
            s = np.where(warmed, 1.5 * sigma(u), sigma(u))
            seen.append(s.tobytes())
            return s
        return fn

    wrap_sigma(monkeypatch, scaled)
    config = dataclasses.replace(FIG1, variant=variant)
    calls = count_rebuilds(monkeypatch)
    new = tf.run(config)
    # per step: sigma's bytes, and the literal ghost's
    per_step = 2 if variant == tf.PAPER_LITERAL else 1
    values = list(zip(*[iter(seen)] * per_step))
    changes = 1 + sum(a != b for a, b in zip(values, values[1:]))
    steps = len(new.diagnostics.max_change)
    assert len(values) == steps
    assert 1 < changes < steps // 2
    assert calls == {"solve_potential": steps, "joule_source_vector": steps}
    monkeypatch.undo()
    wrap_sigma(monkeypatch, scaled)
    assert_same_run(new, run_reference(config, monkeypatch))


# On a system of m <= CELLS // 8 rows a run takes the held temperature
# step's residual a block of CELLS // m steps at a time
# (``temperature.ResidualBlock``).  CELLS = 0 makes every step take it at
# once, the per-step reference; CELLS = 2**20 puts every case here in
# blocks, N = 2000 included, and fig1 and rational N = 1000 in one block.
CELLS = tf.temperature.CELLS
BLOCK_CASES = {
    "fig1": (tf.run, FIG1),
    "fig1_frozen": (tf.run, dataclasses.replace(
        FIG1, freeze_potential_after_first_step=True)),
    "fig1_paper_literal": (tf.run, dataclasses.replace(
        FIG1, variant=tf.PAPER_LITERAL)),
    "literal_rational_n100": (tf.run, HELD_CASES["literal_rational_n100"]),
    "reduced_n100": (tf.run_reduced, FIG1),
    "reduced_n2000": (tf.run_reduced, dataclasses.replace(
        FIG1, n_elements=2000, tau=0.05)),
    "rational_n1000": (tf.run, RATIONAL),
}


def count_holds(monkeypatch) -> list:
    holds = []
    hold = tf.temperature.ResidualBlock.hold

    def counted(self, *args):
        holds.append(len(args[1]))
        return hold(self, *args)

    monkeypatch.setattr(tf.temperature.ResidualBlock, "hold", counted)
    return holds


@pytest.mark.filterwarnings("ignore:boundary currents are incompatible")
@pytest.mark.parametrize("cells", [CELLS, 2**20],
                         ids=["cells_default", "cells_2^20"])
@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_residuals_record_the_same_run(case, cells, monkeypatch):
    driver, config = BLOCK_CASES[case]
    holds = count_holds(monkeypatch)
    monkeypatch.setattr(tf.temperature, "CELLS", 0)
    old = driver(config)
    assert holds == []
    monkeypatch.setattr(tf.temperature, "CELLS", cells)
    new = driver(config)
    steps = len(new.diagnostics.max_change)
    # only N = 2000 is past the size selection at the default CELLS
    blocked = cells > CELLS or config.n_elements <= 1000
    assert len(holds) == (steps if blocked else 0)
    assert None not in new.diagnostics.temperature_residuals
    assert len(new.diagnostics.temperature_residuals) == steps
    assert_same_run(new, old)


NTC = dataclasses.replace(FIG1, model=tf.ModelSpec(
    "rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": -0.5}))


def sigma_jumps_after(calls: int, value: float):
    """Wrap sigma to ``value`` at every node from its ``calls + 1``-th call
    on; with fluxes of 1e5 the next step's solution overflows, with 1e6
    its Joule source."""
    seen = [0]

    def wrap(sigma):
        def fn(u):
            seen[0] += 1
            return sigma(u) if seen[0] <= calls else np.full(np.shape(u),
                                                             value)
        return fn

    return wrap


def failure(driver, config):
    with pytest.raises(tf.errors.StepFailure) as exc:
        driver(config)
    return exc.value


# held: the steps held on the block path, the failing one included when its
# solve fails
@pytest.mark.parametrize("config, wrap, message, held", [
    (dataclasses.replace(NTC, flux_left=1.0, flux_right=1.0), None,
     "is at or past the pole", 10),
    (dataclasses.replace(FIG1, flux_left=1e5, flux_right=1e5),
     lambda: sigma_jumps_after(10, 1e300), "non-finite solution", 11),
    (dataclasses.replace(FIG1, flux_left=1e6, flux_right=1e6),
     lambda: sigma_jumps_after(10, 1e300), "non-finite entries in rhs", 11),
], ids=["ntc_pole", "solution_overflow", "rhs_overflow"])
def test_failure_mid_block_leaves_as_the_per_step_one(config, wrap, message,
                                                      held, monkeypatch):
    # each run fails at step 10, inside the first block of 81 steps
    holds = count_holds(monkeypatch)
    runs = []
    for cells in (0, CELLS):
        with monkeypatch.context() as m:
            m.setattr(tf.temperature, "CELLS", cells)
            if wrap:
                wrap_sigma(m, wrap())
            runs.append(failure(tf.run, config))
    old, new = runs
    assert len(holds) == held
    assert message in str(old)
    assert type(new) is type(old)
    assert str(new) == str(old)
    assert new.step == old.step == 10
    assert new.diagnostics == old.diagnostics
    assert None not in new.diagnostics.temperature_residuals
    # the failing step records no temperature residual
    assert len(new.diagnostics.temperature_residuals) == new.step
