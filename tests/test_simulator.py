import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

import thermistor_fem as tf
import thermistor_fem.simulator as simulator
from helpers import count_factorisations, rational_steady_oracle, wrap_sigma
from thermistor_fem.cli import run_cli

BETA, GAMMA = 0.2, 0.1


def small_config(**overrides):
    base = dict(
        n_elements=20, tau=0.1, beta=BETA,
        model=tf.ModelSpec("paper_example", {"gamma": GAMMA}),
        flux_left=1.0, flux_right=1.0, t_max=300.0,
        variant=tf.CORRECTED, steady_tolerance=1e-8, record_every=1)
    base.update(overrides)
    return tf.SimulationConfig(**base)


def test_config_validation():
    with pytest.raises(tf.ConfigurationError):
        small_config(tau=0.0)
    with pytest.raises(tf.ConfigurationError):
        small_config(t_max=0.05)
    with pytest.raises(tf.ConfigurationError):
        small_config(record_every=0)
    with pytest.raises(tf.ConfigurationError):
        small_config(steady_tolerance=0.0)
    for name in ("tau", "beta", "t_max", "steady_tolerance", "flux_left",
                 "flux_right"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(tf.ConfigurationError, match=name):
                small_config(**{name: value})
    # counts must be integers; a float or bool count is refused up front
    # instead of failing inside numpy later
    for name in ("n_elements", "record_every"):
        for value in (100.0, 2.5, True, "20", None):
            with pytest.raises(tf.ConfigurationError,
                               match=f"{name} must be an integer"):
                small_config(**{name: value})
    for value in (2, 0, -4):
        with pytest.raises(tf.ConfigurationError, match="n_elements must be >= 3"):
            small_config(n_elements=value)
    assert small_config(n_elements=np.int64(3)).n_elements == 3
    # refused before any allocation; no mesh is built at the bound here
    with pytest.raises(tf.ConfigurationError,
                       match="n_elements must be <= 1000000"):
        small_config(n_elements=10**6 + 1)
    assert small_config(n_elements=10**6).n_elements == 10**6
    # a negative Robin coefficient feeds heat in; beta = 0 is adiabatic
    with pytest.raises(tf.ConfigurationError, match="beta must be >= 0"):
        small_config(beta=-5.0)
    assert small_config(beta=0.0).beta == 0.0


@pytest.mark.parametrize("model", [
    tf.ModelSpec("constant", {"k0": 1.0, "sigma0": 0.0}),
    tf.ModelSpec("paper_example", {"gamma": 0.0}),
    tf.ModelSpec("rational_sigma", {"k0": 1.0, "sigma0": 0.0, "lambda": 1.0}),
], ids=["constant", "paper_example", "rational_sigma"])
@pytest.mark.parametrize("variant", [tf.CORRECTED, tf.PAPER_LITERAL],
                         ids=["corrected", "paper_literal"])
def test_step_zero_conductivity_gives_the_zero_potential(model, variant):
    # no conduction: step, like run, takes phi = 0 and solves no potential
    config = small_config(model=model, variant=variant)
    state = tf.initial_temperature(config.build_mesh())
    sink = []
    new, mu = tf.step(state, config, residual_sink=sink)
    np.testing.assert_array_equal(mu, np.zeros(config.n_elements + 1))
    np.testing.assert_array_equal(new.alpha, np.zeros(config.n_elements + 1))
    assert len(sink) == 1  # the temperature solve's residual alone
    result = tf.run(config)
    assert all(not snap.potential.any() for snap in result.snapshots[1:])


@pytest.mark.parametrize("model", [
    tf.ModelSpec("paper_example", {"gamma": GAMMA}),
    tf.ModelSpec("rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0}),
], ids=["paper_example", "rational_sigma"])
def test_bad_starting_state_is_a_configuration_error(model):
    config = small_config(model=model)
    n = config.n_elements + 1
    alpha = np.zeros(n)
    alpha[3] = np.nan
    for bad, message in ((np.zeros(n - 1), "initial state does not match"),
                         (alpha, "initial state is not finite at node 3")):
        state = tf.TemperatureState(alpha=bad, time=0.0)
        for call in (lambda: tf.run(config, state),
                     lambda: tf.step(state, config)):
            with pytest.raises(tf.ConfigurationError, match=message):
                call()


@pytest.mark.parametrize("dtype, time, message", [
    (complex, 0.0, "initial state must hold real numbers, got dtype complex128"),
    (object, 0.0, "initial state must hold real numbers, got dtype object"),
    (float, np.nan, "initial time must be finite, got nan"),
    (float, np.inf, "initial time must be finite, got inf"),
    (float, -np.inf, "initial time must be finite, got -inf"),
], ids=["complex", "object", "nan_time", "inf_time", "minus_inf_time"])
def test_unreal_state_or_time_is_a_configuration_error(dtype, time, message):
    # refused before the step writes mass(alpha) into its float64 rhs
    # block: complex and object values, and a time no step can follow
    config = small_config()
    state = tf.TemperatureState(np.zeros(config.n_elements + 1, dtype), time)
    for call in (lambda: tf.run(config, state),
                 lambda: tf.step(state, config)):
        with pytest.raises(tf.ConfigurationError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize("dtype", [int, bool, np.float32])
def test_real_starting_states_of_any_real_dtype_run(dtype):
    # a zero state held as int, bool or float32 runs as the float64 one
    config = small_config(
        model=tf.ModelSpec("rational_sigma",
                           {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0}))
    zero = tf.initial_temperature(config.build_mesh())
    state = tf.TemperatureState(zero.alpha.astype(dtype), 0)
    ref = tf.run(config)
    again = tf.run(config, state)
    assert again.final_profile.tobytes() == ref.final_profile.tobytes()
    assert again.steady_time == ref.steady_time
    new, mu = tf.step(state, config)
    ref_new, ref_mu = tf.step(zero, config)
    assert new.alpha.tobytes() == ref_new.alpha.tobytes()
    assert mu.tobytes() == ref_mu.tobytes()
    assert new.time == ref_new.time


@pytest.mark.parametrize("driver, model", [
    (tf.run, tf.ModelSpec("paper_example", {"gamma": GAMMA})),
    (tf.run, tf.ModelSpec("constant", {"k0": 1.0, "sigma0": 0.0})),
    (tf.run_reduced, tf.ModelSpec("paper_example", {"gamma": GAMMA})),
], ids=["coupled", "sigma_zero", "reduced"])
def test_run_failure_carries_step_and_diagnostics(driver, model):
    # an infinite Robin coefficient makes the first step's system non-finite;
    # the config rejects it, so it is set past validation
    config = small_config(model=model)
    object.__setattr__(config, "beta", np.inf)
    with pytest.raises(tf.NumericalFailureError) as exc:
        driver(config)
    assert exc.value.step == 0
    assert isinstance(exc.value.diagnostics, tf.Diagnostics)


def test_step_benchmark_first_step(fig1_config):
    state = tf.initial_temperature(fig1_config.build_mesh())
    new_state, pot = tf.step(state, fig1_config)
    mesh = fig1_config.build_mesh()
    assert np.max(np.abs(pot - mesh.nodes)) <= 1e-12  # gauge-pinned linear
    assert np.all(new_state.alpha - state.alpha > 0.0)
    assert new_state.time == pytest.approx(0.1)


def test_two_frozen_steps_replay_against_dense_oracle():
    config = small_config(freeze_potential_after_first_step=True, t_max=0.2)
    result = tf.run(config)
    mesh = config.build_mesh()
    model = config.build_model()
    state = tf.initial_temperature(mesh)
    pot = tf.solve_potential(tf.eval_sigma(model, state.alpha), mesh, model,
                             config.variant)
    x1 = tf.dense_solve_oracle(tf.assemble_temperature(
        state, pot, mesh, model, config.tau, config.beta, config.variant))
    state1 = tf.TemperatureState(alpha=x1, time=0.1)
    x2 = tf.dense_solve_oracle(tf.assemble_temperature(
        state1, pot, mesh, model, config.tau, config.beta, config.variant))
    np.testing.assert_allclose(result.snapshots[1].temperature, x1, atol=1e-10)
    np.testing.assert_allclose(result.snapshots[2].temperature, x2, atol=1e-10)


def test_run_zero_conductivity_model_is_steady_at_first_check():
    config = small_config(model=tf.ModelSpec("constant", {"k0": 1.0, "sigma0": 0.0}))
    result = tf.run(config)
    assert result.steady_reached
    assert result.steady_time == pytest.approx(config.tau)
    np.testing.assert_array_equal(result.final_profile, np.zeros(21))


# run and run_reduced share one time loop; both drivers are checked by name
DRIVERS = (tf.run, tf.run_reduced)


def test_run_respects_t_max_cap():
    config = small_config(t_max=0.1, steady_tolerance=1e-14)
    for driver in DRIVERS:
        result = driver(config)
        assert not result.steady_reached, driver.__name__
        assert result.steady_time is None, driver.__name__
        assert len(result.diagnostics.max_change) == 1, driver.__name__


def test_snapshot_times_and_final_block():
    config = small_config(record_every=7, t_max=50.0)
    for driver in DRIVERS:
        result = driver(config)
        times = [s.time for s in result.snapshots]
        assert times[0] == 0.0, driver.__name__
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:])), driver.__name__
        stride = config.tau * config.record_every
        for t in times[1:-1]:
            assert (t / stride) == pytest.approx(round(t / stride)), driver.__name__
        assert times[-1] == pytest.approx(result.steady_time), driver.__name__
        np.testing.assert_array_equal(result.snapshots[-1].temperature,
                                      result.final_profile, driver.__name__)


def test_snapshot_times_are_exact_grid_points():
    # each time is t0 + n*tau computed afresh, never a running sum of tau,
    # which drifts from it in the last bits within a few steps
    config = small_config(record_every=7, t_max=50.0)
    start = tf.TemperatureState(np.zeros(config.n_elements + 1), 0.3)
    for driver, kwargs, t0 in ((tf.run, {}, 0.0), (tf.run_reduced, {}, 0.0),
                               (tf.run, {"initial_state": start}, 0.3)):
        result = driver(config, **kwargs)
        steps = len(result.diagnostics.max_change)
        recorded = list(range(0, steps + 1, config.record_every))
        if recorded[-1] != steps:
            recorded.append(steps)
        assert [s.time for s in result.snapshots] \
            == [t0 + n * config.tau for n in recorded], driver.__name__


def test_record_every_does_not_change_final_state():
    r1 = tf.run(small_config(record_every=1))
    r10 = tf.run(small_config(record_every=10))
    np.testing.assert_array_equal(r1.final_profile, r10.final_profile)


def test_initial_snapshot_potential_is_identity_profile():
    config = small_config(t_max=1.0, steady_tolerance=1e-14)
    result = tf.run(config)
    np.testing.assert_array_equal(result.snapshots[0].potential,
                                  config.build_mesh().nodes)


def test_snapshots_share_one_read_only_copy_of_a_held_potential(fig1_config):
    # constant sigma holds the potential from the first step on
    result = tf.run(fig1_config)
    first = result.snapshots[1].potential
    assert len(result.snapshots) > 100
    assert all(s.potential is first for s in result.snapshots[1:])
    assert result.snapshots[0].potential is not first
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 1.0
    # a potential that changes every step gets a copy of its own each time
    result = tf.run(small_config(model=tf.ModelSpec(
        "rational_sigma", {"k0": 1.0, "sigma0": 0.5, "lambda": 2.0}), t_max=0.5))
    ids = {id(s.potential) for s in result.snapshots}
    assert len(ids) == len(result.snapshots)


def test_decoupling_order_is_observable():
    # stored potentials must come from the stored state's predecessor
    config = small_config(
        model=tf.ModelSpec("rational_sigma",
                           {"k0": 1.0, "sigma0": 0.5, "lambda": 2.0}),
        t_max=0.5, steady_tolerance=1e-14)
    result = tf.run(config)
    mesh = config.build_mesh()
    model = config.build_model()
    for prev, snap in zip(result.snapshots, result.snapshots[1:]):
        expected = tf.solve_potential(tf.eval_sigma(model, prev.temperature),
                                      mesh, model, config.variant)
        np.testing.assert_array_equal(snap.potential, expected)


def test_steady_state_idempotence(fig1_config):
    result = tf.run(fig1_config)
    assert result.steady_reached
    restart = tf.TemperatureState(alpha=result.final_profile.copy(),
                                  time=0.0)
    again = tf.run(fig1_config, initial_state=restart)
    assert again.steady_reached
    assert again.steady_time == pytest.approx(fig1_config.tau)


def test_corrected_rational_run_is_mirror_symmetric():
    # equal boundary fluxes make the corrected problem symmetric about
    # x = 1/2; measured max|u_j - u_(N-j)| over all 308 snapshots: 2.7e-13
    config = small_config(
        n_elements=1000, steady_tolerance=1e-10,
        model=tf.ModelSpec("rational_sigma",
                           {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0}))
    result = tf.run(config)
    assert result.steady_reached and len(result.snapshots) > 300
    defect = max(float(np.max(np.abs(s.temperature - s.temperature[::-1])))
                 for s in result.snapshots)
    assert defect <= 1e-12


@pytest.mark.parametrize("model", [
    tf.ModelSpec("paper_example", {"gamma": GAMMA}),
    tf.ModelSpec("rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0}),
], ids=["paper_example", "rational_sigma"])
def test_corrected_step_balances_energy(model):
    # summing the rows of the corrected temperature system: stiffness rows
    # sum to zero, the mass matrix to the trapezoid weights, so
    #   1^T M (a^(n+1) - a^n) = sum(source) - tau beta (a_0^(n+1) + a_N^(n+1))
    # measured relative defect over these 100 steps: 2.1e-12
    config = small_config(n_elements=100, model=model)
    mesh = config.build_mesh()
    built = config.build_model()
    weights = np.full(mesh.n_nodes, mesh.h)
    weights[[0, -1]] = 0.5 * mesh.h
    state = tf.initial_temperature(mesh)
    worst = 0.0
    for _ in range(100):
        new, mu = tf.step(state, config, mesh, built)
        source = tf.joule_source_vector(tf.eval_sigma(built, state.alpha), mu,
                                        mesh, built, config.tau,
                                        config.variant)
        robin = config.tau * config.beta * (new.alpha[0] + new.alpha[-1])
        defect = weights @ (new.alpha - state.alpha) - (source.sum() - robin)
        worst = max(worst, abs(defect) / (np.abs(source).sum() + abs(robin)))
        state = new
    assert worst <= 5e-12


def test_max_change_contracts_after_first_steps(fig1_config):
    result = tf.run(fig1_config)
    mc = np.asarray(result.diagnostics.max_change)
    assert (np.diff(mc[10:]) <= 0).all()


def test_trajectory_stays_below_analytic_bound(fig1_config):
    result = tf.run(fig1_config)
    bound = GAMMA / (2 * BETA) + GAMMA / 8 + 1e-6
    peak = max(float(s.temperature.max()) for s in result.snapshots)
    assert peak <= bound


def test_solver_residuals_collected(fig1_config):
    result = tf.run(dataclasses.replace(fig1_config, t_max=1.0,
                                        steady_tolerance=1e-14))
    # one potential and one temperature residual per step
    assert len(result.diagnostics.solver_residuals) == 2 * len(result.diagnostics.max_change)
    assert max(result.diagnostics.solver_residuals) <= 1e-10


@pytest.mark.filterwarnings("ignore:boundary currents are incompatible")
@pytest.mark.parametrize("driver, overrides, factorisations", [
    (tf.run, {}, 1),
    (tf.run, {"model": tf.ModelSpec("rational_sigma", {
        "k0": 1.0, "sigma0": 1.0, "lambda": 1.0})}, 1),
    (tf.run_reduced, {}, 1),
    # constant sigma: the literal potential matrix is fixed as well
    (tf.run, {"variant": tf.SchemeVariant("paper_literal", "central")}, 2),
    # sigma moves every step, and the literal potential matrix with it, so
    # each step factors that matrix for its one solve (None: 1 + steps)
    (tf.run, {"variant": tf.PAPER_LITERAL, "model": tf.ModelSpec(
        "rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0})}, None),
], ids=["fig1", "rational_sigma", "reduced", "fig1_paper",
        "rational_sigma_paper"])
def test_run_factors_each_fixed_matrix_once(fig1_config, driver, overrides,
                                            factorisations, monkeypatch):
    # k is constant, so the temperature matrix never changes within a run
    config = dataclasses.replace(fig1_config, **overrides)
    calls = count_factorisations(monkeypatch)
    result = driver(config)
    steps = len(result.diagnostics.max_change)
    assert steps > 10
    assert len(calls) == (1 + steps if factorisations is None
                          else factorisations)


RATIONAL = tf.ModelSpec("rational_sigma",
                        {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0})


@pytest.mark.parametrize("overrides, ghost", [
    ({}, 0),
    ({"freeze_potential_after_first_step": True}, 0),
    ({"model": RATIONAL}, 0),
    ({"model": RATIONAL, "freeze_potential_after_first_step": True}, 0),
    # the literal potential also reads sigma at the temperature ghost
    ({"variant": tf.PAPER_LITERAL}, 1),
], ids=["fig1", "fig1_frozen", "rational_sigma", "rational_sigma_frozen",
        "fig1_paper"])
def test_sigma_is_evaluated_once_per_step(fig1_config, overrides, ghost,
                                          monkeypatch):
    # the potential, the Joule source and the compatibility residual share
    # one evaluation of sigma at alpha^n; fig1's gamma is injected as the
    # constant callable it stands for, which the run cannot tell is constant
    shapes = []

    def counted(sigma):
        def fn(u):
            shapes.append(np.shape(u))
            return sigma(u)
        return fn

    wrap_sigma(monkeypatch, counted)
    config = dataclasses.replace(fig1_config, **overrides)
    result = tf.run(config)
    steps = len(result.diagnostics.max_change)
    assert steps > 10
    assert shapes.count((config.n_elements + 1,)) == steps
    assert shapes.count(()) == ghost * steps
    assert len(shapes) == (1 + ghost) * steps
    # a residual per solve: a frozen run solves one potential in all
    potentials = 1 if config.freeze_potential_after_first_step else steps
    assert len(result.diagnostics.solver_residuals) == steps + potentials
    assert len(result.diagnostics.compatibility_residuals) == steps


@pytest.mark.filterwarnings("ignore:boundary currents are incompatible")
@pytest.mark.parametrize("overrides, per_step", [
    ({}, 0),
    ({"variant": tf.PAPER_LITERAL}, 0),
    ({"freeze_potential_after_first_step": True}, 0),
    ({"model": tf.ModelSpec("constant", {"k0": 2.0, "sigma0": 0.3})}, 0),
    ({"model": RATIONAL}, 1),
    ({"model": RATIONAL, "freeze_potential_after_first_step": True}, 1),
    # the literal potential also reads sigma at the temperature ghost
    ({"model": RATIONAL, "variant": tf.PAPER_LITERAL}, 2),
], ids=["fig1", "fig1_paper_literal", "fig1_frozen", "constant",
        "rational_sigma", "rational_sigma_frozen",
        "rational_sigma_paper_literal"])
def test_numeric_sigma_is_evaluated_once_per_run(fig1_config, overrides,
                                                 per_step, monkeypatch):
    # a numeric sigma is the same at every temperature: the stepper
    # evaluates it when it is built, ghost included, and holds the rest
    calls = []
    evaluate = simulator.eval_sigma

    def counted(model, u):
        calls.append(np.shape(u))
        return evaluate(model, u)

    monkeypatch.setattr(simulator, "eval_sigma", counted)
    config = dataclasses.replace(fig1_config, **overrides)
    result = tf.run(config)
    steps = len(result.diagnostics.max_change)
    assert steps > 10
    assert len(calls) == (per_step * steps if per_step else 1)
    assert calls.count((config.n_elements + 1,)) == (steps if per_step else 1)
    # the held potential's residual is recorded on every step, as if solved
    # again, and a frozen one on its first step only
    frozen = config.freeze_potential_after_first_step
    assert len(result.diagnostics.solver_residuals) == \
        steps + (1 if frozen else steps)


def test_model_failure_in_the_loop_carries_step_and_diagnostics(
        fig1_config, fig1_cfg_path, monkeypatch, capsys):
    # sigma turns NaN once the bar warms past 0.05, some steps into the run
    wrap_sigma(monkeypatch, lambda sigma: lambda u: np.where(
        np.asarray(u) > 0.05, np.nan, sigma(u)))
    with pytest.raises(tf.ModelError) as exc:
        tf.run(fig1_config)
    assert isinstance(exc.value.diagnostics, tf.Diagnostics)
    assert exc.value.step == len(exc.value.diagnostics.max_change) > 0
    assert run_cli(["run", "--config", str(fig1_cfg_path)]) == 2
    assert "numerical failure: electrical conductivity" in capsys.readouterr().err


def test_ntc_runaway_fails_at_the_pole_instead_of_settling(fig1_config):
    # sigma = 1 / (1 - u/2)^2 rises with u up to its pole at u = 2: below
    # fluxes of about 0.35 the bar settles under it, above them there is no
    # admissible steady state, and a step jumps past the pole
    ntc = dataclasses.replace(fig1_config, model=tf.ModelSpec(
        "rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": -0.5}))
    result = tf.run(dataclasses.replace(ntc, flux_left=0.3, flux_right=0.3))
    assert result.steady_reached
    assert result.final_profile.max() < 0.33
    for flux in (0.5, 1.0):
        with pytest.raises(tf.ModelError, match="past the pole u = 2.0") as exc:
            tf.run(dataclasses.replace(ntc, flux_left=flux, flux_right=flux))
        assert exc.value.step == len(exc.value.diagnostics.max_change) > 0


@pytest.mark.filterwarnings("ignore:boundary currents are incompatible")
@pytest.mark.parametrize("variant", [tf.CORRECTED, tf.PAPER_LITERAL],
                         ids=["corrected", "paper_literal"])
def test_run_steps_replay_against_fresh_assembly(variant):
    # each step solved against the run's held factorisation gives the bits
    # of assembling the step afresh and factoring it for one solve
    config = small_config(
        variant=variant, t_max=0.5, steady_tolerance=1e-14,
        model=tf.ModelSpec("rational_sigma",
                           {"k0": 1.0, "sigma0": 0.5, "lambda": 2.0}))
    result = tf.run(config)
    mesh = config.build_mesh()
    model = config.build_model()
    assert len(result.snapshots) == 6
    for prev, snap in zip(result.snapshots, result.snapshots[1:]):
        state = tf.TemperatureState(alpha=prev.temperature, time=prev.time)
        x = tf.thomas_solve(tf.assemble_temperature(
            state, snap.potential, mesh, model, config.tau, config.beta,
            variant))
        if variant.stiffness == "paper_literal":
            x = np.append(x, tf.ghost_temp_right(float(x[-1]), model.k,
                                                 mesh.h, config.beta))
        np.testing.assert_array_equal(snap.temperature, x)


# sha256 of every number a run records, taken from the solve path these
# pins were made with; the series CSV (tests/test_cli.py::GOLDEN) keeps 13
# digits only, so a rounding-level slip in a solve can pass it but not these
FIG1 = tf.SimulationConfig(
    n_elements=100, tau=0.1, beta=BETA,
    model=tf.ModelSpec("paper_example", {"gamma": GAMMA}),
    flux_left=1.0, flux_right=1.0, t_max=200.0, steady_tolerance=1e-8)
RATIONAL_N1000 = dataclasses.replace(
    FIG1, n_elements=1000, steady_tolerance=1e-10, record_every=10,
    model=RATIONAL)
DIGEST_RUNS = {
    "fig1": (tf.run, FIG1),
    "fig1_paper_literal": (tf.run, dataclasses.replace(
        FIG1, variant=tf.PAPER_LITERAL)),
    "fig1_frozen": (tf.run, dataclasses.replace(
        FIG1, freeze_potential_after_first_step=True)),
    "rational_n1000": (tf.run, RATIONAL_N1000),
    "literal_rational_n100": (tf.run, dataclasses.replace(
        RATIONAL_N1000, n_elements=100, variant=tf.PAPER_LITERAL)),
    "reduced_n2000": (tf.run_reduced, dataclasses.replace(
        FIG1, n_elements=2000, tau=0.05)),
}
DIGESTS = {
    "fig1": {
        "snapshots":
            "cb15d7c2234639db348e845b2da48a9c410da01e55887edf5bfd50eb0f8ad8cf",
        "final_profile":
            "307a09199735b1a671532a585e0b019db7597e0f41a2c462cfd7172ae992c2bd",
        "steady_time":
            "b50f6d8a7576ee31f650bd0b6b9e21854da7d31f158bb5f53fc370f4bb0dabd5",
        "max_change":
            "e121202a452b4f80a19c6899f5846066b989eb64cdce63c00c3035e01e8ec015",
        "compatibility_residuals":
            "0f0e9d91e155e6f2ccc00419cbcdd7ba79bfbc32b975aac0ed734dc265b08b65",
        "solver_residuals":
            "56f1a294368e8285fa37b47e84233157e2cd70b029b8ad31f2319c334dc2448e",
    },
    "fig1_paper_literal": {
        "snapshots":
            "afdffa742eeeb81d322b0ec8e8c8f8c77a66b829b476df01c718834f16ebaa69",
        "final_profile":
            "78131d5d36fdf6542946fe41661ca2282c5dc59bf0496a71286a9da36f50204e",
        "steady_time":
            "fc15d5cc303f10cf1a3f22129dcc1d1ddace37dd173f01d864caf6bfbc9ca117",
        "max_change":
            "f364efa9e847ff52389b98188be4e4dca0680620704620717227b5aa956dce17",
        "compatibility_residuals":
            "7c4c2b940c41426e36a4cf6c83afababacfb8bb1a1dc39162a95bb812e1d109f",
        "solver_residuals":
            "06f8a7b15c5f3cc3368dd27a98ecca88bbe956fc9093172964506ad7b0e054de",
    },
    "fig1_frozen": {
        "snapshots":
            "cb15d7c2234639db348e845b2da48a9c410da01e55887edf5bfd50eb0f8ad8cf",
        "final_profile":
            "307a09199735b1a671532a585e0b019db7597e0f41a2c462cfd7172ae992c2bd",
        "steady_time":
            "b50f6d8a7576ee31f650bd0b6b9e21854da7d31f158bb5f53fc370f4bb0dabd5",
        "max_change":
            "e121202a452b4f80a19c6899f5846066b989eb64cdce63c00c3035e01e8ec015",
        "compatibility_residuals":
            "0f0e9d91e155e6f2ccc00419cbcdd7ba79bfbc32b975aac0ed734dc265b08b65",
        "solver_residuals":
            "ee042d7f59f6ef2e9cccde4d50b38c30520b41d69f0e0fa5afa23368c2c7ade8",
    },
    "rational_n1000": {
        "snapshots":
            "f0a05844eecb6931fcddb569f601c586d163aa054c8f58898d53f1f2c4535321",
        "final_profile":
            "0e46931aed503111bdc86152bab1306789943fc42c1879ef4fbe1229f46b089d",
        "steady_time":
            "e071f439980615c39c72b44e57de3e128e2da492989fc6e21a1a211324ca21b5",
        "max_change":
            "4b27d1063af37a9842757b067ad300a34091f941b38a8451a480138d521efd6e",
        "compatibility_residuals":
            "91ea146351de77fd1f66b45961c96439966232320ba8bf86bc0b372529ba7005",
        "solver_residuals":
            "01ae082129fec82f2f719807df3e78f3ea8dec90cc43cc806f33a8b5d3e21db2",
    },
    "literal_rational_n100": {
        "snapshots":
            "b3bcbd6f355a72abf7a2a942e08391f07fd7216733eac37632d38d29e2c4b730",
        "final_profile":
            "95c4fcb8377abdfb3cd213bc25f910f47bc48a6542ef34caaa8b7f5194d08309",
        "steady_time":
            "f1a060eaf6a52f8e37e97da3173356a6c2216914dc878ce4e5ae13c3ca838765",
        "max_change":
            "a8a290769f26755127fdc721da6055f7519561184c29060a01132dec1038bcd6",
        "compatibility_residuals":
            "714f475ef4b15d00bc12b048e96fc762c6a6ded3be945d4e577ac10a6260a748",
        "solver_residuals":
            "b6ef6e23b7e0c9d383513f497d4c1344facd59349dababf50b49b8b7df61b08e",
    },
    "reduced_n2000": {
        "snapshots":
            "72e4f593a7b214e8524388ad5c8ad1b70783cbfb2f93a824a875d69cd9cfbe01",
        "final_profile":
            "156a5d0e2763aa7da52ebfb9807f69b2843f9606187f238d9ae8438126edb6b3",
        "steady_time":
            "602d68b4476c880b81adcde203296f329d0539ad9f6045ac665db1fb91c48310",
        "max_change":
            "a016fd60e9de34fab7f84ff49d888fe9f5dbea7dedaff8d7dc1f0c8c96dc0885",
        "compatibility_residuals":
            "77f3ea088c1912c736945e6e81b45af66d6137fee50b828b5ecdebbe52137169",
        "solver_residuals":
            "33466a571a6469a6e094aad4ac31358e9e1836ca19baacdc7a46c218d5e32cff",
    },
}


def sha256_of(*values) -> str:
    """sha256 of the float64 bytes of ``values``, one after another."""
    digest = hashlib.sha256()
    for value in values:
        digest.update(np.asarray(value, dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.filterwarnings("ignore:boundary currents are incompatible")
@pytest.mark.parametrize("case", sorted(DIGEST_RUNS))
def test_run_records_pinned_bits(case):
    driver, config = DIGEST_RUNS[case]
    result = driver(config)
    diag = result.diagnostics
    steady = [] if result.steady_time is None else result.steady_time
    digests = {
        "snapshots": sha256_of(*[v for s in result.snapshots
                                 for v in (s.time, s.temperature,
                                           s.potential)]),
        "final_profile": sha256_of(result.final_profile),
        "steady_time": sha256_of(steady),
        "max_change": sha256_of(diag.max_change),
        "compatibility_residuals": sha256_of(diag.compatibility_residuals),
        "solver_residuals": sha256_of(diag.solver_residuals),
    }
    assert digests == DIGESTS[case]


@pytest.mark.parametrize("driver", DRIVERS)
def test_snapshot_temperatures_share_no_memory(driver):
    result = driver(small_config(t_max=5.0, steady_tolerance=1e-14))
    arrays = [s.temperature for s in result.snapshots] + [result.final_profile]
    assert len(arrays) == 52
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_failed_run_restores_the_error_state():
    # huge fluxes overflow the first Joule source, so the first step's rhs
    # is not finite; every floating-point setting the run changed is undone
    config = small_config(flux_left=1e200, flux_right=1e200)
    with np.errstate(over="raise", invalid="warn", divide="call",
                     under="ignore"):
        before = np.geterr()
        with pytest.raises(tf.NumericalFailureError,
                           match="non-finite entries in rhs") as exc:
            tf.run(config)
        assert np.geterr() == before
    assert exc.value.step == 0


def test_run_warns_on_incompatible_boundary_currents(fig1_config):
    # the corrected potential cannot carry both fluxes when they differ
    with pytest.warns(UserWarning, match="boundary currents are incompatible"):
        tf.run(dataclasses.replace(fig1_config, flux_right=2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tf.run(fig1_config)


def test_freeze_potential_flag_matches_unfrozen_for_constant_sigma():
    # with sigma constant every live step's potential has the bits of the
    # first one, so the frozen run is the same run
    frozen = tf.run(small_config(freeze_potential_after_first_step=True))
    live = tf.run(small_config())
    assert len(frozen.snapshots) == len(live.snapshots)
    for a, b in zip(frozen.snapshots, live.snapshots):
        assert a.time == b.time
        np.testing.assert_array_equal(a.temperature, b.temperature)
        np.testing.assert_array_equal(a.potential, b.potential)


def test_run_reduced_requires_benchmark_model():
    config = small_config(model=tf.ModelSpec("constant", {"k0": 1.0, "sigma0": 0.1}))
    with pytest.raises(tf.ConfigurationError):
        tf.run_reduced(config)


def test_run_reduced_zero_heating_stays_zero():
    config = small_config(model=tf.ModelSpec("paper_example", {"gamma": 0.0}),
                          t_max=5.0)
    result = tf.run_reduced(config)
    np.testing.assert_array_equal(result.final_profile, np.zeros(21))
    assert result.steady_reached


def test_run_reduced_monotone_max(fig1_config):
    result = tf.run_reduced(fig1_config)
    maxes = [float(s.temperature.max()) for s in result.snapshots]
    assert all(b >= a for a, b in zip(maxes, maxes[1:]))
    assert result.steady_reached


def test_run_reduced_characterised_steady_profile(fig1_config):
    # The literal reduction's left-boundary closure is inconsistent, so it
    # settles far below the analytic steady state; freeze the observed value.
    result = tf.run_reduced(fig1_config)
    assert result.final_profile.max() == pytest.approx(0.0431817378, abs=1e-8)


def test_reduced_interior_rows_match_corrected_assembly(fig1_config):
    # On the same state the interior row equations of the reduced scheme and
    # the corrected coupled scheme coincide: same (a1, b1, a1) triple, same
    # mass + gamma*tau*h right-hand side.  (Their boundary closures differ.)
    # The reduced step is the paper_literal operator at k = 1 with the
    # uniform source gamma*tau*h, as run_reduced takes it.
    mesh = fig1_config.build_mesh()
    model = fig1_config.build_model()
    n, h = mesh.n_elements, mesh.h
    tau, beta = fig1_config.tau, fig1_config.beta
    assert model.k == 1.0
    reduced = tf.TemperatureOperator(mesh, model, tau, beta, tf.PAPER_LITERAL)
    sub, main, sup = reduced.matrix.sub, reduced.matrix.main, reduced.matrix.sup
    # the published reduction, written out; the operator may differ by 1 ulp
    a1 = h / 6.0 - tau / h
    b1 = 2.0 * h / 3.0 + 2.0 * tau / h
    np.testing.assert_array_max_ulp(sub, np.full(n - 1, a1), maxulp=1)
    np.testing.assert_array_max_ulp(sup[1:], np.full(n - 2, a1), maxulp=1)
    np.testing.assert_array_max_ulp(main[1:n - 1], np.full(n - 2, b1), maxulp=1)
    np.testing.assert_array_max_ulp(
        main[[0, n - 1]], [a1 * (beta * h - 1.0) + b1 - tau * beta,
                           b1 + a1 / (beta * h + 1.0)], maxulp=1)
    np.testing.assert_array_max_ulp(sup[0], 2.0 * a1, maxulp=1)
    state = tf.initial_temperature(mesh)
    for _ in range(5):
        state, pot = tf.step(state, fig1_config)
        system = tf.assemble_temperature(state, pot, mesh, model,
                                         tau, beta, tf.CORRECTED)
        a = state.alpha
        rhs_red = reduced.mass(a) + GAMMA * tau * h
        published = np.empty(n)
        published[1:-1] = (h / 6.0) * a[:n - 2] + (2.0 * h / 3.0) * a[1:n - 1] \
            + (h / 6.0) * a[2:n]
        published[0] = (h / 2.0) * (1.0 + beta * h / 3.0) * a[0] \
            + (h / 3.0) * a[1]
        published[-1] = (h / 6.0) * a[n - 2] \
            + (h / 6.0) * (4.0 + 1.0 / (1.0 + beta * h)) * a[n - 1]
        np.testing.assert_array_max_ulp(rhs_red, published + GAMMA * tau * h,
                                        maxulp=1)
        new = reduced.advance(a, GAMMA * tau * h)
        np.testing.assert_array_max_ulp(new[n], new[n - 1] / (1.0 + beta * h),
                                        maxulp=1)
        for j in range(1, n - 1):
            assert system.sub[j - 1] == pytest.approx(sub[j - 1], abs=1e-14)
            assert system.main[j] == pytest.approx(main[j], abs=1e-14)
            assert system.sup[j] == pytest.approx(sup[j], abs=1e-14)
            assert system.rhs[j] == pytest.approx(rhs_red[j], abs=1e-12)


def test_analytic_steady_state_values():
    assert tf.analytic_steady_state(0.5, 0.2, 0.1) == pytest.approx(0.2625)
    assert tf.analytic_steady_state(0.0, 0.3, 0.2) == pytest.approx(0.2 / 0.6)
    x = np.linspace(0, 1, 33)
    np.testing.assert_allclose(tf.analytic_steady_state(x, 0.4, 0.3),
                               tf.analytic_steady_state(1 - x, 0.4, 0.3),
                               atol=1e-15)
    with pytest.raises(ValueError):
        tf.analytic_steady_state(0.5, 0.0, 0.1)


def test_analytic_steady_state_satisfies_ode_and_bcs():
    # quadratic profile: central differences and derivative checks are exact
    beta, gamma = 0.37, 0.21
    u = lambda x: tf.analytic_steady_state(x, beta, gamma)
    for x, d in ((0.3, 1e-3), (0.7, 1e-2)):
        second = (u(x + d) - 2 * u(x) + u(x - d)) / d**2
        assert second == pytest.approx(-gamma, rel=1e-9)
    d = 1e-6
    left_grad = (u(d) - u(0.0)) / d + 0.5 * gamma * d  # remove quadratic part
    assert left_grad == pytest.approx(beta * u(0.0), rel=1e-9)
    right_grad = (u(1.0) - u(1.0 - d)) / d - 0.5 * gamma * d
    assert right_grad == pytest.approx(-beta * u(1.0), rel=1e-9)


def test_analytic_steady_state_against_finite_difference_oracle():
    # independent ghost-node finite difference solve of the steady problem
    beta, gamma = 0.2, 0.1
    m = 200
    h = 1.0 / m
    a = np.zeros((m + 1, m + 1))
    b = np.full(m + 1, gamma)
    for j in range(1, m):
        a[j, j - 1], a[j, j], a[j, j + 1] = -1 / h**2, 2 / h**2, -1 / h**2
    # u'(0) = beta*u(0) and u'(1) = -beta*u(1) via mirrored ghost values
    a[0, 0] = 2 / h**2 + 2 * beta / h
    a[0, 1] = -2 / h**2
    a[m, m] = 2 / h**2 + 2 * beta / h
    a[m, m - 1] = -2 / h**2
    fd = np.linalg.solve(a, b)
    x = np.linspace(0, 1, m + 1)
    np.testing.assert_allclose(fd, tf.analytic_steady_state(x, beta, gamma),
                               atol=1e-10)


def test_steady_state_error_rejects_unsteady():
    config = small_config(t_max=0.1, steady_tolerance=1e-14)
    result = tf.run(config)
    with pytest.raises(tf.NotSteadyError):
        tf.steady_state_error(result, BETA, GAMMA)


def test_steady_state_error_zero_heating_guard():
    # a zero profile must show the full analytic-profile error, guarding
    # against vacuous passes of the steady-state comparison
    config = small_config(model=tf.ModelSpec("constant", {"k0": 1.0, "sigma0": 0.0}))
    result = tf.run(config)
    err = tf.steady_state_error(result, BETA, GAMMA)
    assert err == pytest.approx(GAMMA / (2 * BETA) + GAMMA / 8)
    assert err >= GAMMA / (2 * BETA)


def test_convergence_study_rejects_nonpositive_beta():
    for beta in (0.0, -5.0):
        # the config refuses beta < 0 itself, so it is set past validation
        config = small_config()
        object.__setattr__(config, "beta", beta)
        with pytest.raises(tf.ConfigurationError, match="beta > 0"):
            tf.convergence_study(config, 1)


def test_convergence_study_refuses_levels_past_the_element_bound():
    # refused before any level runs, without forming 2**levels
    for n_elements, levels, allowed in ((100, 15, 14), (100, 10**9, 14),
                                        (10**6 // 2 + 1, 2, 1)):
        config = small_config(n_elements=n_elements)
        with pytest.raises(tf.ConfigurationError,
                           match=f"past 1000000; at most {allowed} levels"):
            tf.convergence_study(config, levels)


def test_convergence_study_needs_a_level():
    with pytest.raises(tf.ConfigurationError, match="levels must be >= 1"):
        tf.convergence_study(small_config(), 0)


def test_convergence_study_levels():
    config = small_config(n_elements=10, steady_tolerance=1e-9)
    pairs = tf.convergence_study(config, 2)
    assert [n for n, _ in pairs] == [10, 20]
    assert all(e >= 0 for _, e in pairs)


def test_chebyshev_oracle_solves_the_linear_case_exactly():
    # lambda = 0: the heating is the constant sigma0 flux^2, whose steady
    # state is the benchmark's analytic one with gamma = sigma0 flux^2, up
    # to the collocation's rounding (measured 3.5e-13 and 1.9e-12 at max|u|
    # 0.47 and 2.6, 7e-13 of max|u| each)
    x = np.linspace(0.0, 1.0, 101)
    for sigma0, flux in ((0.5, 0.6), (1.0, 1.0)):
        oracle = rational_steady_oracle(BETA, 0.0, sigma0=sigma0, flux=flux)
        exact = tf.analytic_steady_state(x, BETA, sigma0 * flux ** 2)
        assert np.max(np.abs(oracle(x) - exact)) <= 2e-12 * exact.max()


def test_rational_steady_state_converges_at_order_two():
    # fig1's steady state is quadratic, so P1 reproduces it at the nodes
    # and criterion 5 sees no order; the rational case's steady state is
    # not, and the nodal error falls as h^2 (measured 2.1246e-6, 5.3152e-7,
    # 1.3292e-7 and 3.3231e-8, orders 1.9990, 1.9996 and 2.0000)
    oracle = rational_steady_oracle(BETA, 1.0)
    errors = []
    for n in (100, 200, 400, 800):
        result = tf.run(small_config(
            n_elements=n, steady_tolerance=1e-13, record_every=10 ** 6,
            model=tf.ModelSpec("rational_sigma",
                               {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0})))
        assert result.steady_reached
        errors.append(np.max(np.abs(result.final_profile
                                    - oracle(result.nodes))))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((orders >= 1.9) & (orders <= 2.1)), (errors, orders)
