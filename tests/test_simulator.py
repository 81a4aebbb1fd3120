import dataclasses
import warnings

import numpy as np
import pytest

import thermistor_fem as tf
from helpers import count_factorisations, wrap_sigma
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


def test_step_zero_conductivity_fails_with_step_index():
    config = small_config(model=tf.ModelSpec("constant", {"k0": 1.0, "sigma0": 0.0}))
    state = tf.initial_temperature(config.build_mesh())
    with pytest.raises(tf.SingularSystemError) as exc:
        tf.step(state, config)
    assert exc.value.step == 0


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
    # one evaluation of sigma at alpha^n
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
        new = reduced.advance(rhs_red)
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
