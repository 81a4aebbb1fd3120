import dataclasses
import functools
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


@pytest.mark.parametrize("build, key", [
    (lambda: tf.ModelSpec("constant", {"k0": "abc", "sigma0": 1.0}), "k0"),
    (lambda: tf.ModelSpec("constant", {"k0": None, "sigma0": 1.0}), "k0"),
    (lambda: tf.ModelSpec("constant", {"k0": 1.0, "sigma0": 1j}), "sigma0"),
    (lambda: tf.ModelSpec("paper_example", {"gamma": "0.1"}), "gamma"),
    (lambda: small_config(tau="0.1"), "tau"),
    (lambda: small_config(beta=None), "beta"),
    (lambda: small_config(flux_right=1j), "flux_right"),
], ids=["k0_str", "k0_none", "sigma0_complex", "gamma_str", "tau_str",
        "beta_none", "flux_right_complex"])
def test_non_real_parameters_are_configuration_errors(build, key):
    # refused when the spec or the config is made, naming the key, instead
    # of escaping later as a ValueError or TypeError
    with pytest.raises(tf.ConfigurationError,
                       match=f"^{key} must be a real number, got "):
        build()


@pytest.mark.parametrize("build, key", [
    (lambda: tf.ModelSpec("paper_example", {"gamma": 10**400}), "gamma"),
    (lambda: tf.ModelSpec("constant", {"k0": 1.0, "sigma0": -10**400}),
     "sigma0"),
    (lambda: small_config(tau=10**400), "tau"),
    (lambda: small_config(flux_left=-10**400), "flux_left"),
], ids=["gamma", "sigma0", "tau", "flux_left"])
def test_numbers_too_large_for_a_float_are_configuration_errors(build, key):
    # an int too large for a float is refused as the infinity the CLI's
    # float parse would give, naming the key, not as an OverflowError
    with pytest.raises(tf.ConfigurationError,
                       match=f"^{key} must be finite, got -?inf$"):
        build()


@pytest.mark.parametrize("sigma, shape", [
    (lambda u: 2.0, "()"),
    (lambda u: np.ones(3), "(3,)"),
    (lambda u: np.ones((np.size(u), 1)), "(21, 1)"),
], ids=["scalar", "short", "column"])
@pytest.mark.parametrize("variant", [tf.CORRECTED, tf.PAPER_LITERAL],
                         ids=["corrected", "paper_literal"])
def test_sigma_that_does_not_broadcast_is_a_model_error(sigma, shape, variant,
                                                        monkeypatch):
    # sigma(u) must have u's shape; any other is refused where sigma is
    # evaluated, and the run leaves at its first step
    wrap_sigma(monkeypatch, lambda _: sigma)
    with pytest.raises(tf.ModelError) as exc:
        tf.run(small_config(variant=variant))
    assert str(exc.value) == (
        "electrical conductivity must broadcast over u: sigma(u) has "
        f"shape {shape} for u of shape (21,)")
    assert exc.value.step == 0
    assert exc.value.diagnostics.max_change == []


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
    (float, 10**400, "initial time must be finite, got inf"),
    (float, "0", "initial time must be a real number, got '0'"),
], ids=["complex", "object", "nan_time", "inf_time", "minus_inf_time",
        "huge_int_time", "text_time"])
def test_unreal_state_or_time_is_a_configuration_error(dtype, time, message):
    # refused before the step writes mass(alpha) into its float64 rhs
    # block: complex and object values, and a time no step can follow
    config = small_config()
    state = tf.TemperatureState(np.zeros(config.n_elements + 1, dtype), time)
    for call in (lambda: tf.run(config, state),
                 lambda: tf.step(state, config)):
        with pytest.raises(tf.ConfigurationError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize("dtype", [list, int, bool, np.float32])
def test_real_starting_states_of_any_real_dtype_run(dtype):
    # a zero state held as a list, int (int64), bool or float32 at an int
    # time runs as the float64 one: run and step convert it once, so
    # snapshot 0 holds float64 values at a float time
    config = small_config(
        model=tf.ModelSpec("rational_sigma",
                           {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0}))
    zero = tf.initial_temperature(config.build_mesh())
    alpha = zero.alpha.tolist() if dtype is list else zero.alpha.astype(dtype)
    state = tf.TemperatureState(alpha, 0)
    ref = tf.run(config)
    again = tf.run(config, state)
    first = again.snapshots[0]
    assert first.temperature.dtype == np.float64
    assert type(first.time) is float
    assert first.temperature.tobytes() \
        == ref.snapshots[0].temperature.tobytes()
    assert again.final_profile.tobytes() == ref.final_profile.tobytes()
    assert again.steady_time == ref.steady_time
    new, mu = tf.step(state, config)
    ref_new, ref_mu = tf.step(zero, config)
    assert new.alpha.tobytes() == ref_new.alpha.tobytes()
    assert mu.tobytes() == ref_mu.tobytes()
    assert type(new.time) is float and new.time == ref_new.time


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


def joule_source_at(alpha, config, mesh, model, tau):
    """The Joule source of a run's step from alpha, with sigma and the
    potential taken at alpha, for the time step ``tau``."""
    sigma = tf.eval_sigma(model, alpha)
    mu = tf.solve_potential(sigma, mesh, model, config.variant)
    return tf.joule_source_vector(sigma, mu, mesh, model, tau, config.variant)


def absolute_rows(system):
    """|T|, for the products |T| |alpha|."""
    return tf.TridiagonalSystem(np.abs(system.sub), np.abs(system.main),
                                np.abs(system.sup), np.zeros(system.size))


STEADY_CASES = {
    "fig1": dict(n_elements=100),
    "rational_n1000": dict(
        n_elements=1000, steady_tolerance=1e-10, model=tf.ModelSpec(
            "rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0})),
    "ntc_n200": dict(
        n_elements=200, flux_left=0.3, flux_right=0.3, model=tf.ModelSpec(
            "rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": -0.5})),
}


@functools.cache
def steady_run(case: str):
    """A corrected run of ``STEADY_CASES[case]`` to its steady state, run
    once: its step operator, final state a, F(a) and the bound below."""
    # The steady equations are F(a) = (T a - M a) / tau - S(a) = 0, with
    # T = M + tau K the step's rows and S the Joule source at tau = 1, with
    # sigma and the potential at a.  The last step solved
    # T a = M p + S_tau(p) + r from the level p before it, so
    #   F(a) = -M (a - p) / tau + (S_tau(p) / tau - S(p)) + (S(p) - S(a))
    #          + r / tau,
    # plus the rounding of forming F.  The rows of M sum to at most h and
    # the run stopped at max|a - p| / tau < tol, so the first term is at
    # most h tol; the second is the rounding of tau's factor, a few eps |S|;
    # the third is how far the lagged source moved in the last step; and r
    # is the solve's residual, which the run recorded scaled by
    # 1 + max|rhs|.  T a, M a and T a - rhs are each formed to 3 eps of
    # |T| |a|, |M| |a| and |rhs| per row, so 8 eps of their sum covers the
    # rounding of F and of the recorded residual.
    config = small_config(t_max=200.0, record_every=1, **STEADY_CASES[case])
    result = tf.run(config)
    assert result.steady_reached
    mesh, model, tau = config.build_mesh(), config.build_model(), config.tau
    operator = tf.TemperatureOperator(mesh, model, tau, config.beta,
                                      config.variant)
    final, before = result.final_profile, result.snapshots[-2].temperature
    source = joule_source_at(final, config, mesh, model, 1.0)
    residual = (operator.matrix.matvec(final) - operator.mass(final)) / tau \
        - source
    rhs = operator.mass(before) + joule_source_at(before, config, mesh, model,
                                                  tau)
    solve = result.diagnostics.temperature_residuals[-1] \
        * (1.0 + np.abs(rhs).max())
    eps = np.finfo(float).eps
    rows = absolute_rows(operator.matrix).matvec(np.abs(final)) \
        + absolute_rows(operator.mass_matrix).matvec(np.abs(final)) \
        + np.abs(rhs)
    moved = joule_source_at(before, config, mesh, model, 1.0) - source
    bound = mesh.h * config.steady_tolerance + np.abs(moved).max() \
        + 8 * eps * np.abs(source).max() \
        + (solve + 8 * eps * rows.max()) / tau
    return operator, final, residual, bound


@pytest.mark.parametrize("case", STEADY_CASES)
def test_steady_equations_hold_at_the_final_state(case):
    # measured max|F|: fig1 9.96e-11 (h tol = 1e-10), rational N = 1000
    # 6.31e-13 (1e-13), ntc N = 200 5.0e-11 (5e-11)
    _, _, residual, bound = steady_run(case)
    assert np.abs(residual).max() <= bound


@pytest.mark.parametrize("case", STEADY_CASES)
def test_steady_residual_is_k_a_minus_the_source(case):
    # K a - S(a) from the held K rows, against F(a) formed from T and M.
    # Both take S(a) by the same operations, so they differ by the
    # rounding of K a against (T a - M a) / tau alone.  Each entry of T is
    # M's plus tau K's to 4 eps of |M| + tau |K|, and each of K is within
    # 3 eps of its exact value; T a, M a and K a are each formed to 3 eps
    # of |T| |a|, |M| |a| and |K| |a|, and the difference, the division by
    # tau and the source's subtraction add an eps each.  With
    # |T| <= |M| + tau |K| (1 + 4 eps), 16 eps of |M| |a| / tau + |K| |a|
    # per row covers them all.
    # measured max|difference| / that bound: fig1 0.042, rational N = 1000
    # 0.035, ntc N = 200 0.050
    operator, final, residual, bound = steady_run(case)
    steady = operator.steady_residual(final)
    assert np.abs(steady).max() <= bound
    a = np.abs(final)
    rounding = 16 * np.finfo(float).eps * (
        absolute_rows(operator.mass_matrix).matvec(a) / operator.tau
        + absolute_rows(operator.stiffness).matvec(a))
    assert (np.abs(steady - residual) <= rounding).all()


def test_steady_residual_refuses_paper_literal():
    config = small_config(variant=tf.PAPER_LITERAL)
    operator = tf.TemperatureOperator(config.build_mesh(),
                                      config.build_model(), config.tau,
                                      config.beta, config.variant)
    assert operator.stiffness is None
    with pytest.raises(tf.ConfigurationError, match="corrected"):
        operator.steady_residual(np.zeros(config.n_elements + 1))


def test_steady_rows_that_overflow_fail_only_in_the_steady_residual():
    # k = 1e307 at h = 0.01: tau k / h = 1e307 is a float, k / h is not, so
    # the step rows are built and K is refused where it is first used
    config = small_config(n_elements=100, tau=0.01, model=tf.ModelSpec(
        "constant", {"k0": 1e307, "sigma0": 1.0}))
    operator = tf.TemperatureOperator(config.build_mesh(),
                                      config.build_model(), config.tau,
                                      config.beta, config.variant)
    assert np.isfinite(operator.matrix.main).all()
    with pytest.raises(tf.NumericalFailureError,
                       match="^temperature solve failed: non-finite"):
        operator.steady_residual(np.zeros(config.n_elements + 1))


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


@pytest.mark.parametrize("tolerance", [1e-8, 1e-10])
def test_steady_error_estimate_is_the_fig1_leftover(fig1_config, tolerance):
    # the corrected scheme is nodally exact for fig1, so its steady error
    # is what the steady detection leaves; criterion 5 reads it at 1e-10.
    # The extrapolated profile removes nearly all of it: measured 1.18e-12
    # from the steady state at 1e-8 (the final profile 2.57e-8) and
    # 1.02e-12 at 1e-10 (2.52e-10)
    result = tf.run(dataclasses.replace(fig1_config,
                                        steady_tolerance=tolerance))
    leftover = tf.steady_state_error(result, BETA, GAMMA)
    assert result.steady_error_estimate == pytest.approx(leftover, rel=0.05)
    exact = tf.analytic_steady_state(result.nodes, BETA, GAMMA)
    assert np.abs(result.extrapolated_profile - exact).max() <= 1e-10


@pytest.mark.parametrize("n, lam, flux", [
    (100, 1.0, 1.0), (200, 1.0, 1.0), (1000, 1.0, 1.0), (200, -0.5, 0.3),
], ids=["rational_n100", "rational_n200", "rational_n1000", "ntc_n200"])
def test_steady_error_estimate_is_the_leftover_of_a_rational_run(n, lam,
                                                                 flux):
    # the true leftover is the distance to the same run stopped far later.
    # The extrapolated profile lies within rounding of that run: measured
    # 1.97e-14, 8.8e-15, 1.84e-14 and 4.7e-14 (the final profile 1.26e-8,
    # 1.26e-8, 1.26e-8 and 4.0e-8)
    config = small_config(
        n_elements=n, t_max=1000.0, record_every=10**6,
        flux_left=flux, flux_right=flux,
        model=tf.ModelSpec("rational_sigma",
                           {"k0": 1.0, "sigma0": 1.0, "lambda": lam}))
    result = tf.run(config)
    tight = tf.run(dataclasses.replace(config, steady_tolerance=1e-14))
    assert tight.steady_reached
    leftover = np.max(np.abs(result.final_profile - tight.final_profile))
    assert result.steady_error_estimate == pytest.approx(leftover, rel=0.05)
    extrapolated = np.abs(result.extrapolated_profile - tight.final_profile)
    assert extrapolated.max() <= 1e-12


def test_steady_error_estimate_is_none_without_two_steps_to_steady():
    unsteady = small_config(t_max=1.0)
    for driver in DRIVERS:
        result = driver(unsteady)
        assert result.steady_error_estimate is None, driver.__name__
        assert result.extrapolated_profile is None, driver.__name__
    # steady at the first step, so there is no ratio to take
    dark = tf.run(small_config(
        model=tf.ModelSpec("constant", {"k0": 1.0, "sigma0": 0.0})))
    assert dark.steady_reached and len(dark.diagnostics.max_change) == 1
    assert dark.steady_error_estimate is None
    assert dark.extrapolated_profile is None
    reduced = tf.run_reduced(small_config())
    assert reduced.steady_error_estimate > 0.0
    assert reduced.extrapolated_profile.shape == reduced.final_profile.shape


def test_trajectory_stays_below_analytic_bound(fig1_config):
    result = tf.run(fig1_config)
    bound = GAMMA / (2 * BETA) + GAMMA / 8 + 1e-6
    peak = max(float(s.temperature.max()) for s in result.snapshots)
    assert peak <= bound


def test_solver_residuals_collected(fig1_config):
    result = tf.run(dataclasses.replace(fig1_config, t_max=1.0,
                                        steady_tolerance=1e-14))
    diag = result.diagnostics
    # fig1's numeric sigma: one potential solved for the run, and one
    # temperature residual per step
    assert len(diag.max_change) == 10
    assert len(diag.potential_residuals) == 1
    assert len(diag.temperature_residuals) == 10
    assert max(diag.potential_residuals + diag.temperature_residuals) <= 1e-10


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
    assert len(result.diagnostics.potential_residuals) == potentials
    assert len(result.diagnostics.temperature_residuals) == steps
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
    # a residual per potential solved: one for a numeric sigma or a frozen
    # potential, one per step for a callable sigma
    frozen = config.freeze_potential_after_first_step
    assert len(result.diagnostics.potential_residuals) == \
        (steps if per_step and not frozen else 1)
    assert len(result.diagnostics.temperature_residuals) == steps


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
# digits only, so a rounding-level slip in a solve can pass it but not these.
# They hold for the FMA kernels of the OpenBLAS build they were made with
# (SkylakeX, Haswell), as the held solve's products go through BLAS: under
# OPENBLAS_CORETYPE=Sandybridge all six fail, with no defect in the code.
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
            "353dd9b2c23c8df10ff1f7632b6f664838d58b6e3a314cbd11b6f86f9a0993d0",
        "final_profile":
            "8c25b376a01d7f93115470b6c373abb6765070918f47c94241054ddcdb6b59d6",
        "steady_time":
            "b50f6d8a7576ee31f650bd0b6b9e21854da7d31f158bb5f53fc370f4bb0dabd5",
        "max_change":
            "9778fe80ed8f01d648e7b20d8867eb69cd2d456176f5d68d181ca9432ad0b506",
        "compatibility_residuals":
            "0f0e9d91e155e6f2ccc00419cbcdd7ba79bfbc32b975aac0ed734dc265b08b65",
        "potential_residuals":
            "54f3ecad73d5ec41e8696f7242d9f450d5c2d0b3fdcbc84e883552572af8f795",
        "temperature_residuals":
            "7306834fcb57e503f4ee8cc2cd98ceebf7169647c56a409fa2b71ac0d7a618fb",
    },
    "fig1_paper_literal": {
        "snapshots":
            "677b7a917876cc108c7876f5775f42b4f2539aff97fb98d1faeeca317a751978",
        "final_profile":
            "7b55f5c4e70514572711a850583897cf544f29c7de2cbcff5e7b53480c2c6b81",
        "steady_time":
            "fc15d5cc303f10cf1a3f22129dcc1d1ddace37dd173f01d864caf6bfbc9ca117",
        "max_change":
            "889998ff2dd36ba1afca96afe17d7a44d905ab32f73c7ea39c67c05e0fc0d9f4",
        "compatibility_residuals":
            "7c4c2b940c41426e36a4cf6c83afababacfb8bb1a1dc39162a95bb812e1d109f",
        "potential_residuals":
            "45ccda571317efe18a06419597c696d98f9da25dfd1aa877e68085750e6ef7a0",
        "temperature_residuals":
            "576b14191a67461eeea1706e2f672dd180fc813c86114e4e08c2e7e639e64c0a",
    },
    "fig1_frozen": {
        "snapshots":
            "353dd9b2c23c8df10ff1f7632b6f664838d58b6e3a314cbd11b6f86f9a0993d0",
        "final_profile":
            "8c25b376a01d7f93115470b6c373abb6765070918f47c94241054ddcdb6b59d6",
        "steady_time":
            "b50f6d8a7576ee31f650bd0b6b9e21854da7d31f158bb5f53fc370f4bb0dabd5",
        "max_change":
            "9778fe80ed8f01d648e7b20d8867eb69cd2d456176f5d68d181ca9432ad0b506",
        "compatibility_residuals":
            "0f0e9d91e155e6f2ccc00419cbcdd7ba79bfbc32b975aac0ed734dc265b08b65",
        "potential_residuals":
            "54f3ecad73d5ec41e8696f7242d9f450d5c2d0b3fdcbc84e883552572af8f795",
        "temperature_residuals":
            "7306834fcb57e503f4ee8cc2cd98ceebf7169647c56a409fa2b71ac0d7a618fb",
    },
    "rational_n1000": {
        "snapshots":
            "4becb6f4c18636fb46ad9af82715b48a1a7f824a79654b17819a99f99f0a7897",
        "final_profile":
            "2ef321ca671b0d333bccea561d8221cfa04ae72ac530c21698277670397340c5",
        "steady_time":
            "e071f439980615c39c72b44e57de3e128e2da492989fc6e21a1a211324ca21b5",
        "max_change":
            "c516ae240a6bbad393554ce8b67c09e527bd786433d80bc2f6054f4dce1c8bab",
        "compatibility_residuals":
            "1ba8e99f7a8a740732795242f5776601a55f77c2de5a8fc5ec3fc10ba6703107",
        "potential_residuals":
            "c65ffdc743d34028990089808c468123bd034c4f44653602d0d74d7d0922faa8",
        "temperature_residuals":
            "95b0afa7d6aca4055f0f7d7aa86ab6e79115dd670e7262678142d0ef7b4f049f",
    },
    "literal_rational_n100": {
        "snapshots":
            "b2331f2636ce34ba205658572986f530c082fe4fbe4104233d2dc7553cd8353e",
        "final_profile":
            "5440345e9bf9a96d0aa3dea722bfab644cbd09a254b64a3d4fe77bfb1608c066",
        "steady_time":
            "f1a060eaf6a52f8e37e97da3173356a6c2216914dc878ce4e5ae13c3ca838765",
        "max_change":
            "7b68fd7556c459bdf74a78c1e73b57ac308df3f81a136ea746ac3fb366df42c3",
        "compatibility_residuals":
            "be8ba0911aa40cd6b877669d39df3500655bc63e0827539203755fe27ae6f5a8",
        "potential_residuals":
            "983259f1be33569384bc4421a02bf2bccf999a6fbeb7d089ae0b575e88d6ad9d",
        "temperature_residuals":
            "94d691c27deb1d4d39daa04d5683ab073b64bbeb910c5b6c8869f32ec4f95759",
    },
    "reduced_n2000": {
        "snapshots":
            "5a7032749211a2e2dd4720574409e7c0be9f833554d6440da896214c268d1b53",
        "final_profile":
            "a0b5f3078e3672ce52a58eba79a00e5155aa567412eccff55c573cb4cb7afa1d",
        "steady_time":
            "602d68b4476c880b81adcde203296f329d0539ad9f6045ac665db1fb91c48310",
        "max_change":
            "337c0d528dda088dd9c22926e06d7d6f5d6e651b107a54685f394af93c766e73",
        "compatibility_residuals":
            "77f3ea088c1912c736945e6e81b45af66d6137fee50b828b5ecdebbe52137169",
        "potential_residuals":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "temperature_residuals":
            "3830aead4ec373299c620cd1a08e8ff81e38e164895b8c2f545b0f3dc63bda29",
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
        "potential_residuals": sha256_of(diag.potential_residuals),
        "temperature_residuals": sha256_of(diag.temperature_residuals),
    }
    assert digests == DIGESTS[case]


@pytest.mark.parametrize("case", ["fig1", "rational_n1000"])
def test_step_sink_gets_the_potential_then_the_temperature_residual(case):
    # step's one sink gets what a run's first step puts in its two series
    config = DIGEST_RUNS[case][1]
    diag = tf.run(config).diagnostics
    sink = []
    tf.step(tf.initial_temperature(config.build_mesh()), config,
            residual_sink=sink)
    first = [diag.potential_residuals[0], diag.temperature_residuals[0]]
    assert len(sink) == 2
    assert np.array(sink).tobytes() == np.array(first).tobytes()


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


def zero_past(warm):
    """A sigma wrapper: zero where u > ``warm``, so a bar that warms
    unevenly conducts on some elements and not on others."""
    return lambda sigma: lambda u: np.where(np.asarray(u) > warm, 0.0,
                                            sigma(u))


# config overrides, a sigma wrapper or None, a step's starting state from
# the nodes, and the error that run and step raise (None: they succeed);
# lambda = -5 puts the rational pole at u = 0.2, which the bar warms past
ERROR_STATE_CASES = {
    "success": ({"model": RATIONAL}, None, lambda x: 0.1 * x, None),
    "pole": ({"model": tf.ModelSpec("rational_sigma", {
        "k0": 1.0, "sigma0": 1.0, "lambda": -5.0})}, None,
        lambda x: np.full_like(x, 0.3), tf.ModelError),
    "zero_conductivity": ({}, zero_past(0.05),
                          lambda x: np.where(x > 0.5, 0.1, 0.0),
                          tf.SingularSystemError),
    "overflowing_source": ({"flux_left": 1e200, "flux_right": 1e200}, None,
                           np.zeros_like, tf.NumericalFailureError),
}


@pytest.mark.parametrize("case", ERROR_STATE_CASES.values(),
                         ids=ERROR_STATE_CASES.keys())
def test_run_and_step_leave_the_error_state_as_they_found_it(case,
                                                             monkeypatch):
    # each is called twice, so an error state entered a second time would
    # fail as well; the failing runs fail mid-run but for the overflow,
    # which fails at the first step
    overrides, wrap, start, error = case
    if wrap is not None:
        wrap_sigma(monkeypatch, wrap)
    config = small_config(**overrides)
    state = tf.TemperatureState(start(config.build_mesh().nodes.copy()), 0.0)
    with np.errstate(over="raise", invalid="raise", divide="raise",
                     under="ignore"):
        before = np.geterr()
        for _ in range(2):
            for call in (lambda: tf.run(config), lambda: tf.step(state, config)):
                if error is None:
                    call()
                else:
                    with pytest.raises(error):
                        call()
                assert np.geterr() == before
            if error not in (None, tf.NumericalFailureError):
                with pytest.raises(error) as exc:
                    tf.run(config)
                assert exc.value.step > 0


def test_a_sigma_that_overflows_warns_in_the_callers_error_state(
        monkeypatch):
    # sigma and eval_sigma's checks run in the caller's error state: the
    # callable's own overflow warns, and where the caller ignores overflow,
    # the infinite sigma it gives is refused
    wrap_sigma(monkeypatch, lambda sigma: lambda u: np.exp(
        1e3 * (1.0 + np.asarray(u))))
    config = small_config()
    state = tf.initial_temperature(config.build_mesh())
    for call in (lambda: tf.run(config), lambda: tf.step(state, config)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning,
                               match="overflow encountered in exp"):
                call()
        with np.errstate(over="ignore"):
            with pytest.raises(tf.ModelError, match="must be >= 0 and finite"):
                call()


@pytest.mark.parametrize("model", [
    tf.ModelSpec("constant", {"k0": 1.0, "sigma0": 1e308}),
    tf.ModelSpec("rational_sigma", {"k0": 1.0, "sigma0": 1e308,
                                    "lambda": 1.0}),
], ids=["constant", "rational_sigma"])
def test_compatibility_residual_that_overflows_is_recorded_as_inf(model):
    # sigma_N flux_right - sigma_0 flux_left = 1e308 + 1e308 overflows; on
    # Python floats that is inf, with no numpy overflow warning beside the
    # run's own
    config = small_config(model=model, flux_left=-1.0, flux_right=1.0,
                          t_max=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = tf.run(config)
    assert [str(w.message) for w in caught] == [
        "boundary currents are incompatible (max residual inf)"]
    assert result.diagnostics.compatibility_residuals[0] == np.inf
    built = config.build_model()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tf.check_current_compatibility(
            np.array([1e308, 1e308]), built) == np.inf


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


@pytest.mark.parametrize("levels", [2.5, "2", True, None],
                         ids=["float", "str", "bool", "none"])
def test_convergence_study_refuses_a_levels_that_is_not_an_integer(levels):
    # refused before any level runs; True would otherwise run one level
    with pytest.raises(tf.ConfigurationError,
                       match=r"levels must be an integer, got "):
        tf.convergence_study(small_config(), levels)


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


def rational_at_half(n: int, tau: float) -> np.ndarray:
    """The rational case's temperature at t = 0.5, from a run that never
    stops early for steadiness."""
    result = tf.run(small_config(
        n_elements=n, tau=tau, t_max=0.5, steady_tolerance=1e-300,
        record_every=10 ** 6,
        model=tf.ModelSpec("rational_sigma",
                           {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0})))
    assert not result.steady_reached
    assert result.snapshots[-1].time == pytest.approx(0.5, rel=1e-14)
    assert len(result.diagnostics.max_change) == round(0.5 / tau)
    return result.final_profile


def test_rational_transient_converges_as_h2_plus_tau():
    # self-convergence at t = 0.5, where no run is steady: the scheme's
    # error is O(h^2 + tau) (Elliott & Larsson, Math. Comp. 64 (1995)
    # 1433-1453).  Differences between N and 2N at tau = 1e-3 (measured
    # 6.49e-6, 1.62e-6 and 4.05e-7, orders 2.002 and 2.001), and between
    # tau and tau/2 at N = 50 (9.56e-4, 4.70e-4 and 2.33e-4, orders 1.023
    # and 1.012)
    space = [rational_at_half(n, 1e-3) for n in (25, 50, 100, 200)]
    time = [rational_at_half(50, tau) for tau in (0.02, 0.01, 0.005, 0.0025)]
    for profiles, coarse, low, high in ((space, slice(None, None, 2), 1.9, 2.1),
                                        (time, slice(None), 0.9, 1.1)):
        diffs = np.array([np.max(np.abs(fine[coarse] - rough))
                          for rough, fine in zip(profiles, profiles[1:])])
        orders = np.log2(diffs[:-1] / diffs[1:])
        assert np.all((orders >= low) & (orders <= high)), (diffs, orders)
