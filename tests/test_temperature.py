import numpy as np
import pytest

import thermistor_fem as tf
from conftest import constant_model

H, TAU, BETA = 0.01, 0.1, 0.2
A1 = H / 6 - TAU / H          # -9.998333...
B1 = 2 * H / 3 + 2 * TAU / H  # 20.006666...


def paper_example_model(gamma=0.1):
    return tf.ModelSpec("paper_example", {"gamma": gamma}).build(1.0, 1.0)


def state_from(alpha, alpha_prev=None, time=0.0):
    alpha = np.asarray(alpha, dtype=float)
    prev = alpha.copy() if alpha_prev is None else np.asarray(alpha_prev, float)
    return tf.TemperatureState(alpha=alpha, alpha_prev=prev, time=time)


def test_ghost_temp_left_example():
    assert tf.ghost_temp_left(0.2, 0.1, 1.0, 0.01, 0.2) == pytest.approx(0.1002)
    assert tf.ghost_temp_left(0.0, 0.0, 1.0, 0.01, 0.2) == 0.0
    # adiabatic limit
    assert tf.ghost_temp_left(0.3, 0.1, 1.0, 0.01, 0.0) == pytest.approx(0.2)
    with pytest.raises(tf.ModelError):
        tf.ghost_temp_left(0.1, 0.1, 0.0, 0.01, 0.2)


def test_ghost_temp_right_example():
    assert tf.ghost_temp_right(0.25, 1.0, 0.01, 0.2) == pytest.approx(0.25 / 1.002)
    assert tf.ghost_temp_right(0.0, 1.0, 0.01, 0.2) == 0.0
    assert tf.ghost_temp_right(0.4, 1.0, 0.01, 0.0) == pytest.approx(0.4)
    with pytest.raises(tf.ModelError):
        tf.ghost_temp_right(0.1, -0.1, 0.01, 0.2)


def test_source_central_linear_potential():
    # mu = x, sigma = gamma: interior rows get gamma*tau*h, boundaries half
    mesh = tf.build_mesh(10)
    model = paper_example_model()
    pot = mesh.nodes
    alpha = np.zeros(11)
    for j in range(1, 10):
        val = tf.source_term(alpha, pot, j, mesh, model, TAU, tf.CORRECTED)
        assert val == pytest.approx(0.1 * TAU * mesh.h, rel=1e-13)
    for j in (0, 10):
        val = tf.source_term(alpha, pot, j, mesh, model, TAU, tf.CORRECTED)
        assert val == pytest.approx(0.05 * TAU * mesh.h, rel=1e-13)


def test_source_constant_potential():
    # constant potential: central source vanishes, the literal form does not
    mesh = tf.build_mesh(8)
    model = constant_model(1.0, 0.5)
    pot = np.full(9, 0.3)
    alpha = np.zeros(9)
    central = tf.source_term(alpha, pot, 4, mesh, model, TAU, tf.CORRECTED)
    assert central == 0.0
    literal = tf.source_term(alpha, pot, 4, mesh, model, TAU, tf.PAPER_LITERAL)
    assert literal == pytest.approx((TAU / mesh.h) * 0.5 * 0.3**2)


def test_source_literal_row0():
    # mu_0 = 0, flux_left = 1: (tau/h) * sigma * h^2 = tau*h*sigma
    mesh = tf.build_mesh(10)
    model = constant_model(1.0, 0.7)
    mu = np.zeros(11)
    val = tf.source_term(np.zeros(11), mu, 0, mesh, model,
                         TAU, tf.PAPER_LITERAL)
    assert val == pytest.approx(TAU * mesh.h * 0.7)


def test_source_vector_matches_scalar_op():
    rng = np.random.default_rng(9)
    mesh = tf.build_mesh(12)
    model = paper_example_model()
    alpha = rng.uniform(0, 0.3, 13)
    mu = rng.uniform(-1, 1, 13)
    for variant in (tf.CORRECTED, tf.PAPER_LITERAL,
                    tf.SchemeVariant("paper_literal", "central"),
                    tf.SchemeVariant("corrected", "paper_literal")):
        vec = tf.joule_source_vector(alpha, mu, mesh, model,
                                     TAU, variant)
        scal = [tf.source_term(alpha, mu, j, mesh, model,
                               TAU, variant) for j in range(len(vec))]
        np.testing.assert_allclose(vec, scal, atol=0.0)


def test_source_rejects_bad_row():
    mesh = tf.build_mesh(5)
    model = paper_example_model()
    with pytest.raises(ValueError):
        tf.source_term(np.zeros(6), np.zeros(6), 6, mesh,
                       model, TAU, tf.CORRECTED)
    with pytest.raises(ValueError):
        tf.source_term(np.zeros(6), np.zeros(6), 5, mesh,
                       model, TAU, tf.PAPER_LITERAL)


def test_literal_interior_rows_collapse_to_benchmark_coefficients():
    # with k = 1 the interior triple is (a1, b1, a1)
    mesh = tf.build_mesh(100)
    model = paper_example_model()
    state = state_from(np.zeros(101))
    pot = mesh.nodes
    system = tf.assemble_temperature(state, pot, mesh, model, TAU, BETA,
                                     tf.PAPER_LITERAL)
    for j in range(1, 99):
        assert system.sub[j - 1] == pytest.approx(A1, rel=1e-14)
        assert system.main[j] == pytest.approx(B1, rel=1e-14)
        assert system.sup[j] == pytest.approx(A1, rel=1e-14)
    assert A1 == pytest.approx(-9.998333, abs=1e-6)
    assert B1 == pytest.approx(20.006667, abs=1e-6)


def test_literal_and_corrected_interior_rows_agree_at_constant_k():
    rng = np.random.default_rng(2)
    mesh = tf.build_mesh(100)
    model = paper_example_model()
    alpha = rng.uniform(0, 0.3, 101)
    state = state_from(alpha)
    pot = tf.solve_potential(alpha, mesh, model, tf.CORRECTED)
    lit = tf.assemble_temperature(state, pot, mesh, model, TAU, BETA,
                                  tf.SchemeVariant("paper_literal", "central"))
    cor = tf.assemble_temperature(state, pot, mesh, model, TAU, BETA,
                                  tf.CORRECTED)
    for j in range(1, 99):
        assert lit.sub[j - 1] == pytest.approx(cor.sub[j - 1], abs=1e-14)
        assert lit.main[j] == pytest.approx(cor.main[j], abs=1e-14)
        assert lit.sup[j] == pytest.approx(cor.sup[j], abs=1e-14)


def test_tau_zero_assembly_is_pure_mass_matrix():
    # with tau = 0 the stiffness, Robin and source terms all vanish
    mesh = tf.build_mesh(10)
    model = paper_example_model()
    state = state_from(np.zeros(11))
    system = tf.assemble_temperature(state, mesh.nodes, mesh,
                                     model, 0.0, BETA, tf.CORRECTED)
    h = mesh.h
    const = np.full(11, 0.7)
    applied = system.dense() @ const
    np.testing.assert_allclose(applied[1:-1], h * 0.7, rtol=1e-13)
    np.testing.assert_allclose(applied[[0, -1]], 0.5 * h * 0.7, rtol=1e-13)
    assert system.main[5] == pytest.approx(2 * h / 3, abs=0.0)
    assert system.sub[4] == pytest.approx(h / 6, abs=0.0)


def test_constant_state_is_stationary_under_pure_neumann():
    # k = 1, beta = 0, zero source: a constant profile does not move
    mesh = tf.build_mesh(20)
    model = constant_model(1.0, 0.0)
    state = state_from(np.full(21, 0.37))
    pot = np.zeros(21)
    new = tf.solve_temperature(state, pot, mesh, model, TAU, 0.0, tf.CORRECTED)
    np.testing.assert_allclose(new.alpha, 0.37, atol=1e-13)
    assert new.time == pytest.approx(TAU)
    np.testing.assert_array_equal(new.alpha_prev, state.alpha)


def test_lagging_discipline_with_counting_model():
    # every k(.) evaluation must use alpha^n or alpha^{n-1} values only
    probed = []

    def counting_k(u):
        probed.append(np.copy(u))
        return np.full_like(np.asarray(u, float), 1.0)

    model = tf.CoefficientModel(
        thermal_conductivity=counting_k,
        electrical_conductivity=lambda u: np.full_like(np.asarray(u, float), 0.1),
        flux_left=1.0, flux_right=1.0)
    mesh = tf.build_mesh(10)
    alpha_now = np.linspace(0.1, 0.2, 11)
    alpha_prev = np.linspace(1.1, 1.2, 11)
    state = state_from(alpha_now, alpha_prev)
    ghost_now = tf.ghost_temp_left(alpha_now[1], alpha_now[0], 1.0, mesh.h, BETA)
    allowed = set(np.round(np.concatenate([alpha_now, alpha_prev,
                                           [ghost_now]]), 12))
    tf.assemble_temperature(state, mesh.nodes, mesh, model,
                            TAU, BETA, tf.PAPER_LITERAL)
    seen = set()
    for arr in probed:
        seen.update(np.round(np.atleast_1d(arr), 12).tolist())
    assert seen <= allowed


def test_assembly_is_deterministic():
    rng = np.random.default_rng(23)
    mesh = tf.build_mesh(30)
    model = paper_example_model()
    state = state_from(rng.uniform(0, 0.3, 31))
    pot = rng.uniform(-1, 1, 31)
    a = tf.assemble_temperature(state, pot, mesh, model, TAU, BETA, tf.CORRECTED)
    b = tf.assemble_temperature(state, pot, mesh, model, TAU, BETA, tf.CORRECTED)
    for name in ("sub", "main", "sup", "rhs"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_zero_state_stays_zero_without_source():
    mesh = tf.build_mesh(10)
    model = constant_model(1.0, 0.0)
    state = tf.initial_temperature(mesh)
    pot = np.zeros(11)
    for variant in (tf.CORRECTED, tf.PAPER_LITERAL):
        new = tf.solve_temperature(state, pot, mesh, model, TAU, BETA, variant)
        np.testing.assert_array_equal(new.alpha, np.zeros(11))


def test_first_step_positive_and_matches_dense_oracle(fig1_config):
    mesh = fig1_config.build_mesh()
    model = fig1_config.build_model()
    state = tf.initial_temperature(mesh)
    pot = tf.solve_potential(state.alpha, mesh, model, tf.CORRECTED)
    system = tf.assemble_temperature(state, pot, mesh, model,
                                     fig1_config.tau, fig1_config.beta,
                                     tf.CORRECTED)
    new = tf.solve_temperature(state, pot, mesh, model, fig1_config.tau,
                               fig1_config.beta, tf.CORRECTED)
    assert np.all(new.alpha[1:-1] > 0.0)
    np.testing.assert_allclose(new.alpha, tf.dense_solve_oracle(system),
                               atol=1e-13)


def test_literal_solve_writes_back_alpha_n(fig1_config):
    mesh = fig1_config.build_mesh()
    model = fig1_config.build_model()
    rng = np.random.default_rng(4)
    state = state_from(rng.uniform(0, 0.3, 101))
    pot = tf.solve_potential(state.alpha, mesh, model, tf.CORRECTED)
    new = tf.solve_temperature(state, pot, mesh, model, fig1_config.tau,
                               fig1_config.beta,
                               tf.SchemeVariant("paper_literal", "central"))
    k_now = tf.eval_k(model, state.alpha[-1])
    expected = tf.ghost_temp_right(new.alpha[-2], k_now, mesh.h,
                                   fig1_config.beta)
    assert new.alpha[-1] == expected


def test_nan_potential_aborts_with_numerical_failure():
    mesh = tf.build_mesh(5)
    model = paper_example_model()
    bad = np.full(6, np.nan)
    with pytest.raises(tf.NumericalFailureError):
        tf.assemble_temperature(state_from(np.zeros(6)), bad, mesh, model,
                                TAU, BETA, tf.CORRECTED)
