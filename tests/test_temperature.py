import numpy as np
import pytest

import thermistor_fem as tf
from conftest import constant_model

H, TAU, BETA = 0.01, 0.1, 0.2
A1 = H / 6 - TAU / H          # -9.998333...
B1 = 2 * H / 3 + 2 * TAU / H  # 20.006666...


def paper_example_model(gamma=0.1):
    return tf.ModelSpec("paper_example", {"gamma": gamma}).build(1.0, 1.0)


def state_from(alpha, time=0.0):
    return tf.TemperatureState(alpha=np.asarray(alpha, dtype=float), time=time)


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
    src = tf.joule_source_vector(np.full(11, 0.1), pot, mesh, model, TAU,
                                 tf.CORRECTED)
    for j in range(1, 10):
        assert src[j] == pytest.approx(0.1 * TAU * mesh.h, rel=1e-13)
    for j in (0, 10):
        assert src[j] == pytest.approx(0.05 * TAU * mesh.h, rel=1e-13)


def test_source_constant_potential():
    # constant potential: central source vanishes, the literal form does not
    mesh = tf.build_mesh(8)
    model = constant_model(1.0, 0.5)
    pot = np.full(9, 0.3)
    sigma = np.full(9, 0.5)
    central = tf.joule_source_vector(sigma, pot, mesh, model, TAU,
                                     tf.CORRECTED)[4]
    assert central == 0.0
    literal = tf.joule_source_vector(sigma, pot, mesh, model, TAU,
                                     tf.PAPER_LITERAL)[4]
    assert literal == pytest.approx((TAU / mesh.h) * 0.5 * 0.3**2)


def test_source_literal_row0():
    # mu_0 = 0, flux_left = 1: (tau/h) * sigma * h^2 = tau*h*sigma
    mesh = tf.build_mesh(10)
    model = constant_model(1.0, 0.7)
    mu = np.zeros(11)
    val = tf.joule_source_vector(np.full(11, 0.7), mu, mesh, model, TAU,
                                 tf.PAPER_LITERAL)[0]
    assert val == pytest.approx(TAU * mesh.h * 0.7)


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
    pot = tf.solve_potential(tf.eval_sigma(model, alpha), mesh, model,
                             tf.CORRECTED)
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
    new = tf.solve_temperature(state, np.zeros(21), pot, tf.TemperatureOperator(
        mesh, model, TAU, 0.0, tf.CORRECTED))
    np.testing.assert_allclose(new.alpha, 0.37, atol=1e-13)
    assert new.time == pytest.approx(TAU)


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
        new = tf.solve_temperature(state, np.zeros(11), pot,
                                   tf.TemperatureOperator(mesh, model, TAU,
                                                          BETA, variant))
        np.testing.assert_array_equal(new.alpha, np.zeros(11))


def test_first_step_positive_and_matches_dense_oracle(fig1_config):
    mesh = fig1_config.build_mesh()
    model = fig1_config.build_model()
    state = tf.initial_temperature(mesh)
    sigma = tf.eval_sigma(model, state.alpha)
    pot = tf.solve_potential(sigma, mesh, model, tf.CORRECTED)
    system = tf.assemble_temperature(state, pot, mesh, model,
                                     fig1_config.tau, fig1_config.beta,
                                     tf.CORRECTED)
    new = tf.solve_temperature(state, sigma, pot, tf.TemperatureOperator(
        mesh, model, fig1_config.tau, fig1_config.beta, tf.CORRECTED))
    assert np.all(new.alpha[1:-1] > 0.0)
    np.testing.assert_allclose(new.alpha, tf.dense_solve_oracle(system),
                               atol=1e-13)


def test_literal_solve_writes_back_alpha_n(fig1_config):
    mesh = fig1_config.build_mesh()
    model = fig1_config.build_model()
    rng = np.random.default_rng(4)
    state = state_from(rng.uniform(0, 0.3, 101))
    sigma = tf.eval_sigma(model, state.alpha)
    pot = tf.solve_potential(sigma, mesh, model, tf.CORRECTED)
    new = tf.solve_temperature(state, sigma, pot, tf.TemperatureOperator(
        mesh, model, fig1_config.tau, fig1_config.beta,
        tf.SchemeVariant("paper_literal", "central")))
    expected = tf.ghost_temp_right(new.alpha[-2], model.k, mesh.h,
                                   fig1_config.beta)
    assert new.alpha[-1] == expected


def test_nan_potential_aborts_with_numerical_failure():
    mesh = tf.build_mesh(5)
    model = paper_example_model()
    bad = np.full(6, np.nan)
    with pytest.raises(tf.NumericalFailureError):
        tf.assemble_temperature(state_from(np.zeros(6)), bad, mesh, model,
                                TAU, BETA, tf.CORRECTED)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_names_the_phase(bad):
    op = tf.TemperatureOperator(tf.build_mesh(40), paper_example_model(),
                                TAU, BETA, tf.CORRECTED)
    source = np.ones(41)
    source[33] = bad
    sink = []
    with pytest.raises(tf.NumericalFailureError) as exc:
        op.advance(np.zeros(41), source, sink)
    assert str(exc.value) == "temperature solve failed: non-finite entries in rhs"
    assert sink == []


@pytest.mark.parametrize("variant", [
    tf.CORRECTED, tf.PAPER_LITERAL,
    tf.SchemeVariant("paper_literal", "central"),
    tf.SchemeVariant("corrected", "paper_literal"),
], ids=["corrected", "paper_literal", "literal_central", "corrected_literal"])
def test_held_operator_matches_assembly(variant):
    # the rows a run holds and the right-hand side it builds per step are
    # those of assemble_temperature, bit for bit
    rng = np.random.default_rng(41)
    mesh = tf.build_mesh(40)
    model = tf.ModelSpec("rational_sigma", {"k0": 1.3, "sigma0": 0.7,
                                            "lambda": 2.0}).build(1.0, 0.8)
    held = tf.TemperatureOperator(mesh, model, TAU, BETA, variant)
    for _ in range(5):
        alpha = rng.uniform(0.0, 0.5, 41)
        mu = rng.uniform(-1.0, 1.0, 41)
        oracle = tf.assemble_temperature(state_from(alpha), mu, mesh, model,
                                         TAU, BETA, variant)
        rhs = held.mass(alpha) + held.source(tf.eval_sigma(model, alpha), mu)
        np.testing.assert_array_equal(rhs, oracle.rhs)
        for name in ("sub", "main", "sup"):
            np.testing.assert_array_equal(getattr(held.matrix, name),
                                          getattr(oracle, name))


@pytest.mark.parametrize("n", [3, 4, 100, 1001])
@pytest.mark.parametrize("variant", [tf.CORRECTED, tf.PAPER_LITERAL],
                         ids=["corrected", "paper_literal"])
def test_held_mass_rows_are_the_published_ones(variant, n):
    # M is stated once, in mass_matrix: its rows are the published mass
    # rows, its product is the slice formulas the right-hand side was built
    # from, and the corrected step rows built from it keep their bits.  With
    # this k and beta, summing the corrected diagonal in another order
    # changes its bits at some n.
    mesh = tf.build_mesh(n)
    h, k, beta = mesh.h, 2.9, 1.7
    op = tf.TemperatureOperator(mesh, constant_model(k, 0.7), TAU, beta,
                                variant)
    literal = variant.stiffness == "paper_literal"
    size = n if literal else n + 1
    if literal:
        first = ((h / 2.0) * (1.0 + h * beta / (3.0 * k)), h / 3.0)
        last = (h / 6.0, (h / 6.0) * (4.0 + k / (beta * h + k)))
    else:
        first, last = (h / 3.0, h / 6.0), (h / 6.0, h / 3.0)
    published = np.zeros((size, size))
    for j in range(1, size - 1):
        published[j, j - 1:j + 2] = (h / 6.0, 2.0 * h / 3.0, h / 6.0)
    published[0, :2] = first
    published[-1, -2:] = last
    np.testing.assert_array_equal(op.mass_matrix.dense(), published)

    rng = np.random.default_rng(n)
    for _ in range(3):
        alpha = rng.standard_normal(n + 1) * 10.0 ** rng.uniform(-4, 4, n + 1)
        a = alpha[:size]
        slices = np.empty(size)
        slices[1:-1] = (h / 6.0) * a[:-2] + (2.0 * h / 3.0) * a[1:-1] \
            + (h / 6.0) * a[2:]
        if literal:
            slices[0] = (h / 2.0) * (1.0 + h * beta / (3.0 * k)) * a[0] \
                + (h / 3.0) * a[1]
            slices[-1] = (h / 6.0) * a[-2] \
                + (h / 6.0) * (4.0 + k / (beta * h + k)) * a[-1]
        else:
            slices[0] = (h / 3.0) * a[0] + (h / 6.0) * a[1]
            slices[-1] = (h / 6.0) * a[-2] + (h / 3.0) * a[-1]
        np.testing.assert_array_equal(op.mass(alpha), slices)

    if not literal:
        k_half = 0.5 * (k + k)
        main = np.full(n + 1, 2.0 * h / 3.0)
        main[1:n] += TAU * (k_half + k_half) / h
        main[0] = main[n] = h / 3.0 + TAU * k_half / h + TAU * beta
        off = np.full(n, h / 6.0) - TAU * k_half / h
        np.testing.assert_array_equal(op.matrix.main, main)
        np.testing.assert_array_equal(op.matrix.sub, off)
        np.testing.assert_array_equal(op.matrix.sup, off)


def fig1_operator(n=100, variant=tf.CORRECTED):
    return tf.TemperatureOperator(tf.build_mesh(n), paper_example_model(),
                                  TAU, BETA, variant)


@pytest.mark.parametrize("variant", [tf.CORRECTED, tf.PAPER_LITERAL],
                         ids=["corrected", "paper_literal"])
def test_block_records_the_residuals_a_list_records(variant):
    # 100 steps through blocks of 81 rows (m = 101) or 81 (m = 100), with
    # a known value between steps as a run's potential residual is; signed
    # data, so max|rhs| is not max rhs
    rng = np.random.default_rng(3)
    alphas = rng.uniform(-0.3, 0.3, (100, 101))
    sources = rng.uniform(-1e-3, 1e-3, (100, 101))
    per_step, values = [], []
    block = tf.temperature.ResidualBlock(values)
    held, fresh = fig1_operator(variant=variant), fig1_operator(variant=variant)
    for i, (alpha, source) in enumerate(zip(alphas, sources)):
        per_step.append(float(i))
        block.append(float(i))
        x = held.advance(alpha, source[:held.matrix.size], block)
        y = fresh.advance(alpha, source[:fresh.matrix.size], per_step)
        assert x.tobytes() == y.tobytes()
        block.check()
    assert values[-1] is None
    block.flush()
    assert values == per_step
    assert per_step[1::2] != [None] * 100


def test_block_check_refuses_a_non_finite_step_as_a_list_sink_does():
    # rhs 1e308 is finite, but x ~ rhs / h overflows; an infinite source
    # makes the rhs non-finite
    for source, message in ((np.full(101, 1e308), "non-finite solution"),
                            (np.full(101, np.inf), "non-finite entries in rhs")):
        op = fig1_operator()
        values = []
        block = tf.temperature.ResidualBlock(values)
        op.advance(np.zeros(101), np.ones(101), block)
        block.append(0.5)
        op.advance(np.zeros(101), source, block)
        with pytest.raises(tf.NumericalFailureError) as exc:
            block.check()
        assert str(exc.value) == f"temperature solve failed: {message}"
        with pytest.raises(tf.NumericalFailureError) as ref:
            fig1_operator().advance(np.zeros(101), source, [])
        assert str(exc.value) == str(ref.value)
        # the failing step's residual is dropped, the others kept
        block.flush()
        expected = []
        fig1_operator().advance(np.zeros(101), np.ones(101), expected)
        assert values == expected + [0.5]


def test_block_check_passes_a_finite_step():
    op = fig1_operator()
    values = []
    block = tf.temperature.ResidualBlock(values)
    block.check()  # nothing held yet
    op.advance(np.zeros(101), np.ones(101), block)
    block.check()
    assert values == [None]


def test_large_systems_take_each_residual_at_once():
    # m = 1025 > CELLS // 8: the block sink records at once
    assert tf.temperature.CELLS // 1025 < 8 <= tf.temperature.CELLS // 1024
    values = []
    op = fig1_operator(n=1024)
    op.advance(np.zeros(1025), np.ones(1025),
               tf.temperature.ResidualBlock(values))
    assert len(values) == 1 and values[0] is not None
    assert fig1_operator(n=1023).advance(
        np.zeros(1024), np.ones(1024),
        tf.temperature.ResidualBlock(values)) is not None
    assert values[1] is None
