import warnings

import numpy as np
import pytest

import thermistor_fem as tf
from conftest import constant_model
from helpers import reference_thomas

# Characterisation fixture: the literal potential system at N=4, sigma = 1,
# unit fluxes, frozen from the dense elimination oracle (also derivable by
# hand).  The solved profile is nowhere near linear, which is the point.
LITERAL_N4_MU = np.array([-0.2, -0.05, -0.1, 0.15])
LITERAL_N4_MU_N = 0.4


def test_ghost_potential_left_examples():
    assert tf.ghost_potential_left(0.0, 0.1, 0.1, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert tf.ghost_potential_left(0.0, 0.0, 0.25, 0.0) == 0.0
    assert tf.ghost_potential_left(1.0, 1.0, 0.5, 2.0) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        tf.ghost_potential_left(0.0, 0.0, -0.1, 0.0)


def test_ghost_potential_right_examples():
    assert tf.ghost_potential_right(0.9, 0.1, 1.0) == pytest.approx(1.0)
    assert tf.ghost_potential_right(0.0, 0.25, 0.0) == 0.0
    assert tf.ghost_potential_right(-0.5, 0.25, 2.0) == pytest.approx(0.0)


def test_literal_row0_constant_sigma():
    # sigma = 1, h = 0.25, flux_left = 1: row 0 reads 6*mu_0 - 4*mu_1 = -1
    mesh = tf.build_mesh(4)
    model = constant_model(1.0, 1.0)
    system = tf.assemble_potential(np.ones(5), mesh, model, tf.PAPER_LITERAL,
                                   sigma_ghost_left=1.0)
    assert system.main[0] == pytest.approx(6.0)
    assert system.sup[0] == pytest.approx(-4.0)
    assert system.rhs[0] == pytest.approx(-1.0)


@pytest.mark.parametrize("n", [4, 16, 100])
def test_corrected_linear_recovery(n):
    mesh = tf.build_mesh(n)
    model = constant_model(1.0, 1.0)
    pot = tf.solve_potential(tf.eval_sigma(model, np.zeros(n + 1)), mesh,
                             model, tf.CORRECTED)
    assert pot[0] == 0.0  # gauge
    assert np.max(np.abs(pot - mesh.nodes)) <= 1e-12


@pytest.mark.parametrize("q", [1.0, 2.5])
def test_corrected_constant_slope_recovery(q):
    mesh = tf.build_mesh(16)
    model = constant_model(1.0, 3.0, flux_left=q, flux_right=q)
    pot = tf.solve_potential(tf.eval_sigma(model, np.zeros(17)), mesh, model,
                             tf.CORRECTED)
    slopes = np.diff(pot) / mesh.h
    assert np.max(np.abs(slopes - q)) <= 1e-10


def test_corrected_zero_flux_zero_gauge():
    mesh = tf.build_mesh(8)
    model = constant_model(1.0, 2.0, flux_left=0.0, flux_right=0.0)
    pot = tf.solve_potential(tf.eval_sigma(model, np.zeros(9)), mesh, model,
                             tf.CORRECTED)
    np.testing.assert_array_equal(pot, np.zeros(9))


@pytest.mark.parametrize("variant", [tf.CORRECTED, tf.PAPER_LITERAL])
def test_zero_conductivity_is_singular(variant):
    mesh = tf.build_mesh(6)
    model = constant_model(1.0, 0.0)
    with pytest.raises(tf.SingularSystemError):
        tf.solve_potential(tf.eval_sigma(model, np.zeros(7)), mesh, model,
                           variant, sigma_ghost_left=0.0)


@pytest.mark.parametrize("variant", [tf.CORRECTED, tf.PAPER_LITERAL])
def test_sigma_of_the_wrong_length_is_refused(variant):
    mesh = tf.build_mesh(6)
    with pytest.raises(ValueError, match="sigma must have length 7"):
        tf.solve_potential(np.ones(6), mesh, constant_model(1.0, 1.0),
                           variant, sigma_ghost_left=1.0)


def test_literal_fixture_n4():
    mesh = tf.build_mesh(4)
    model = constant_model(1.0, 1.0)
    pot = tf.solve_potential(np.ones(5), mesh, model, tf.PAPER_LITERAL,
                             sigma_ghost_left=1.0)
    np.testing.assert_allclose(pot[:4], LITERAL_N4_MU, atol=1e-12)
    assert pot[4] == pytest.approx(LITERAL_N4_MU_N, abs=1e-12)
    # cross-check the frozen values against the dense oracle
    system = tf.assemble_potential(np.ones(5), mesh, model, tf.PAPER_LITERAL,
                                   sigma_ghost_left=1.0)
    np.testing.assert_allclose(tf.dense_solve_oracle(system), LITERAL_N4_MU,
                               atol=1e-12)


def test_literal_ghost_identities_hold_exactly():
    mesh = tf.build_mesh(10)
    model = constant_model(1.0, 1.0, flux_left=0.7, flux_right=1.3)
    pot = tf.solve_potential(np.ones(11), mesh, model, tf.PAPER_LITERAL,
                             sigma_ghost_left=1.0)
    assert pot[-1] == mesh.h * model.flux_right + pot[-2]
    assert tf.ghost_potential_left(pot[0], pot[1], mesh.h, model.flux_left) \
        == pot[1] - pot[0] - mesh.h * model.flux_left
    assert pot[-1] == tf.ghost_potential_right(pot[-2], mesh.h, model.flux_right)


@pytest.mark.parametrize("n", [100, 2000, 2048])
def test_literal_potential_writes_mu_n_into_the_spare_entry(n):
    # mu_N lies past the N solved values, in the solve's spare entry, with
    # the bits of the solution with mu_N appended
    rng = np.random.default_rng(n)
    mesh = tf.build_mesh(n)
    model = constant_model(1.0, 1.0, 1.0, 0.8)
    sigma = rng.uniform(0.5, 1.5, n + 1)
    sink, reference_sink = [], []
    mu = tf.solve_potential(sigma, mesh, model, tf.PAPER_LITERAL,
                            sigma_ghost_left=1.1, residual_sink=sink)
    x = tf.checked_solve(tf.assemble_potential(
        sigma, mesh, model, tf.PAPER_LITERAL, sigma_ghost_left=1.1),
        "potential", reference_sink)
    expected = np.append(x, tf.ghost_potential_right(float(x[-1]), mesh.h,
                                                     model.flux_right))
    assert mu.shape == (n + 1,)
    assert mu.tobytes() == expected.tobytes()
    assert sink == reference_sink


def test_literal_assembly_needs_ghost():
    mesh = tf.build_mesh(4)
    model = constant_model(1.0, 1.0)
    with pytest.raises(ValueError):
        tf.assemble_potential(np.ones(5), mesh, model, tf.PAPER_LITERAL)


def test_corrected_residual_bound_for_compatible_data():
    mesh = tf.build_mesh(32)
    model = constant_model(1.0, 2.0)
    system = tf.assemble_potential(np.full(33, 2.0), mesh, model, tf.CORRECTED)
    x = tf.thomas_solve(system)
    assert tf.residual_norm(system, x) <= 1e-10 * (1.0 + np.max(np.abs(system.rhs)))


def rational_model(lam, flux_left=1.0, flux_right=1.3):
    return tf.ModelSpec("rational_sigma", {"k0": 1.0, "sigma0": 0.7,
                                           "lambda": lam}).build(flux_left,
                                                                 flux_right)


def test_first_integral_solves_the_assembled_system():
    # measured at N = 1000 over these draws: scaled residual 3.3e-13 and
    # deviation from the Thomas sweep 5.5e-12 of max|mu| (the system's
    # rows carry s/h, so both grow with N)
    rng = np.random.default_rng(30)
    for n, residual_bound, deviation_bound in ((10, 1e-14, 1e-14),
                                               (1000, 1e-12, 1e-11)):
        mesh = tf.build_mesh(n)
        for lam in (1.0, -0.5, 3.0):
            model = rational_model(lam)
            sigma = tf.eval_sigma(model, rng.uniform(0.0, 0.5, n + 1))
            mu = tf.solve_potential(sigma, mesh, model, tf.CORRECTED)
            system = tf.assemble_potential(sigma, mesh, model, tf.CORRECTED)
            scale = 1.0 + np.max(np.abs(system.rhs))
            assert tf.residual_norm(system, mu) / scale <= residual_bound
            expected = reference_thomas(system)
            assert np.max(np.abs(mu - expected)) \
                <= deviation_bound * np.max(np.abs(expected)), (n, lam)


def test_first_integral_defect_goes_to_the_sink():
    mesh = tf.build_mesh(1000)
    alpha = np.random.default_rng(31).uniform(0.0, 0.5, 1001)
    model = rational_model(1.0)
    sink = []
    tf.solve_potential(tf.eval_sigma(model, alpha), mesh, model, tf.CORRECTED,
                       residual_sink=sink)
    assert len(sink) == 1
    assert 0.0 <= sink[0] <= 1e-13  # measured 5.3e-14


def test_corrected_potential_never_reads_flux_left():
    mesh = tf.build_mesh(50)
    alpha = np.linspace(0.0, 0.3, 51)
    models = [rational_model(2.0, flux_left=q) for q in (1.3, 0.0, -7.0)]
    mus = [tf.solve_potential(tf.eval_sigma(m, alpha), mesh, m, tf.CORRECTED)
           for m in models]
    assert all(np.array_equal(mu, mus[0]) for mu in mus[1:])
    # the disagreement of the two boundary currents is measured instead
    assert tf.check_current_compatibility(tf.eval_sigma(models[1], alpha),
                                          models[1]) > 0.0


def test_first_integral_failures_name_row_and_phase():
    mesh = tf.build_mesh(8)
    # sigma vanishes at nodes 3 and 4, so element 3 carries no current
    gap = tf.CoefficientModel(
        k=1.0,
        electrical_conductivity=lambda u: np.where(np.asarray(u) > 0.5, 0.0, 1.0),
        flux_left=1.0, flux_right=1.0)
    alpha = np.zeros(9)
    alpha[3:5] = 1.0
    with pytest.raises(tf.SingularSystemError) as exc:
        tf.solve_potential(tf.eval_sigma(gap, alpha), mesh, gap, tf.CORRECTED)
    assert exc.value.row == 4
    assert str(exc.value).startswith("potential solve failed: ")
    # h * J / s_half overflows where sigma is tiny and the current is large
    steep = tf.CoefficientModel(
        k=1.0,
        electrical_conductivity=lambda u: np.where(np.asarray(u) > 0.5,
                                                   1e300, 1e-300),
        flux_left=1.0, flux_right=1.0)
    alpha = np.zeros(9)
    alpha[-1] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tf.NumericalFailureError,
                           match="potential solve failed: non-finite"):
            tf.solve_potential(tf.eval_sigma(steep, alpha), mesh, steep,
                               tf.CORRECTED)


def test_near_zero_conductivity_is_solved_not_refused():
    # sigma = 1e-20 at nodes 3 and 4, so element 3 conducts 1e-20 as well as
    # the others: the first integral gives a finite potential with a jump of
    # h J / 1e-20 there, where the assembled system's pivot rule refuses it
    mesh = tf.build_mesh(8)
    thin = tf.CoefficientModel(
        k=1.0,
        electrical_conductivity=lambda u: np.where(np.asarray(u) > 0.5,
                                                   1e-20, 1.0),
        flux_left=1.0, flux_right=1.0)
    alpha = np.zeros(9)
    alpha[3:5] = 1.0
    sigma = tf.eval_sigma(thin, alpha)
    mu = tf.solve_potential(sigma, mesh, thin, tf.CORRECTED)
    h = mesh.h
    assert np.isfinite(mu).all()
    np.testing.assert_allclose(np.diff(mu[:4]), [h, h, h / (0.5 + 0.5e-20)],
                               rtol=1e-15)
    np.testing.assert_allclose(mu[4] - mu[3], h / 1e-20, rtol=1e-15)
    # the later steps of h or 2h are below the rounding of mu_4 ~ 1.25e19
    np.testing.assert_allclose(mu[4:], mu[4], rtol=1e-15)
    system = tf.assemble_potential(sigma, mesh, thin, tf.CORRECTED)
    with pytest.raises(tf.SingularSystemError):
        tf.checked_solve(system, "potential")


def test_current_compatibility_examples():
    model = constant_model(1.0, 0.7)
    assert tf.check_current_compatibility(
        tf.eval_sigma(model, np.zeros(5)), model) == 0.0
    varying = tf.CoefficientModel(
        k=1.0,
        electrical_conductivity=lambda u: np.asarray(u, dtype=float),
        flux_left=1.0, flux_right=1.0)
    alpha = np.linspace(0.1, 0.2, 5)
    assert tf.check_current_compatibility(
        tf.eval_sigma(varying, alpha), varying) == pytest.approx(0.1)


def test_joule_source_gauge_invariance():
    # adding a constant to the potential leaves the central source unchanged
    rng = np.random.default_rng(5)
    mesh = tf.build_mesh(12)
    model = constant_model(1.0, 0.8)
    sigma = tf.eval_sigma(model, rng.uniform(0.0, 0.5, 13))
    mu = rng.uniform(-1.0, 1.0, 13)
    base = tf.joule_source_vector(sigma, mu, mesh, model,
                                  0.1, tf.CORRECTED)
    for c in (0.37, -2.0, 10.0):
        shifted = tf.joule_source_vector(sigma, mu + c, mesh,
                                         model, 0.1, tf.CORRECTED)
        assert np.max(np.abs(shifted - base)) <= 1e-12


def test_scheme_variant_validation():
    with pytest.raises(ValueError):
        tf.SchemeVariant(stiffness="bogus")
    with pytest.raises(ValueError):
        tf.SchemeVariant(source_quadrature="bogus")
