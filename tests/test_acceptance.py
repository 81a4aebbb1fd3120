"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 2 and 5 encode contractual expectations that the
implemented schemes provably cannot meet; they are kept faithful to the
contract and fail with the measured numbers (see README and the test
messages for the analysis).
"""

import dataclasses
import math

import numpy as np
import pytest

import thermistor_fem as tf
from helpers import random_dominant_system
from conftest import constant_model

BETA, GAMMA, TAU = 0.2, 0.1, 0.1

FIG1 = tf.SimulationConfig(
    n_elements=100, tau=TAU, beta=BETA,
    model=tf.ModelSpec("paper_example", {"gamma": GAMMA}),
    flux_left=1.0, flux_right=1.0, t_max=200.0,
    variant=tf.CORRECTED, steady_tolerance=1e-8, record_every=1)


def _report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)


@pytest.fixture(scope="module")
def fig1_run() -> tf.SimulationResult:
    return tf.run(FIG1)


def test_criterion_1_benchmark_reproduction(fig1_run):
    result = fig1_run
    steady_ok = result.steady_reached and result.steady_time < 200.0
    maxes = np.array([float(s.temperature.max()) for s in result.snapshots])
    monotone_ok = bool((np.diff(maxes) >= 0.0).all())
    err = tf.steady_state_error(result, BETA, GAMMA)
    profile_ok = err <= 1e-3
    peak = float(result.final_profile.max())
    peak_ok = abs(peak - 0.2625) <= 1e-3
    ok = steady_ok and monotone_ok and profile_ok and peak_ok
    _report(1, ok, "benchmark steady state (N=100, tau=0.1, beta=0.2, gamma=0.1)",
            f"t_steady={result.steady_time}, err={err:.3e}, max={peak:.6f}")
    assert steady_ok, "no steady state before t=200"
    assert monotone_ok, "spatial maximum not nondecreasing"
    assert profile_ok, f"steady profile error {err:.3e} > 1e-3"
    assert peak_ok, f"max steady temperature {peak} not within 0.2625 +/- 1e-3"


def test_criterion_2_reduced_vs_coupled_equivalence(fig1_run):
    reduced = tf.run_reduced(FIG1)
    coupled = fig1_run
    red_by_time = {s.time: s.temperature for s in reduced.snapshots}
    common = [s for s in coupled.snapshots if s.time in red_by_time]
    assert len(common) > 2, "no common recorded times to compare"
    worst = 0.0
    for snap in common:
        other = red_by_time[snap.time]
        dev = float(np.max(np.abs(snap.temperature[1:-1] - other[1:-1])))
        worst = max(worst, dev)
    ok = worst <= 1e-8
    _report(2, ok, "reduced scheme matches the coupled corrected run on interior nodes",
            f"max interior deviation {worst:.3e} vs 1e-8 over {len(common)} times")
    assert ok, (
        f"reduced and coupled trajectories deviate by {worst:.3e} on interior "
        "nodes (required <= 1e-8). The reduced scheme's left-boundary row "
        "(ghost closure with the (h*beta/k - 1) factor) is an inconsistent "
        "discretisation of the Robin condition: it pins alpha_0 toward "
        "2/3*alpha_1 instead of enforcing the flux balance, so its steady "
        "state (max ~0.0432) structurally differs from the corrected weak-"
        "form scheme's (max ~0.2625). No variant pairing can close a gap of "
        "this size; the two schemes only share interior row equations, which "
        "is verified green in test_simulator.py.")


def test_criterion_3_linear_potential_recovery():
    worst = 0.0
    for n in (4, 16, 100):
        mesh = tf.build_mesh(n)
        model = constant_model(1.0, 1.0)
        pot = tf.solve_potential(tf.eval_sigma(model, np.zeros(n + 1)), mesh,
                                 model, tf.CORRECTED)
        worst = max(worst, float(np.max(np.abs((pot - pot[0]) - mesh.nodes))))
    ok = worst <= 1e-10
    _report(3, ok, "corrected potential recovers mu_j - mu_0 = x_j for N in {4,16,100}",
            f"max deviation {worst:.3e}")
    assert ok


def test_criterion_4_benchmark_coefficient_fidelity():
    mesh = tf.build_mesh(100)
    h = mesh.h
    a1 = h / 6 - TAU / h
    b1 = 2 * h / 3 + 2 * TAU / h
    model = tf.ModelSpec("paper_example", {"gamma": GAMMA}).build(1.0, 1.0)
    rng = np.random.default_rng(12)
    alpha = rng.uniform(0.0, 0.3, 101)
    state = tf.TemperatureState(alpha=alpha, time=0.0)
    sigma = tf.eval_sigma(model, alpha)
    pot = tf.solve_potential(sigma, mesh, model, tf.CORRECTED)
    variant = tf.SchemeVariant("paper_literal", "paper_literal")
    system = tf.assemble_temperature(state, pot, mesh, model, TAU, BETA, variant)

    interior_ok = all(
        math.isclose(system.sub[j - 1], a1, rel_tol=1e-14)
        and math.isclose(system.main[j], b1, rel_tol=1e-14)
        and math.isclose(system.sup[j], a1, rel_tol=1e-14)
        for j in range(1, 99))
    values_ok = (abs(a1 - (-9.998333)) <= 1e-5
                 and abs(b1 - 20.006667) <= 1e-5)

    # boundary rows, symbol for symbol at k = 1
    src = tf.joule_source_vector(sigma, pot, mesh, model, TAU, variant)
    row0_ok = (
        math.isclose(system.main[0], a1 * (BETA * h - 1) + b1 - TAU * BETA,
                     rel_tol=1e-14)
        and math.isclose(system.sup[0], 2 * a1, rel_tol=1e-14)
        and math.isclose(system.rhs[0],
                         (h / 2) * (1 + BETA * h / 3) * alpha[0]
                         + (h / 3) * alpha[1] + src[0], rel_tol=1e-13))
    rowN_ok = (
        math.isclose(system.sub[98], a1, rel_tol=1e-14)
        and math.isclose(system.main[99], b1 + a1 / (BETA * h + 1), rel_tol=1e-14)
        and math.isclose(system.rhs[99],
                         (h / 6) * alpha[98]
                         + (h / 6) * (4 + 1 / (1 + BETA * h)) * alpha[99]
                         + src[99], rel_tol=1e-13))
    ok = interior_ok and values_ok and row0_ok and rowN_ok
    _report(4, ok, "literal assembly reproduces the benchmark coefficients at k=1",
            f"a1={a1:.6f}, b1={b1:.6f}")
    assert interior_ok, "interior rows are not (a1, b1, a1)"
    assert values_ok
    assert row0_ok, "row 0 does not match the benchmark formula"
    assert rowN_ok, "row N-1 does not match the benchmark formula"


def test_criterion_5_convergence_order():
    config = dataclasses.replace(FIG1, n_elements=50, steady_tolerance=1e-10)
    pairs = tf.convergence_study(config, 3)
    errs = [e for _, e in pairs]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = all(1.8 <= o <= 2.2 for o in orders)
    _report(5, ok, "steady-state error order in [1.8, 2.2] across N=50,100,200",
            "errors=" + ",".join(f"{e:.3e}" for e in errs)
            + " orders=" + ",".join(f"{o:.3f}" for o in orders))
    assert ok, (
        f"observed orders {orders} outside [1.8, 2.2] (errors {errs}). "
        "The corrected scheme is nodally exact for this constant-coefficient "
        "benchmark: the P1 steady operator with exact point Robin terms and "
        "an exactly integrated constant load reproduces the quadratic steady "
        "profile at every node (piecewise-linear Green's function argument), "
        "so the measured error is the steady-detection leftover "
        "(~tolerance/lambda_1 ~ 2.5e-10), identical at every N, and no "
        "h-refinement order is observable at the nodes.")


def test_criterion_6_solver_oracle_equivalence(fig1_run):
    rng = np.random.default_rng(2024)
    worst_ratio = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 65))
        system = random_dominant_system(rng, size)
        x_thomas = tf.thomas_solve(system)
        x_dense = tf.dense_solve_oracle(system)
        bound = 1e-10 * (1.0 + float(np.max(np.abs(x_dense))))
        worst_ratio = max(worst_ratio,
                          float(np.max(np.abs(x_thomas - x_dense))) / bound)
    solver_ok = worst_ratio <= 1.0
    diag = fig1_run.diagnostics
    residuals = diag.potential_residuals + diag.temperature_residuals
    residual_ok = len(diag.potential_residuals) > 0 \
        and len(diag.temperature_residuals) > 0 and max(residuals) <= 1e-10
    ok = solver_ok and residual_ok
    _report(6, ok, "thomas vs dense oracle on 1000 systems; run residuals bounded",
            f"worst oracle ratio {worst_ratio:.3f}, "
            f"worst run residual {max(residuals):.3e}")
    assert solver_ok
    assert residual_ok


def test_criterion_7_invariant_suite(fig1_run):
    checks = {}

    mesh10 = tf.build_mesh(10)
    xs = np.linspace(0.0, 1.0, 101)
    checks["partition_of_unity"] = all(
        abs(sum(tf.eval_hat(mesh10, j, x) for j in range(11)) - 1.0) <= 1e-12
        for x in xs)

    eps = np.finfo(float).eps
    checks["mass_row_sum"] = all(
        abs(sum(tf.mass_row(tf.build_mesh(n), 1)) - 1.0 / n) <= 4 * eps / n
        for n in (3, 10, 100, 127))

    rng = np.random.default_rng(77)
    model = constant_model(1.0, 0.8)
    sigma = tf.eval_sigma(model, rng.uniform(0.0, 0.5, 13))
    mu = rng.uniform(-1.0, 1.0, 13)
    mesh12 = tf.build_mesh(12)
    base = tf.joule_source_vector(sigma, mu, mesh12, model,
                                  TAU, tf.CORRECTED)
    shifted = tf.joule_source_vector(sigma, mu + 0.37, mesh12,
                                     model, TAU, tf.CORRECTED)
    checks["gauge_invariance"] = float(np.max(np.abs(shifted - base))) <= 1e-12

    zero_cfg = dataclasses.replace(
        FIG1, n_elements=20,
        model=tf.ModelSpec("constant", {"k0": 1.0, "sigma0": 0.0}))
    zero_run = tf.run(zero_cfg)
    checks["zero_ic_preserved"] = bool(np.all(zero_run.final_profile == 0.0))

    mesh16 = tf.build_mesh(16)
    lit_model = constant_model(1.0, 1.0, flux_left=0.7, flux_right=1.3)
    pot = tf.solve_potential(np.ones(17), mesh16, lit_model, tf.PAPER_LITERAL,
                             sigma_ghost_left=1.0)
    checks["ghost_identities"] = (
        pot[-1] == mesh16.h * 1.3 + pot[-2]
        and tf.ghost_potential_left(pot[0], pot[1], mesh16.h, 0.7)
        == pot[1] - pot[0] - mesh16.h * 0.7)

    restart = tf.TemperatureState(alpha=fig1_run.final_profile.copy(),
                                  time=0.0)
    again = tf.run(FIG1, initial_state=restart)
    checks["steady_idempotence"] = (again.steady_reached
                                    and again.steady_time == pytest.approx(TAU))

    ok = all(checks.values())
    _report(7, ok, "module invariant suite",
            ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
    assert ok, f"failed invariants: {[k for k, v in checks.items() if not v]}"


def test_criterion_8_literal_potential_characterisation():
    from test_potential import LITERAL_N4_MU, LITERAL_N4_MU_N

    mesh16 = tf.build_mesh(16)
    model = constant_model(1.0, 1.0)
    pot16 = tf.solve_potential(np.ones(17), mesh16, model, tf.PAPER_LITERAL,
                               sigma_ghost_left=1.0)
    deviation = float(np.max(np.abs((pot16 - pot16[0]) - mesh16.nodes)))
    nonlinear_ok = deviation > 0.01

    mesh4 = tf.build_mesh(4)
    pot4 = tf.solve_potential(np.ones(5), mesh4, model, tf.PAPER_LITERAL,
                              sigma_ghost_left=1.0)
    fixture_ok = (np.allclose(pot4[:4], LITERAL_N4_MU, atol=1e-12)
                  and abs(pot4[4] - LITERAL_N4_MU_N) <= 1e-12)
    ok = nonlinear_ok and fixture_ok
    _report(8, ok, "literal potential demonstrably non-linear and fixture-pinned",
            f"N=16 deviation {deviation:.4f} > 0.01")
    assert nonlinear_ok, "literal potential unexpectedly close to linear"
    assert fixture_ok, "N=4 characterisation fixture drifted"
