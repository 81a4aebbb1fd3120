import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import thermistor_fem as tf
from helpers import simpson


def test_build_mesh_n10():
    mesh = tf.build_mesh(10)
    assert mesh.h == pytest.approx(0.1, abs=0.0)
    np.testing.assert_allclose(mesh.nodes, np.arange(11) * 0.1, atol=1e-15)


def test_build_mesh_minimal():
    mesh = tf.build_mesh(3)
    assert mesh.h == pytest.approx(1.0 / 3.0, abs=0.0)
    assert mesh.n_nodes == 4


def test_build_mesh_rejects_small():
    with pytest.raises(tf.ConfigurationError):
        tf.build_mesh(2)


@pytest.mark.parametrize("n", [4.5, np.float64(4.0), 4.0, True, "10", None])
def test_build_mesh_refuses_a_non_integer(n):
    # the integer rule of SimulationConfig; these used to reach np.linspace
    with pytest.raises(tf.ConfigurationError,
                       match="^n_elements must be an integer, got "):
        tf.build_mesh(n)


@pytest.mark.parametrize("n", [np.int32(10), np.int64(10)])
def test_build_mesh_takes_a_numpy_integer(n):
    assert tf.build_mesh(n).nodes.tobytes() == tf.build_mesh(10).nodes.tobytes()


@pytest.mark.parametrize("n", [3, 7, 10, 100, 997])
def test_mesh_invariants(n):
    mesh = tf.build_mesh(n)
    eps = np.finfo(float).eps
    assert abs(mesh.h * n - 1.0) <= 4 * eps
    assert mesh.nodes[0] == 0.0
    assert mesh.nodes[-1] == 1.0
    assert np.all(np.diff(mesh.nodes) > 0)


def test_nodes_are_read_only():
    mesh = tf.build_mesh(5)
    with pytest.raises(ValueError):
        mesh.nodes[0] = 1.0


def test_hat_peak_and_edges():
    mesh = tf.build_mesh(10)
    for j in (0, 3, 10):
        assert tf.eval_hat(mesh, j, mesh.nodes[j]) == pytest.approx(1.0)
    assert tf.eval_hat(mesh, 3, mesh.nodes[2]) == pytest.approx(0.0, abs=1e-14)
    assert tf.eval_hat(mesh, 3, mesh.nodes[4]) == pytest.approx(0.0, abs=1e-14)


def test_hat_linearity_on_element():
    mesh = tf.build_mesh(10)
    mid = 0.5 * (mesh.nodes[3] + mesh.nodes[4])
    assert tf.eval_hat(mesh, 3, mid) == pytest.approx(0.5)


def test_hat_rejects_bad_arguments():
    mesh = tf.build_mesh(4)
    with pytest.raises(ValueError):
        tf.eval_hat(mesh, 5, 0.5)
    with pytest.raises(ValueError):
        tf.eval_hat(mesh, 2, 1.5)


def test_hat_support_containment():
    mesh = tf.build_mesh(8)
    for x in np.linspace(0, 1, 41):
        for j in range(9):
            lo = mesh.nodes[max(j - 1, 0)]
            hi = mesh.nodes[min(j + 1, 8)]
            if not lo <= x <= hi:
                assert tf.eval_hat(mesh, j, x) == 0.0


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_partition_of_unity(x):
    mesh = tf.build_mesh(10)
    total = sum(tf.eval_hat(mesh, j, x) for j in range(11))
    assert abs(total - 1.0) <= 1e-12


def test_hat_l2_norms_against_simpson():
    # integral of v_j^2 is 2h/3 for interior hats and h/3 for the half-hats
    mesh = tf.build_mesh(10)
    h = mesh.h
    for j, expected in ((0, h / 3), (4, 2 * h / 3), (10, h / 3)):
        val = simpson(lambda x: tf.eval_hat(mesh, j, x) ** 2, 0.0, 1.0,
                      panels=400)
        assert val == pytest.approx(expected, abs=1e-12)


def test_mass_row_values():
    mesh = tf.build_mesh(10)
    row = tf.mass_row(mesh, 3)
    assert row == pytest.approx((0.1 / 6, 0.2 / 3, 0.1 / 6), abs=0.0)
    mesh4 = tf.build_mesh(4)
    assert tf.mass_row(mesh4, 2) == pytest.approx((1 / 24, 1 / 6, 1 / 24))


@pytest.mark.parametrize("n", [3, 10, 64, 101])
def test_mass_row_sum_is_h(n):
    mesh = tf.build_mesh(n)
    total = sum(tf.mass_row(mesh, 1))
    assert math.isclose(total, mesh.h, rel_tol=4 * np.finfo(float).eps)


def test_mass_row_rejects_boundary_index():
    mesh = tf.build_mesh(10)
    with pytest.raises(ValueError):
        tf.mass_row(mesh, 0)
    with pytest.raises(ValueError):
        tf.mass_row(mesh, 10)
