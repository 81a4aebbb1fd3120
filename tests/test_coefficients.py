import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import thermistor_fem as tf


def build(kind, params):
    return tf.ModelSpec(kind, params).build(1.0, 1.0)


def test_paper_example_conductivities():
    model = build("paper_example", {"gamma": 0.1})
    assert tf.eval_k(model, 0.7) == pytest.approx(1.0, abs=0.0)
    assert tf.eval_sigma(model, 123.4) == pytest.approx(0.1, abs=0.0)
    u = np.linspace(-2, 5, 17)
    np.testing.assert_array_equal(tf.eval_k(model, u), np.ones(17))
    np.testing.assert_array_equal(tf.eval_sigma(model, u), np.full(17, 0.1))


def test_constant_model():
    model = build("constant", {"k0": 2.0, "sigma0": 0.5})
    assert tf.eval_k(model, -3.0) == 2.0
    assert tf.eval_sigma(model, 9.9) == 0.5


def test_rational_sigma_values():
    model = build("rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0})
    assert tf.eval_k(model, 5.0) == 1.0
    assert tf.eval_sigma(model, 1.0) == pytest.approx(0.25)
    flat = build("rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": 0.0})
    assert tf.eval_sigma(flat, 17.0) == pytest.approx(1.0)


def test_eval_k_rejects_nonpositive():
    # ModelSpec refuses k0 <= 0, so build the model directly
    model = tf.CoefficientModel(
        thermal_conductivity=lambda u: np.full_like(np.asarray(u, float), -1.0),
        electrical_conductivity=lambda u: np.ones_like(np.asarray(u, float)),
        flux_left=1.0, flux_right=1.0)
    with pytest.raises(tf.ModelError):
        tf.eval_k(model, 0.0)


def test_eval_sigma_rejects_negative():
    model = tf.CoefficientModel(
        thermal_conductivity=lambda u: np.full_like(np.asarray(u, float), 1.0),
        electrical_conductivity=lambda u: np.asarray(u, dtype=float),
        flux_left=1.0, flux_right=1.0)
    assert tf.eval_sigma(model, 0.5) == 0.5
    with pytest.raises(tf.ModelError):
        tf.eval_sigma(model, -0.5)


def test_eval_rejects_non_finite():
    model = tf.CoefficientModel(
        thermal_conductivity=lambda u: np.full_like(np.asarray(u, float), np.nan),
        electrical_conductivity=lambda u: np.full_like(np.asarray(u, float), np.inf),
        flux_left=1.0, flux_right=1.0)
    with pytest.raises(tf.ModelError):
        tf.eval_k(model, 0.0)
    with pytest.raises(tf.ModelError):
        tf.eval_sigma(model, 0.0)


def test_model_error_message_is_short():
    # a non-finite gamma is refused by ModelSpec, so build the model directly
    nan_sigma = tf.CoefficientModel(
        thermal_conductivity=lambda u: np.ones_like(np.asarray(u, float)),
        electrical_conductivity=lambda u: np.full_like(np.asarray(u, float),
                                                       np.nan),
        flux_left=1.0, flux_right=1.0)
    with pytest.raises(tf.ModelError) as exc:
        tf.eval_sigma(nan_sigma, np.zeros(1001))
    assert len(str(exc.value)) < 120
    assert "1001 of 1001" in str(exc.value) and "index 0: nan" in str(exc.value)
    model = tf.CoefficientModel(
        thermal_conductivity=lambda u: 1.0 - np.asarray(u, float),
        electrical_conductivity=lambda u: np.asarray(u, float),
        flux_left=1.0, flux_right=1.0)
    with pytest.raises(tf.ModelError, match="3 of 5 values fail, first at index 2: 0.0"):
        tf.eval_k(model, np.array([-1.0, 0.5, 1.0, 2.0, 3.0]))
    with pytest.raises(tf.ModelError, match="1 of 1 values fail, first at index 0: -2.0"):
        tf.eval_sigma(model, -2.0)


def test_model_spec_validation():
    with pytest.raises(tf.ConfigurationError):
        tf.ModelSpec("nonsense", {})
    with pytest.raises(tf.ConfigurationError):
        tf.ModelSpec("constant", {"k0": 1.0})  # sigma0 missing


@pytest.mark.parametrize("kind, params", [
    ("paper_example", {"gamma": 0.1}),
    ("constant", {"k0": 1.0, "sigma0": 1.0}),
    ("rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0}),
])
def test_model_spec_rejects_non_finite_parameters(kind, params):
    for name in params:
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(tf.ConfigurationError, match=f"{name} must be finite"):
                tf.ModelSpec(kind, {**params, name: value})
    # constant k0, sigma0 and gamma of the wrong sign are refused as well;
    # sigma0 = 0 and gamma = 0 (no conduction) stay allowed
    wrong_sign = {"k0": ((0.0, -1.0), "k0 must be positive"),
                  "sigma0": ((-0.5,), "sigma0 must be >= 0"),
                  "gamma": ((-0.1,), "gamma must be >= 0")}
    for name in params:
        values, message = wrong_sign.get(name, ((), ""))
        for value in values:
            with pytest.raises(tf.ConfigurationError, match=message):
                tf.ModelSpec(kind, {**params, name: value})
        if name in ("sigma0", "gamma"):
            assert tf.ModelSpec(kind, {**params, name: 0.0}).parameters[name] == 0.0


def test_rational_sigma_pole_raises_model_error_without_warning():
    model = build("rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tf.ModelError):
            tf.eval_sigma(model, -1.0)
        with pytest.raises(tf.ModelError):
            tf.eval_sigma(model, np.array([0.0, -1.0, 1.0]))
        zero = build("rational_sigma", {"k0": 1.0, "sigma0": 0.0, "lambda": 1.0})
        with pytest.raises(tf.ModelError):
            tf.eval_sigma(zero, -1.0)  # 0 / 0


def test_sigma_is_zero_flag():
    assert build("constant", {"k0": 1.0, "sigma0": 0.0}).sigma_is_zero
    assert build("paper_example", {"gamma": 0.0}).sigma_is_zero
    assert not build("paper_example", {"gamma": 0.1}).sigma_is_zero


def test_validate_physical_examples():
    assert tf.validate_physical(0.2, 0.1) is True
    assert tf.validate_physical(1.0, 1.0) is False
    assert tf.validate_physical(2.0, 1.0) is True  # equality case


def test_validate_physical_rejects_nonpositive():
    with pytest.raises(ValueError):
        tf.validate_physical(0.0, 0.1)
    with pytest.raises(ValueError):
        tf.validate_physical(0.2, -1.0)


@given(beta=st.floats(0.01, 10.0), gamma=st.floats(0.01, 10.0),
       shrink=st.floats(0.1, 1.0))
def test_validate_physical_monotone_in_gamma(beta, gamma, shrink):
    # decreasing gamma with beta fixed never flips True -> False
    if tf.validate_physical(beta, gamma):
        assert tf.validate_physical(beta, gamma * shrink)
