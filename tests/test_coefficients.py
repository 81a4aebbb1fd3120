import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import thermistor_fem as tf


def build(kind, params):
    return tf.ModelSpec(kind, params).build(1.0, 1.0)


def test_paper_example_conductivities():
    model = build("paper_example", {"gamma": 0.1})
    assert model.k == 1.0
    assert tf.eval_sigma(model, 123.4) == pytest.approx(0.1, abs=0.0)
    u = np.linspace(-2, 5, 17)
    np.testing.assert_array_equal(tf.eval_k(model, u), np.ones(17))
    np.testing.assert_array_equal(tf.eval_sigma(model, u), np.full(17, 0.1))


def test_constant_model():
    model = build("constant", {"k0": 2.0, "sigma0": 0.5})
    assert model.k == 2.0
    assert tf.eval_sigma(model, 9.9) == 0.5


def test_rational_sigma_values():
    model = build("rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0})
    assert model.k == 1.0
    assert tf.eval_sigma(model, 1.0) == pytest.approx(0.25)
    flat = build("rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": 0.0})
    assert tf.eval_sigma(flat, 17.0) == pytest.approx(1.0)


def test_model_rejects_nonpositive_or_non_finite_k():
    # ModelSpec refuses such a k0, so build the model directly
    for value in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(tf.ModelError, match="k must be positive"):
            tf.CoefficientModel(
                k=value,
                electrical_conductivity=lambda u: np.ones_like(
                    np.asarray(u, float)),
                flux_left=1.0, flux_right=1.0)


@pytest.mark.parametrize("field, value, message", [
    ("k", "1.0", "k must be a real number, got '1.0'"),
    ("k", None, "k must be a real number, got None"),
    ("k", 1j, "k must be a real number, got 1j"),
    ("flux_left", "a", "flux_left must be a real number, got 'a'"),
    ("flux_right", None, "flux_right must be a real number, got None"),
    ("flux_left", np.nan, "flux_left must be finite, got nan"),
    ("flux_right", -np.inf, "flux_right must be finite, got -inf"),
    ("flux_left", np.float64(np.inf), "flux_left must be finite, got "),
])
def test_model_refuses_a_non_real_or_non_finite_field(field, value, message):
    fields = dict(k=1.0, electrical_conductivity=0.1, flux_left=1.0,
                  flux_right=1.0)
    fields[field] = value
    with pytest.raises(tf.ModelError) as exc:
        tf.CoefficientModel(**fields)
    assert str(exc.value).startswith(message)


def test_eval_sigma_rejects_negative():
    model = tf.CoefficientModel(
        k=1.0,
        electrical_conductivity=lambda u: np.asarray(u, dtype=float),
        flux_left=1.0, flux_right=1.0)
    assert tf.eval_sigma(model, 0.5) == 0.5
    with pytest.raises(tf.ModelError):
        tf.eval_sigma(model, -0.5)


def test_eval_rejects_non_finite():
    # a non-finite k is refused when the model is built (test above)
    model = tf.CoefficientModel(
        k=1.0,
        electrical_conductivity=lambda u: np.full_like(np.asarray(u, float), np.inf),
        flux_left=1.0, flux_right=1.0)
    with pytest.raises(tf.ModelError):
        tf.eval_sigma(model, 0.0)


def test_model_error_message_is_short():
    # a non-finite gamma is refused by ModelSpec, so build the model directly
    nan_sigma = tf.CoefficientModel(
        k=1.0,
        electrical_conductivity=lambda u: np.full_like(np.asarray(u, float),
                                                       np.nan),
        flux_left=1.0, flux_right=1.0)
    with pytest.raises(tf.ModelError) as exc:
        tf.eval_sigma(nan_sigma, np.zeros(1001))
    assert len(str(exc.value)) < 120
    assert "1001 of 1001" in str(exc.value) and "index 0: nan" in str(exc.value)
    model = tf.CoefficientModel(
        k=1.0,
        electrical_conductivity=lambda u: 1.0 - np.asarray(u, float),
        flux_left=1.0, flux_right=1.0)
    with pytest.raises(tf.ModelError, match="2 of 5 values fail, first at index 3: -1.0"):
        tf.eval_sigma(model, np.array([-1.0, 0.5, 1.0, 2.0, 3.0]))
    with pytest.raises(tf.ModelError, match="1 of 1 values fail, first at index 0: -2.0"):
        tf.eval_sigma(model, 3.0)


def elementwise_verdict(arr: np.ndarray):
    """The message of eval_sigma's check taken entry by entry, or None."""
    ok = (arr >= 0.0) & np.isfinite(arr)
    if ok.all():
        return None
    bad = np.flatnonzero(~ok)
    return (f"electrical conductivity must be >= 0 and finite; {bad.size} "
            f"of {arr.size} values fail, first at index {int(bad[0])}: "
            f"{float(arr.flat[bad[0]])!r}")


@pytest.mark.parametrize("values", [
    [0.5, np.nan, 1.0], [np.inf, 0.5], [0.5, -np.inf], [0.5, np.nan, -1.0],
    [-1e-300, 0.0], [-0.0, 0.0, 1.0], [5e-324], [np.nan, np.inf], 2.0,
    -0.0, -1e-300, np.nan, [], np.zeros((0, 3)),
], ids=["nan", "inf", "minus_inf", "nan_and_negative", "tiny_negative",
        "minus_zero", "subnormal", "nan_and_inf", "scalar", "scalar_minus_zero",
        "scalar_negative", "scalar_nan", "empty", "empty_2d"])
def test_eval_sigma_check_matches_the_elementwise_one(values):
    # min >= 0 and max < inf decide as the entry-by-entry test does, and a
    # failure reports the same count and first entry
    arr = np.asarray(values, dtype=float)
    model = tf.CoefficientModel(1.0, lambda u: arr, 1.0, 1.0)
    u = np.zeros(arr.shape)  # sigma(u) has u's shape
    expected = elementwise_verdict(arr)
    if expected is None:
        out = tf.eval_sigma(model, u)
        assert np.asarray(out).tobytes() == arr.tobytes()
    else:
        with pytest.raises(tf.ModelError) as exc:
            tf.eval_sigma(model, u)
        assert str(exc.value) == expected


def test_model_spec_validation():
    with pytest.raises(tf.ConfigurationError):
        tf.ModelSpec("nonsense", {})
    with pytest.raises(tf.ConfigurationError):
        tf.ModelSpec("constant", {"k0": 1.0})  # sigma0 missing


@pytest.mark.parametrize("kind, params, extra", [
    ("paper_example", {"gamma": 0.1}, "k0"),
    ("paper_example", {"gamma": 0.1}, "sigma0"),
    ("constant", {"k0": 1.0, "sigma0": 1.0}, "lambda"),
    ("constant", {"k0": 1.0, "sigma0": 1.0}, "gamma"),
    ("rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0}, "gamma"),
    ("rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0}, "lamda"),
])
def test_model_spec_refuses_parameters_the_kind_does_not_read(kind, params,
                                                              extra):
    # such a key used to be dropped: paper_example with k0 = 3 built k = 1
    message = f"{kind!r} does not read parameters \\['{extra}'\\]"
    with pytest.raises(tf.ConfigurationError, match=message):
        tf.ModelSpec(kind, {**params, extra: 3.0})
    assert tf.ModelSpec(kind, params).parameters == params


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


def test_rational_sigma_refuses_a_state_at_or_past_its_pole():
    # for lambda < 0 the pole u = -1/lambda is a positive temperature; past
    # it (1 + lambda u)^2 grows again, so sigma would read finite and small
    model = build("rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": -0.5})
    below = np.nextafter(2.0, 0.0)
    assert np.isfinite(tf.eval_sigma(model, np.array([0.0, 1.0, below]))).all()
    with pytest.raises(tf.ModelError, match=r"^u = 2\.0 at node 2 is at or "
                       r"past the pole u = 2\.0 of rational_sigma$"):
        tf.eval_sigma(model, np.array([0.0, 1.0, 2.0, 3.0]))
    # a scalar, such as the literal scheme's left ghost temperature, has no
    # node to name
    with pytest.raises(tf.ModelError,
                       match=r"^u = 3\.5 is at or past the pole u = 2\.0 "):
        tf.eval_sigma(model, 3.5)
    # a NaN state is not past the pole; the finiteness check names it
    with pytest.raises(tf.ModelError, match="must be >= 0 and finite"):
        tf.eval_sigma(model, np.array([0.0, np.nan]))


def test_model_spec_gives_the_constant_kinds_a_number():
    # the number itself, sigma0 or gamma, so a run can tell it never varies
    for kind, params, sigma in (
            ("constant", {"k0": 1.0, "sigma0": 0.0}, 0.0),
            ("constant", {"k0": 2.0, "sigma0": 0.5}, 0.5),
            ("paper_example", {"gamma": 0.0}, 0.0),
            ("paper_example", {"gamma": 0.1}, 0.1)):
        model = build(kind, params)
        assert type(model.electrical_conductivity) is float
        assert model.electrical_conductivity == sigma
    rational = build("rational_sigma",
                     {"k0": 1.0, "sigma0": 0.0, "lambda": 1.0})
    assert callable(rational.electrical_conductivity)


def test_model_refuses_a_negative_or_non_finite_numeric_sigma():
    for value in (-1.0, -1, np.nan, np.inf, -np.inf, "0.1", None):
        with pytest.raises(tf.ModelError, match="electrical conductivity "
                           "must be a callable or a number >= 0 and finite"):
            tf.CoefficientModel(k=1.0, electrical_conductivity=value,
                                flux_left=1.0, flux_right=1.0)
    # an int or a numpy scalar is kept as a float; -0.0 passes as 0.0 does
    for value, kept in ((2, 2.0), (np.float64(0.25), 0.25), (-0.0, -0.0)):
        model = tf.CoefficientModel(k=1.0, electrical_conductivity=value,
                                    flux_left=1.0, flux_right=1.0)
        assert type(model.electrical_conductivity) is float
        assert model.electrical_conductivity.hex() == kept.hex()


def test_eval_sigma_fills_a_numeric_sigma_to_the_shape_of_u():
    model = tf.CoefficientModel(k=1.0, electrical_conductivity=0.3,
                                flux_left=1.0, flux_right=1.0)
    assert tf.eval_sigma(model, 7.0) == 0.3
    assert type(tf.eval_sigma(model, np.float64(7.0))) is float
    out = tf.eval_sigma(model, np.zeros((2, 3)))
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, np.full((2, 3), 0.3))
    # the bits of the constant callable it stands for
    const = tf.CoefficientModel(
        k=1.0, electrical_conductivity=lambda u: np.full_like(
            np.asarray(u, dtype=float), 0.3), flux_left=1.0, flux_right=1.0)
    u = np.linspace(0.0, 1.0, 11)
    assert tf.eval_sigma(model, u).tobytes() == \
        tf.eval_sigma(const, u).tobytes()


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
