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
    # too large for a float: refused as the infinity it would parse to
    pytest.param("k", 10**400, "thermal conductivity k must be positive "
                 "and finite, got inf", id="k-10**400"),
    pytest.param("flux_right", -10**400, "flux_right must be finite, got -inf",
                 id="flux_right--10**400"),
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


@pytest.mark.parametrize("shape", [(0,), (0, 3)], ids=["empty", "empty_2d"])
@pytest.mark.parametrize("direct", [False, True], ids=["eval_sigma", "direct"])
def test_rational_sigma_of_an_empty_state_is_empty(shape, direct):
    # as a numeric sigma and a user's callable give; the pole check's
    # minimum of no values used to raise numpy's bare ValueError
    model = build("rational_sigma", {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0})
    u = np.zeros(shape)
    out = model.electrical_conductivity(u) if direct \
        else tf.eval_sigma(model, u)
    assert out.shape == shape and out.dtype == np.float64


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


def test_model_spec_keeps_its_checked_floats_not_the_callers_dict():
    # the caller's dict, changed after the check, used to reach the run:
    # sigma0 = -1 failed at step 0 and the unknown key was never refused
    d = {"k0": 1, "sigma0": 1, "lambda": 1}
    spec = tf.ModelSpec("rational_sigma", d)
    d["sigma0"] = -1.0
    d["extra"] = 3
    assert spec.parameters == {"k0": 1.0, "sigma0": 1.0, "lambda": 1.0}
    assert all(type(value) is float for value in spec.parameters.values())
    config = tf.SimulationConfig(n_elements=20, tau=0.1, beta=0.2, model=spec,
                                 flux_left=1.0, flux_right=1.0, t_max=1.0)
    assert len(tf.run(config).diagnostics.max_change) == 10


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
    # beside a NaN, a node past the pole is still the one named
    with pytest.raises(tf.ModelError, match=r"^u = 3\.0 at node 2 is at or "
                       r"past the pole"):
        tf.eval_sigma(model, np.array([0.0, np.nan, 3.0]))


BELOW_POLE = np.nextafter(1.0, 0.0)  # the pole of lambda = -1 is u = 1


def rational_values(s0, lam, u):
    """sigma0 / (1 + lambda u)^2 by the operations rational_sigma takes."""
    with np.errstate(all="ignore"):
        den = lam * np.asarray(u, dtype=float) + 1.0
        return np.asarray(s0 / (den * den))


SIGMA_OVERFLOWS = {"k0": 1, "sigma0": 1e300, "lambda": -1}
BAD_VALUES = pytest.mark.parametrize("u, expected", [
    (np.array([0.0, 0.5, BELOW_POLE]), "1 of 3 values fail, first at index "
     "2: inf"),
    (BELOW_POLE, "1 of 1 values fail, first at index 0: inf"),
    (np.array([0.0, np.nan]), "1 of 2 values fail, first at index 1: nan"),
], ids=["overflow", "scalar_overflow", "nan"])


@BAD_VALUES
def test_rational_sigma_refuses_its_values_as_eval_sigma_does(u, expected):
    # rational_sigma checks its own values in the minimum its pole check
    # takes; a value that overflows, or a NaN state, gets the message
    # eval_sigma gives a user's sigma, word for word
    message = elementwise_verdict(rational_values(1e300, -1.0, u))
    assert message.endswith(expected)
    with pytest.raises(tf.ModelError) as exc:
        tf.eval_sigma(build("rational_sigma", SIGMA_OVERFLOWS), u)
    assert str(exc.value) == message


@BAD_VALUES
def test_calling_rational_sigma_directly_checks_its_values(u, expected):
    model = build("rational_sigma", SIGMA_OVERFLOWS)
    with pytest.raises(tf.ModelError, match=f"{expected}$"):
        model.electrical_conductivity(u)


@given(u=st.lists(st.floats(-1e300, 1e300) | st.sampled_from(
           [0.5, BELOW_POLE, 1.0, np.nextafter(1.0, 2.0), np.nan]),
           min_size=1, max_size=6),
       s0=st.sampled_from([0.0, 5e-324, 1.0, 1e300, 1.7e308]),
       lam=st.sampled_from([-1.0, -1e-300, 0.0, 1e-300, 1.0, 1e300]))
def test_rational_sigma_verdict_matches_the_elementwise_one(u, s0, lam):
    # the one minimum decides as a check of every value does: the same
    # values, the pole named when a node is at or past it, else the same
    # message as eval_sigma's check
    model = build("rational_sigma", {"k0": 1, "sigma0": s0, "lambda": lam})
    u = np.array(u)
    values = rational_values(s0, lam, u)
    with np.errstate(all="ignore"):
        past = lam * u + 1.0 <= 0.0
    expected = None if past.any() else elementwise_verdict(values)
    if past.any():
        with pytest.raises(tf.ModelError, match="past the pole"):
            tf.eval_sigma(model, u)
    elif expected is None:
        assert tf.eval_sigma(model, u).tobytes() == values.tobytes()
    else:
        with pytest.raises(tf.ModelError) as exc:
            tf.eval_sigma(model, u)
        assert str(exc.value) == expected


def test_eval_sigma_leaves_a_marked_sigma_its_own_check():
    # the mark of errors._own_state says the sigma checks its own values,
    # so eval_sigma adds no check of its own; a user's sigma is checked
    def negative(u):
        return -np.ones_like(np.asarray(u, dtype=float))

    marked = tf.CoefficientModel(1.0, tf.errors._own_state(negative), 1.0,
                                 1.0)
    assert (tf.eval_sigma(marked, np.zeros(3)) == -1.0).all()
    with pytest.raises(tf.ModelError, match="3 of 3 values fail"):
        tf.eval_sigma(tf.CoefficientModel(1.0, negative, 1.0, 1.0),
                      np.zeros(3))


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
    for value in (-1.0, -1, np.nan, np.inf, -np.inf, "0.1", None, 10**400):
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


def test_model_keeps_k_and_the_fluxes_as_floats():
    # an int or a numpy scalar is kept as a float, as a numeric sigma is, so
    # eval_k of an int k too large for int64 is a float array, not objects
    for k, flux in ((10**30, 2), (2, np.float32(0.5)), (True, np.int64(-3))):
        model = tf.CoefficientModel(k, 0.1, flux, flux)
        for name in ("k", "flux_left", "flux_right"):
            assert type(getattr(model, name)) is float
        assert model.k == float(k) and model.flux_left == float(flux)
        out = tf.eval_k(model, np.zeros(3))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.full(3, float(k)))


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
