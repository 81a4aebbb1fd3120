"""The series CSV's vectorised ``%.12e`` formatter against Python's own ``%``.

``cli._cells`` must give, for every double, the bytes of ``"%.12e" % v``
followed by its separator ``,``; ``cli._fast_cells`` is its numpy path, which
must leave near ties and values outside its exponent range to the fallback.  Every
comparison formats its values twice (``formatted``), so that the 19-byte
cells are checked on each value that has one.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermistor_fem import cli


def expected(values) -> list[str]:
    return ["%.12e," % v for v in np.array(values, dtype=float).tolist()]


def texts(cells) -> list[str]:
    return [cell.tobytes().replace(b"\0", b"").decode("ascii")
            for cell in cells]


def formatted(values) -> list[str]:
    """The text of each cell ``cli._cells`` makes, its NUL padding dropped.

    The values are also formatted split by the width of their cells: those
    whose cell is 19 bytes (non-negative, two-digit exponent) in one call,
    which must make fixed-width cells, and the rest in another, which must
    make padded ones.  Both ways must give the same text.
    """
    v = np.array(values, dtype=float)
    together = texts(cli._cells(v))
    fixed = np.array([len(text) == cli._FIXED
                      for text in expected(v)], dtype=bool)
    by_width = np.empty(v.size, dtype=object)
    for group, width in ((fixed, cli._FIXED), (~fixed, cli._PADDED)):
        if group.any():
            cells = cli._cells(v[group])
            assert cells.dtype.itemsize == width
            by_width[group] = texts(cells)
    assert by_width.tolist() == together
    return together


def around(values) -> list[float]:
    """Each value and its neighbours one ulp below and above."""
    return [w for v in values for w in (np.nextafter(v, -np.inf), v,
                                        np.nextafter(v, np.inf))]


def exact_ties() -> list[float]:
    """Doubles whose exact decimal form has 14 significant digits ending in
    5, so the 13th digit is a tie for ``%.12e`` (rounded half to even)."""
    ties = []
    for e in range(-3, 13):
        # m / 2**k, k >= 1, has exactly k decimals, the last a 5 for odd m
        k = 13 - e
        lo = int(np.ceil(10.0 ** e * 2 ** k)) | 1
        ties += [m / 2 ** k for m in (lo, lo + 2, lo + 4, 3 * lo | 1)]
    # integers: 14 significant digits ending in 5, then zeros
    ties += [float(n) for n in (10000000000005, 12345678901235,
                                10000000000015 * 10, 99999999999995,
                                31415926535895 * 10 ** 3)]
    return ties


def group_edges() -> list[float]:
    """Values whose 13 digits d.dddd|dddd|dddd put a 9999 next to a 0000
    at the edge of the lead digit and the first group or of two groups, or
    whose groups are all 9s; and values whose rounding carries across
    those edges (1.00009999999996 is 1.000100000000)."""
    digits = ["1.999900000000", "2.000000000000", "1.000099990000",
              "1.000100000000", "1.000000009999", "1.000000010000",
              "9.999999999999", "1.999999999999", "1.000099999999",
              "9.999900000000", "9.999999990000", "1.234999912349",
              "9.000099990000", "5.000000000000", "1.000000000000",
              "1.99999999999996", "1.00009999999996", "1.00000000999996",
              "8.99999999999973"]
    return [float(f"{d}e{k}") for d in digits
            for k in (-10, -3, -1, 0, 4, 33, 34)]


ties = exact_ties()
powers = [float(f"1e{k}") for k in range(-12, 41)]
carries = [float(f"9.9999999999995e{k}") for k in range(-12, 41)]
extremes = [1e300, -1e300, 5e-324, -1e-300, 0.0, -0.0, 2.2250738585072014e-308]
# three-digit exponents next to two-digit ones; the carry of
# 9.9999999999995e99 makes it 1.000000000000e+100
wide = [1e-100, 1e-99, 9.9999999999995e99, 1e100]


def test_tie_values_are_ties():
    # each tie needs one more digit than %.12e writes, and that digit is a 5
    for v in ties:
        digits = f"{v:.14e}".split("e")[0].replace(".", "").lstrip("-")
        assert digits[13] == "5" and digits[14] == "0", v


@pytest.mark.parametrize("values", [around(ties), around(powers),
                                    around(carries), around(extremes),
                                    around(wide), around(group_edges())],
                         ids=["ties", "powers", "carries", "extremes", "wide",
                              "group_edges"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_hand_picked_values_match_python(values, sign):
    values = [sign * v for v in values]
    assert formatted(values) == expected(values)


def test_fallback_is_taken_on_ties_and_outside_the_exponent_range():
    v = np.array(ties + [-t for t in ties])
    _, fast = cli._fast_cells(v)
    assert not fast.any()
    _, fast = cli._fast_cells(np.array([1e-11, 1e35, 1e300, 5e-324]))
    assert not fast.any()
    # everyday values take the numpy path, zeros of both signs included
    v = np.array([0.0, -0.0, 0.2625, 1.0, 0.1, 1e-10, 9.5e34, -3.25])
    _, fast = cli._fast_cells(v)
    assert fast.all()
    # so the numpy path writes every group edge, and each carry across one;
    # a carry into the next exponent is left to Python
    assert cli._fast_cells(np.array(group_edges()))[1].all()
    _, fast = cli._fast_cells(np.array([9.99999999999951e-10, 9.9999999999996,
                                        9.99999999999951e33]))
    assert not fast.any()
    grid = np.linspace(-2.0, 2.0, 10001)
    assert cli._fast_cells(grid)[1].mean() > 0.99


def test_carry_moves_into_the_next_exponent():
    assert formatted([9.99999999999996e4]) == ["1.000000000000e+05,"]
    assert formatted([9.99999999999996e34]) == ["1.000000000000e+35,"]
    assert formatted([9.9999999999995e99]) == ["1.000000000000e+100,"]


def test_the_tables_hold_every_group_and_exponent_and_the_blank_is_zero():
    assert [cli._QUADS[k].tobytes() for k in range(10000)] == [
        f"{k:04d}".encode() for k in range(10000)]
    assert [cli._EXPS[e + 10].tobytes() for e in range(-10, 35)] == [
        ("%.0e," % 10.0 ** e)[2:].encode() for e in range(-10, 35)]
    assert bytes(cli._BLANK) == b"0.000000000000e+00,"
    assert texts(cli._fast_cells(np.zeros(2))[0].view(f"V{cli._FIXED}")) \
        == ["0.000000000000e+00,"] * 2


def test_non_finite_values_fall_back_to_python():
    values = [np.nan, np.inf, -np.inf, 1.0]
    assert formatted(values) == expected(values)


def doubles_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
def test_every_finite_double_matches_python(values):
    assert formatted(values) == expected(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1).map(doubles_from_bits)
                .filter(np.isfinite), min_size=1, max_size=64))
def test_uniform_bit_patterns_match_python(values):
    # every exponent equally likely, where st.floats favours special values
    assert formatted(values) == expected(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-11, 1e36), min_size=1, max_size=64))
def test_values_in_the_fast_range_match_python(values):
    values += [-v for v in values]
    assert formatted(values) == expected(values)
