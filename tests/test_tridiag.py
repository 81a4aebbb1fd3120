import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thermistor_fem as tf
from helpers import (count_factorisations, random_dominant_system,
                     reference_thomas, substitution_bound)


def system(sub, main, sup, rhs):
    return tf.TridiagonalSystem(sub=np.asarray(sub, float),
                                main=np.asarray(main, float),
                                sup=np.asarray(sup, float),
                                rhs=np.asarray(rhs, float))


def test_identity_system():
    s = system([0, 0], [1, 1, 1], [0, 0], [3, 4, 5])
    np.testing.assert_allclose(tf.thomas_solve(s), [3, 4, 5], atol=0.0)
    np.testing.assert_allclose(tf.dense_solve_oracle(s), [3, 4, 5], atol=0.0)


def test_size_two_against_hand_elimination():
    # [[2,-1],[-1,2]] x = (1,1)  =>  x = (1,1)
    s = system([-1], [2, 2], [-1], [1, 1])
    np.testing.assert_allclose(tf.thomas_solve(s), [1, 1], atol=1e-15)


def test_size_one_system():
    s = system([], [4.0], [], [2.0])
    np.testing.assert_allclose(tf.thomas_solve(s), [0.5])


def test_zero_pivot_reports_row():
    cases = [
        ([0], [0, 1], [0], 0),
        # exact zero pivot at an interior row: 1 - 1*1
        ([1, 0], [1, 1, 1], [1, 0], 1),
        # nonzero pivot ~1e-9, below 1e-14 of its row's largest coefficient 1e6
        ([1, 0], [1, 1e6 + 1e-9, 1], [1e6, 0], 1),
        # exact zero pivot in a subnormal row, where 1e-14 of its scale is 0
        ([1e-320], [1e-320, 1e-320], [1e-320], 1),
    ]
    for sub, main, sup, row in cases:
        s = system(sub, main, sup, np.ones(len(main)))
        with pytest.raises(tf.SingularSystemError) as exc:
            tf.thomas_solve(s)
        assert exc.value.row == row, main


def test_checked_solve_names_phase_and_keeps_row():
    s = system([1, 0], [1, 1, 1], [1, 0], np.ones(3))
    with pytest.raises(tf.SingularSystemError) as exc:
        tf.checked_solve(s, "potential")
    assert exc.value.row == 1
    assert str(exc.value).startswith("potential solve failed: ")
    assert "row 1" in str(exc.value)


def test_checked_solve_rejects_non_finite_solution():
    # a valid pivot, but the quotient 1e300 / 1e-300 overflows, silently
    s = system([], [1e-300], [], [1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tf.NumericalFailureError,
                           match="temperature solve failed"):
            tf.checked_solve(s, "temperature")


def overflowing_row(size, row):
    """Diagonal system whose solution overflows at ``row`` alone."""
    main, rhs = np.ones(size), np.ones(size)
    main[row], rhs[row] = 1e-300, 1e300
    return system(np.zeros(size - 1), main, np.zeros(size - 1), rhs)


@pytest.mark.parametrize("s", [overflowing_row(1, 0), overflowing_row(100, 70)],
                         ids=["size1", "size100"])
def test_checked_solve_with_sink_rejects_non_finite_solution(s):
    # the residual is what shows the overflow; nothing is recorded
    sink = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tf.NumericalFailureError,
                           match="temperature solve failed: non-finite solution"):
            tf.checked_solve(s, "temperature", sink)
    assert sink == []


def test_thomas_solve_leaves_an_overflow_to_its_caller():
    # the raw solve computes in the caller's floating-point error state;
    # checked_solve ignores the overflow and reports the solution instead
    s = overflowing_row(100, 70)
    with pytest.warns(RuntimeWarning, match="overflow"):
        x = tf.thomas_solve(s)
    assert np.isinf(x[70]) and np.isfinite(np.delete(x, 70)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            assert tf.thomas_solve(s).tobytes() == x.tobytes()


def test_checked_solve_records_overflowed_residual_of_finite_solution():
    # x = 1e108 * (1, 1, -1) is finite, but row 1 of T x sums
    # 1e308 + 1e308 before the -1e308 that brings it back
    s = system(np.array([1.0, 0.25]) * 1e200, np.array([1.0, 1.0, 1.0]) * 1e200,
               np.array([0.5, 1.0]) * 1e200, [1.5e308, 1e308, -0.75e308])
    sink = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = tf.checked_solve(s, "temperature", sink)
    assert np.isfinite(x).all()
    assert sink == [np.inf]


def test_checked_solve_records_scaled_residual():
    rng = np.random.default_rng(8)
    s = random_dominant_system(rng, 30)
    sink = []
    x = tf.checked_solve(s, "temperature", sink)
    assert np.array_equal(x, tf.thomas_solve(s))
    assert sink == [tf.residual_norm(s, x) / (1.0 + np.max(np.abs(s.rhs)))]


def near_singular_system(rng, size):
    """Small-integer diagonals, so exact zero pivots occur at any row, with
    perturbations on either side of the 1e-14 relative rule."""
    sub, main, sup = (rng.integers(-2, 3, n).astype(float)
                      for n in (size - 1, size, size - 1))
    nudge = rng.choice((0.0, 0.0, 1e-15, 0.7e-14, 1.5e-14, 1e-13), size)
    main += nudge * rng.choice((-1.0, 1.0), size)
    scale = 10.0 ** rng.integers(-3, 4)
    return system(sub * scale, main * scale, sup * scale, rng.uniform(-1, 1, size))


# Largest deviations from reference_thomas measured over the draws below:
# 2.1 eps * max|x| on the dominant systems (sizes 1-2000), and
# 2.2 eps |U^-1||L^-1||rhs| on the solvable near-singular ones.
DOMINANT_RTOL = 4 * np.finfo(float).eps
NEAR_SINGULAR_FACTOR = 4.0


def assert_matches_reference(s, x):
    expected = reference_thomas(s)
    assert np.max(np.abs(x - expected)) \
        <= DOMINANT_RTOL * np.max(np.abs(expected)), s.size


def test_thomas_matches_reference_to_rounding():
    rng = np.random.default_rng(20)
    for size in (1, 2, 3, 7, 31, 32, 33, 64, 101, 1001, 2000):
        for _ in range(3):
            s = random_dominant_system(rng, size)
            assert_matches_reference(s, tf.thomas_solve(s))


@pytest.mark.parametrize("size, held", [(4096, True), (4097, False)],
                         ids=["4096_interface", "4097_passes"])
def test_thomas_matches_reference_on_either_side_of_the_interface_cap(
        size, held):
    # 4096 rows are 128 blocks, the most that hold the interface operator;
    # one row more carries by the scalar passes, to the same bound
    blocks = -(-size // tf.tridiag.BLOCK)
    assert blocks == tf.tridiag.INTERFACE_BLOCKS + (not held)
    rng = np.random.default_rng(size)
    for _ in range(3):
        s = random_dominant_system(rng, size)
        factors = tf.tridiag._factor(s.sub, s.main, s.sup)
        assert (factors.interface is not None) is held
        assert_matches_reference(s, tf.thomas_solve(s, factors))


@pytest.mark.parametrize("size", [1, 2, 32, 33, 101, 128, 129, 1001, 4096,
                                  4097])
def test_one_block_solve_serves_the_inverse_the_interface_and_the_passes(
        size):
    # one set of factors solved three ways: by T^-1 where it is held (it
    # is the block solve of the identity), by the block solve with R, and
    # by the block solve with the passes that make R; the block ends that
    # R reads are gathered from blocks of 1 row (m = 1), 2 rows and 32
    # rows, and from 1 to 128 blocks
    blocks = -(-size // tf.tridiag.BLOCK)
    rng = np.random.default_rng(size)
    s = random_dominant_system(rng, size)
    factors = tf.tridiag._factor(s.sub, s.main, s.sup)
    assert (factors.dense is not None) is (blocks <= tf.tridiag.DENSE_BLOCKS)
    assert (factors.interface is not None) \
        is (blocks <= tf.tridiag.INTERFACE_BLOCKS)
    ways = [factors, factors._replace(dense=None),
            factors._replace(dense=None, interface=None)]
    for held in ways:
        assert_matches_reference(s, tf.thomas_solve(s, held))


def test_interface_that_overflows_leaves_the_passes_to_carry():
    # T = lower bidiagonal (1, 2): carrying across k blocks multiplies by
    # t = (-2)^32 per block, so the interface operator of 64 blocks
    # overflows, while the solution is small integers that every step of
    # the passes forms exactly
    size = 2048
    x = np.random.default_rng(4).integers(-3, 4, size).astype(float)
    s = system(np.full(size - 1, 2.0), np.ones(size), np.zeros(size - 1),
               x + np.append(0.0, 2.0 * x[:-1]))
    factors = tf.tridiag._factor(s.sub, s.main, s.sup)
    assert factors.interface is None
    assert factors.carries[1:, -1, 0].tolist() == [2.0 ** 32] * 63
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solved = tf.thomas_solve(s)
    assert solved.tobytes() == x.tobytes() == reference_thomas(s).tobytes()


@pytest.mark.parametrize("size, dense", [(128, True), (129, False)],
                         ids=["128_dense", "129_blocks"])
def test_thomas_matches_reference_on_either_side_of_the_dense_cap(
        size, dense):
    # 128 rows are 4 blocks, the most that hold T^-1 and solve by one
    # product with it; one row more solves by its blocks, to the same bound
    blocks = -(-size // tf.tridiag.BLOCK)
    assert blocks == tf.tridiag.DENSE_BLOCKS + (not dense)
    rng = np.random.default_rng(size)
    for _ in range(3):
        s = random_dominant_system(rng, size)
        factors = tf.tridiag._factor(s.sub, s.main, s.sup)
        assert (factors.dense is not None) is dense
        assert_matches_reference(s, tf.thomas_solve(s, factors))


def test_inverse_that_overflows_leaves_the_blocks_to_solve():
    # T = lower bidiagonal (1, 512): entry (i, j) of T^-1 is (-512)^(i-j),
    # which overflows at 114 rows apart, while the block inverses (31 rows
    # apart at most) and the interface operator stay finite; a solution
    # nonzero in the last rows alone is formed exactly by the blocks
    size = 128
    x = np.zeros(size)
    x[-3:] = (2.0, -1.0, 3.0)
    s = system(np.full(size - 1, 512.0), np.ones(size), np.zeros(size - 1),
               x + np.append(0.0, 512.0 * x[:-1]))
    factors = tf.tridiag._factor(s.sub, s.main, s.sup)
    assert factors.dense is None and factors.interface is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solved = tf.thomas_solve(s)
    assert solved.tobytes() == x.tobytes() == reference_thomas(s).tobytes()


def block_inverses_blocks_first(s) -> np.ndarray:
    """The G_k of ``s``'s factors, built with the blocks first: the
    recurrence down the rows of a (2 blocks, b, b) array, the layout the
    factorisation held before it held the rows first.  Each entry is the
    same product either way, so the bits must match."""
    lower = [0.0] + s.sub.tolist()
    pivots, upper, c_prev = [], [], 0.0
    for a, b, d in zip(lower, s.main.tolist(), s.sup.tolist() + [0.0]):
        pivots.append(b - a * c_prev)
        c_prev = d / pivots[-1]
        upper.append(c_prev)
    b = min(tf.tridiag.BLOCK, s.size)
    nb = -(-s.size // b)
    a, p, c = (np.append(values, [fill] * (nb * b - s.size)).reshape(nb, b)
               for values, fill in ((lower, 0.0), (pivots, 1.0),
                                    (upper, 0.0)))
    factor = np.concatenate((-a / p, -c[:, ::-1]))
    inv = np.zeros((2 * nb, b, b))
    rows = np.arange(b)
    inv[:, rows, rows] = np.concatenate((1.0 / p, np.ones((nb, b))))
    for i in range(1, b):
        np.multiply(inv[:, i - 1, :i], factor[:, i, None], out=inv[:, i, :i])
    return np.matmul(inv[nb:, ::-1, ::-1], inv[:nb])


def test_block_inverses_keep_the_bits_of_the_blocks_first_build():
    rng = np.random.default_rng(28)
    cases = [random_dominant_system(rng, size)
             for size in (1, 5, 32, 33, 101, 128, 129, 1001, 4097)]
    # a factor of -1e13 per row: L's block inverses overflow past 23 rows
    cases.append(system(np.full(99, 1e13), np.ones(100), np.zeros(99),
                        np.ones(100)))
    for s in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            expected = block_inverses_blocks_first(s)
            held = tf.tridiag._factor(s.sub, s.main, s.sup).inverse
        assert held.tobytes() == expected.tobytes(), s.size
    assert not np.isfinite(held).all()


def test_near_singular_systems_fail_at_reference_row():
    rng = np.random.default_rng(21)
    rows = []
    for _ in range(3000):
        s = near_singular_system(rng, int(rng.integers(1, 9)))
        try:
            expected = reference_thomas(s)
        except tf.SingularSystemError as exc:
            with pytest.raises(tf.SingularSystemError) as got:
                tf.thomas_solve(s)
            assert got.value.row == exc.row
            rows.append(exc.row)
        else:
            # a pivot near 1e-14 of its row amplifies the rounding of either
            # substitution, so the bound is componentwise in |U^-1||L^-1|
            deviation = np.abs(tf.thomas_solve(s) - expected)
            assert (deviation
                    <= NEAR_SINGULAR_FACTOR * substitution_bound(s)).all()
    # the draw reaches failures at interior rows and leaves solvable systems
    assert 300 < len(rows) < 2700 and max(rows) >= 4


def test_near_singular_rows_across_blocks_fail_at_reference_row():
    # several blocks, so the carries between blocks meet the near-singular
    # row; the largest deviation measured over this draw is 3.4 times the
    # bound, and up to 3.7 at seeds 27-29 (3.3-3.6 for the substitution of
    # L and U by two separate products)
    rng = np.random.default_rng(26)
    rows = []
    solved = 0
    for _ in range(1500):
        s = one_near_singular_row(rng, int(rng.integers(33, 131)))
        try:
            expected = reference_thomas(s)
        except tf.SingularSystemError as exc:
            with pytest.raises(tf.SingularSystemError) as got:
                tf.thomas_solve(s)
            assert got.value.row == exc.row
            rows.append(exc.row)
        else:
            deviation = np.abs(tf.thomas_solve(s) - expected)
            assert (deviation
                    <= NEAR_SINGULAR_FACTOR * substitution_bound(s)).all()
            solved += 1
    # both outcomes are common, and failures reach rows past the first block
    assert len(rows) > 300 and solved > 300
    assert sum(row >= tf.tridiag.BLOCK for row in rows) > 100


def one_near_singular_row(rng, size):
    """A dominant system with one row whose pivot is set to either side of
    the 1e-14 relative rule (or to rounding level), so that most draws of
    several blocks stay solvable or fail at that row alone."""
    s = random_dominant_system(rng, size)
    sub, main, sup = s.sub, s.main.copy(), s.sup
    row = int(rng.integers(0, size))
    c_prev = 0.0
    for i in range(row):
        c_prev = sup[i] / (main[i] - (sub[i - 1] * c_prev if i else 0.0))
    a = sub[row - 1] if row else 0.0
    d = sup[row] if row < size - 1 else 0.0
    nudge = rng.choice((0.0, 1e-15, 0.7e-14, 1.5e-14, 1e-13, 1e-12))
    main[row] = a * c_prev + nudge * max(abs(a), abs(d)) * rng.choice((-1.0, 1.0))
    scale = 10.0 ** rng.integers(-3, 4)
    return system(sub * scale, main * scale, sup * scale, s.rhs)


def test_cached_solve_equals_fresh_factorisation(monkeypatch):
    # a temperature operator factors its rows once, at its first advance,
    # and the block operators are built with the factorisation, so each
    # advance returns the bits (and records the residual) of a solve that
    # factors the same system afresh
    rng = np.random.default_rng(25)
    model = tf.ModelSpec("constant", {"k0": 1.3, "sigma0": 0.7}).build(1, 1)
    for variant, n in itertools.product((tf.CORRECTED, tf.PAPER_LITERAL),
                                        (4, 100, 1000)):
        case = (variant.stiffness, n)
        with monkeypatch.context() as m:
            calls = count_factorisations(m)
            op = tf.TemperatureOperator(tf.build_mesh(n), model, 0.1, 0.2,
                                        variant)
            size = op.matrix.size
            assert calls == [], case
            for _ in range(3):
                alpha = rng.uniform(-5.0, 5.0, n + 1)
                source = rng.uniform(-5.0, 5.0, size)
                held_sink, fresh_sink = [], []
                held = op.advance(alpha, source, held_sink)[:size]
                assert calls == [size], case
                fresh = tf.checked_solve(
                    op.matrix.with_rhs(op.mass(alpha) + source),
                    "temperature", fresh_sink)
                assert calls == [size, size], case
                calls.pop()
                assert held.tobytes() == fresh.tobytes(), case
                assert held_sink == fresh_sink, case


def held_work(factors) -> list:
    return [a for a in factors if isinstance(a, np.ndarray)]


def assert_fresh(arrays, held):
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:] + held:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("variant", [tf.CORRECTED, tf.PAPER_LITERAL],
                         ids=["corrected", "paper_literal"])
def test_solves_return_fresh_arrays(variant):
    # a solve works in the arrays held with its factors; what it returns is
    # never a view of them, so a later solve leaves it as it was
    model = tf.ModelSpec("constant", {"k0": 1.3, "sigma0": 0.7}).build(1, 1)
    op = tf.TemperatureOperator(tf.build_mesh(100), model, 0.1, 0.2, variant)
    rng = np.random.default_rng(3)
    alpha, source = rng.uniform(0.0, 1.0, 101), rng.uniform(0.0, 1.0, 101)
    first = op.advance(alpha, source[:op.matrix.size], [])
    kept = first.copy()
    second = op.advance(alpha + 1.0, source[:op.matrix.size], [])
    assert_fresh([first, second], held_work(op._factors))
    assert first.tobytes() == kept.tobytes()
    system = op.matrix.with_rhs(source[:op.matrix.size])
    solves = [tf.thomas_solve(system, op._factors) for _ in range(2)]
    assert_fresh(solves, held_work(op._factors))
    assert solves[0].tobytes() == solves[1].tobytes()


@pytest.mark.parametrize("variant", [tf.CORRECTED, tf.PAPER_LITERAL],
                         ids=["corrected", "paper_literal"])
def test_dense_solves_are_fresh_and_leave_the_rhs_block(variant):
    # at N = 100 the held factors hold T^-1; a held step still forms its rhs
    # in their rhs block, while a solve of another system by them reads its
    # rhs where it lies, so the block keeps the step's rhs
    model = tf.ModelSpec("constant", {"k0": 1.3, "sigma0": 0.7}).build(1, 1)
    op = tf.TemperatureOperator(tf.build_mesh(100), model, 0.1, 0.2, variant)
    size = op.matrix.size
    rng = np.random.default_rng(9)
    alpha, source = rng.uniform(0.0, 1.0, 101), rng.uniform(0.0, 1.0, size)
    held = op.advance(alpha, source, [])
    factors = op._factors
    assert factors.dense is not None and factors.dense.shape == (size, size)
    rhs = op.mass(alpha) + source
    assert factors.rhs_in.tobytes() == rhs.tobytes()
    other = op.matrix.with_rhs(rng.uniform(0.0, 1.0, size))
    solves = [tf.thomas_solve(other, factors) for _ in range(2)]
    assert factors.rhs_in.tobytes() == rhs.tobytes()
    assert_fresh([held] + solves, held_work(factors) + [other.rhs])
    assert solves[0].tobytes() == solves[1].tobytes()
    # the literal rows are not diagonally dominant, so the bound is the
    # dense oracle's, as in test_thomas_matches_dense_oracle
    expected = tf.dense_solve_oracle(other)
    assert np.max(np.abs(solves[0] - expected)) \
        <= 1e-10 * (1.0 + np.max(np.abs(expected)))


@pytest.mark.parametrize("variant", [tf.CORRECTED, tf.PAPER_LITERAL],
                         ids=["corrected", "paper_literal"])
def test_held_step_forms_its_rhs_in_the_solve_block(variant, monkeypatch):
    # after the first advance a step builds no system and copies no rhs:
    # mass(alpha) + source is formed in the factors' rhs block, which is
    # the rhs of the system the operator made with its factors
    model = tf.ModelSpec("constant", {"k0": 1.3, "sigma0": 0.7}).build(1, 1)
    op = tf.TemperatureOperator(tf.build_mesh(100), model, 0.1, 0.2, variant)
    size = op.matrix.size
    rng = np.random.default_rng(7)
    op.advance(rng.uniform(0.0, 1.0, 101), rng.uniform(0.0, 1.0, size), [])
    alpha, source = rng.uniform(0.0, 1.0, 101), rng.uniform(0.0, 1.0, size)
    rhs = op.mass(alpha) + source
    fresh_sink = []
    fresh = tf.checked_solve(op.matrix.with_rhs(rhs), "temperature",
                             fresh_sink)

    def refuse(*args, **kwargs):
        raise AssertionError("a system built by a held step")

    monkeypatch.setattr(tf.TridiagonalSystem, "__post_init__", refuse)
    monkeypatch.setattr(tf.TridiagonalSystem, "with_rhs", refuse)
    seen = []
    solve = tf.tridiag.thomas_solve

    def spy(system, factors=None):
        seen.append(system.rhs is factors.rhs_in)
        return solve(system, factors)

    monkeypatch.setattr(tf.tridiag, "thomas_solve", spy)
    sink = []
    held = op.advance(alpha, source, sink)
    assert seen == [True]
    assert op._factors.rhs_in.tobytes() == rhs.tobytes()
    assert held[:size].tobytes() == fresh.tobytes()
    assert sink == fresh_sink


def test_held_factorisation_grows_linearly():
    # BLOCK caps the block size, so the held operators take BLOCK + 2 floats
    # per row and the solve's work arrays 3 more (296 bytes at BLOCK = 32),
    # plus one padded block; with blocks of sqrt(m) rows they would grow as
    # m^1.5.  The interface operator, (2 blocks)^2 floats, is held only up
    # to INTERFACE_BLOCKS blocks (512 kB at m = 4096), so these 3125 blocks
    # carry by the scalar passes and hold none; the passes' coefficients
    # are two Python floats a block (about 2 bytes a row, not counted).
    # Views into held arrays hold no memory of their own.
    m = 100_000
    b = tf.tridiag.BLOCK
    main = np.full(m, 4.0)
    off = np.full(m - 1, -1.0)
    held = tf.tridiag._factor(off, main, off)
    nbytes = sum(a.nbytes for a in held
                 if isinstance(a, np.ndarray) and a.base is None)
    assert held.inverse.shape[1:] == (b, b)
    assert nbytes <= 8 * (b + 5) * (m + b)
    assert nbytes <= 296 * m


def test_singular_matrix_raises_on_every_call():
    rng = np.random.default_rng(23)
    singular = system([1, 0], [1, 1, 1], [1, 0], np.ones(3))
    for _ in range(3):
        with pytest.raises(tf.SingularSystemError) as exc:
            tf.thomas_solve(singular)
        assert exc.value.row == 1
    s = random_dominant_system(rng, 40)
    assert_matches_reference(s, tf.thomas_solve(s))


def test_import_loads_only_numpy_outside_stdlib():
    # the package's import time and memory stay those of numpy alone
    code = ("import sys; before = set(sys.modules); import thermistor_fem; "
            "print(' '.join(sorted({m.partition('.')[0] for m in sys.modules} "
            "- {m.partition('.')[0] for m in before})))")
    src = str(Path(tf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    loaded = set(out.stdout.split()) - set(sys.stdlib_module_names)
    assert loaded <= {"numpy", "thermistor_fem"}, loaded


def test_dense_oracle_singular():
    s = system([0], [0, 1], [0], [1, 1])
    with pytest.raises(tf.SingularSystemError):
        tf.dense_solve_oracle(s)


def test_thomas_does_not_mutate_input():
    rng = np.random.default_rng(7)
    s = random_dominant_system(rng, 12)
    copies = {n: getattr(s, n).copy() for n in ("sub", "main", "sup", "rhs")}
    tf.thomas_solve(s)
    for name, before in copies.items():
        np.testing.assert_array_equal(getattr(s, name), before)


def test_rejects_length_mismatch():
    with pytest.raises(ValueError):
        system([1, 2], [1, 1], [0], [1, 1])
    with pytest.raises(ValueError, match="size must be >= 1"):
        system([], [], [], [])
    with pytest.raises(ValueError, match="rhs must have length 2"):
        system([0], [1, 1], [0], [1, 1, 1])
    with pytest.raises(ValueError, match="rhs must have length 2"):
        system([0], [1, 1], [0], [1, 1]).with_rhs(np.ones(3))


@pytest.mark.parametrize("size", [1, 2, 7])
def test_matvec_is_the_dense_product(size):
    rng = np.random.default_rng(size)
    s = system(rng.standard_normal(size - 1), rng.standard_normal(size),
               rng.standard_normal(size - 1), np.zeros(size))
    x = rng.standard_normal(size)
    np.testing.assert_allclose(s.matvec(x), s.dense() @ x, rtol=1e-14,
                               atol=1e-15)


def test_rejects_non_finite():
    with pytest.raises(tf.NumericalFailureError):
        system([0], [1, np.nan], [0], [1, 1])


def test_residual_norm_examples():
    rng = np.random.default_rng(3)
    s = random_dominant_system(rng, 20)
    x = tf.thomas_solve(s)
    scale = 1.0 + np.max(np.abs(s.rhs))
    assert tf.residual_norm(s, x) <= 1e-12 * scale
    zero_res = tf.residual_norm(system([0], [1, 1], [0], [1, 1]), np.zeros(2))
    assert zero_res == pytest.approx(1.0)
    with pytest.raises(ValueError):
        tf.residual_norm(s, np.zeros(3))


def test_residual_of_perturbed_solution():
    rng = np.random.default_rng(11)
    s = random_dominant_system(rng, 16)
    x = tf.dense_solve_oracle(s)
    k, delta = 7, 1e-3
    x_pert = x.copy()
    x_pert[k] += delta
    res = tf.residual_norm(s, x_pert)
    # the row-k contribution |T_kk| * delta dominates for a dominant matrix
    assert res == pytest.approx(abs(s.main[k]) * delta, rel=1e-9)


def test_random_dominant_size50_residual():
    rng = np.random.default_rng(50)
    s = random_dominant_system(rng, 50)
    x = tf.dense_solve_oracle(s)
    assert tf.residual_norm(s, x) <= 1e-10 * (1.0 + np.max(np.abs(s.rhs)))


@settings(max_examples=150, deadline=None)
@given(size=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_thomas_matches_dense_oracle(size, seed):
    rng = np.random.default_rng(seed)
    s = random_dominant_system(rng, size)
    x_thomas = tf.thomas_solve(s)
    x_dense = tf.dense_solve_oracle(s)
    bound = 1e-10 * (1.0 + np.max(np.abs(x_dense)))
    assert np.max(np.abs(x_thomas - x_dense)) <= bound
