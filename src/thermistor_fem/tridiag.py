"""Tridiagonal system container, Thomas solver, and a dense brute-force oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailureError, SingularSystemError

# Relative pivot threshold: a pivot smaller than this times the row's largest
# original coefficient magnitude is treated as structurally singular.
PIVOT_RTOL = 1e-14

# Rows per block of the blocked substitution.  A solve makes two batched
# products of (BLOCK x BLOCK) matrices and two scalar passes over the m/BLOCK
# blocks; the held factorisation takes 2 * BLOCK + 2 floats per row.
BLOCK = 32


@dataclass(frozen=True)
class TridiagonalSystem:
    """One linear system T x = rhs with T tridiagonal.

    ``sub`` and ``sup`` have length m-1 for a system of size m.  All arrays
    are normalised to float64 and must be finite, and are not changed in
    place once the system is built.
    """

    sub: np.ndarray
    main: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        for name in ("sub", "main", "sup", "rhs"):
            object.__setattr__(self, name,
                               np.ascontiguousarray(getattr(self, name), dtype=float))
        m = self.main.shape[0]
        if m < 1:
            raise ValueError("system size must be >= 1")
        if self.rhs.shape != (m,):
            raise ValueError(f"rhs must have length {m}, got {self.rhs.shape}")
        if self.sub.shape != (m - 1,) or self.sup.shape != (m - 1,):
            raise ValueError(
                f"sub/sup must have length {m - 1}, got {self.sub.shape}/{self.sup.shape}")
        for name in ("sub", "main", "sup", "rhs"):
            if not np.isfinite(getattr(self, name)).all():
                raise NumericalFailureError(f"non-finite entries in {name}")

    def with_rhs(self, rhs: np.ndarray) -> TridiagonalSystem:
        """The same matrix, checked when it was built, and the same arrays,
        with another right-hand side; only ``rhs`` is checked."""
        rhs = np.ascontiguousarray(rhs, dtype=float)
        if rhs.shape != self.rhs.shape:
            raise ValueError(f"rhs must have length {self.size}, got {rhs.shape}")
        if not np.isfinite(rhs).all():
            raise NumericalFailureError("non-finite entries in rhs")
        new = object.__new__(TridiagonalSystem)
        new.__dict__.update(self.__dict__, rhs=rhs)
        return new

    @property
    def size(self) -> int:
        return self.main.shape[0]

    def dense(self) -> np.ndarray:
        """Dense copy of the matrix, for oracles and inspection."""
        m = self.size
        full = np.zeros((m, m))
        full[np.arange(m), np.arange(m)] = self.main
        if m > 1:
            full[np.arange(1, m), np.arange(m - 1)] = self.sub
            full[np.arange(m - 1), np.arange(1, m)] = self.sup
        return full


def checked_solve(system: TridiagonalSystem, what: str,
                  residual_sink: list | None = None,
                  held: HeldFactorisation | None = None) -> np.ndarray:
    """Solve with the contract every phase of a step shares.

    A singular pivot is re-raised as ``"<what> solve failed: ..."`` with the
    failing row kept, and a non-finite solution raises NumericalFailureError.
    ``residual_sink``, when given, receives the residual max-norm scaled by
    ``1 + max|rhs|`` (for run diagnostics).  ``held`` is passed on to
    ``thomas_solve``.
    """
    try:
        x = thomas_solve(system, held)
    except SingularSystemError as exc:
        raise SingularSystemError(f"{what} solve failed: {exc}",
                                  row=exc.row) from exc
    if not np.isfinite(x).all():
        raise NumericalFailureError(f"{what} solve failed: non-finite solution")
    if residual_sink is not None:
        scale = 1.0 + float(np.max(np.abs(system.rhs)))
        residual_sink.append(residual_norm(system, x) / scale)
    return x


def thomas_solve(system: TridiagonalSystem,
                 held: HeldFactorisation | None = None) -> np.ndarray:
    """Direct O(m) elimination.  The input system is never mutated.

    Raises SingularSystemError (carrying the failing row) when a pivot falls
    below 1e-14 of the row's largest original coefficient.  Without ``held``
    the matrix is factored for this solve alone; with it, the factorisation
    that the owner of the matrix holds is used (see ``HeldFactorisation``).
    Both triangular solves run block by block (see ``_substitute``).
    """
    factors = (held or HeldFactorisation()).factors(system)
    nb, b = factors.lower_carry.shape
    r = np.zeros(nb * b)
    r[:factors.size] = system.rhs
    # an overflow shows as a non-finite solution, which checked_solve reports
    with np.errstate(over="ignore", invalid="ignore"):
        y = _substitute(factors.lower_inv, factors.lower_carry,
                        r.reshape(nb, b), backward=False)
        x = _substitute(factors.upper_inv, factors.upper_carry, y,
                        backward=True)
    return x.reshape(-1)[:factors.size]


def _substitute(inverse: np.ndarray, carry: np.ndarray, r: np.ndarray,
                backward: bool) -> np.ndarray:
    """One bidiagonal solve by blocks of rows (Wang's partition method).

    Each block is solved with its explicit inverse as if nothing came in
    from its neighbour, in one batched product.  The value the neighbour
    reads (a block's last entry going forward, its first going backward)
    is then carried from block to block by a scalar recurrence, and each
    block adds its carry vector times the value it received.
    """
    local = np.matmul(inverse, r[:, :, None])[:, :, 0]
    nb = len(local)
    edge = 0 if backward else -1
    z, t = local[:, edge].tolist(), carry[:, edge].tolist()
    into = [0.0] * nb
    value = 0.0
    for k in (range(nb - 1, -1, -1) if backward else range(nb)):
        into[k] = value
        value = z[k] + t[k] * value
    return local + carry * np.array(into)[:, None]


class _Factors(NamedTuple):
    """T = L U held as per-block operators.

    L is lower bidiagonal (subdiagonal a_i, pivots p_i) and U unit upper
    bidiagonal (superdiagonal c_i).  The m rows are cut into blocks of
    ``b = min(BLOCK, m)`` rows, the last one padded with identity rows.
    ``lower_inv[k]`` is the inverse of block k's part of L, and
    ``lower_carry[k]`` is the response of its solution to the previous
    block's last entry: ``-a_(first row) * lower_inv[k][:, 0]``.
    ``upper_inv`` and ``upper_carry`` are the same for U, with the carry
    coming from the next block's first entry.
    """

    size: int
    lower_inv: np.ndarray  # (blocks, b, b)
    lower_carry: np.ndarray  # (blocks, b)
    upper_inv: np.ndarray
    upper_carry: np.ndarray


class HeldFactorisation:
    """The factorisation of a matrix, held by whoever owns the matrix.

    ``factors(system)`` factors anew only when the diagonals differ from the
    held ones, so an owner whose matrix never changes factors it once; the
    held arrays themselves (``TridiagonalSystem.with_rhs``) are not compared,
    as a system's arrays are never changed in place.  Holding changes no
    result, only its cost.  A singular matrix is not held.
    """

    _matrix = (None, None, None)
    _factors = None

    def factors(self, system: TridiagonalSystem) -> _Factors:
        matrix = (system.sub, system.main, system.sup)
        if not all(new is old or np.array_equal(new, old)
                   for new, old in zip(matrix, self._matrix)):
            self._factors, self._matrix = _factor(*matrix), matrix
        return self._factors


def _factor(sub: np.ndarray, main: np.ndarray, sup: np.ndarray) -> _Factors:
    """Forward elimination of T = L U, checked by the pivot rule, and the
    block operators of both triangular solves."""
    # Python floats: per-element numpy indexing costs more than the arithmetic
    lower = [0.0] + sub.tolist()
    pivots = []
    upper = []
    c_prev = 0.0
    try:
        for a, b, d in zip(lower, main.tolist(), sup.tolist() + [0.0]):
            piv = b - a * c_prev
            pivots.append(piv)
            c_prev = d / piv
            upper.append(c_prev)
    except ZeroDivisionError:
        pass  # an exact zero pivot ends the sweep; its row fails below
    # the pivot rule on every row the sweep reached; up to the first failing
    # row, each pivot is the one a row-by-row check would have seen
    m = len(pivots)
    scale = np.abs(main)
    scale[1:] = np.maximum(scale[1:], np.abs(sub))
    scale[:-1] = np.maximum(scale[:-1], np.abs(sup))
    scale = scale[:m]
    bad = (scale == 0.0) | (np.abs(pivots) < PIVOT_RTOL * scale)
    # also where 1e-14 of a subnormal row scale rounds to zero
    bad[-1] |= len(upper) < m
    if bad.any():
        row = int(np.argmax(bad))
        raise SingularSystemError(f"zero or near-zero pivot at row {row}",
                                  row=row)
    with np.errstate(over="ignore", invalid="ignore"):
        return _block_operators(lower, pivots, upper)


def _block_operators(lower: list, pivots: list, upper: list) -> _Factors:
    """Invert each block's part of L and U, for all blocks at once.

    Padding rows (a = 0, p = 1, c = 0) follow the last real row, whose c is
    0, so they neither read from nor feed into the real rows.
    """
    m = len(pivots)
    b = min(BLOCK, m)
    nb = -(-m // b)
    pad = nb * b - m

    def by_block(values, fill):
        # (nb, b): entry [k, i] belongs to row i of block k
        return np.concatenate((values, np.full(pad, fill))).reshape(nb, b)

    a, p, c = by_block(lower, 0.0), by_block(pivots, 1.0), by_block(upper, 0.0)
    # L^-1[i, j] = (1 / p_j) * prod_{j < l <= i} (-a_l / p_l), and U read
    # with its rows and columns reversed is unit lower bidiagonal with
    # factors -c, so one recurrence down the rows makes every block of both:
    # row i = row i-1 times the factor of row i, left of the diagonal
    factor = np.concatenate((-a / p, -c[:, ::-1]))
    inv = np.zeros((2 * nb, b, b))
    rows = np.arange(b)
    inv[:, rows, rows] = np.concatenate((1.0 / p, np.ones((nb, b))))
    for i in range(1, b):
        np.multiply(inv[:, i - 1, :i], factor[:, i, None], out=inv[:, i, :i])
    # copies, so that the solves read contiguous arrays and no view keeps
    # the work array alive
    lower_inv = inv[:nb].copy()
    upper_inv = inv[nb:, ::-1, ::-1].copy()
    return _Factors(size=m, lower_inv=lower_inv,
                    lower_carry=-a[:, :1] * lower_inv[:, :, 0],
                    upper_inv=upper_inv,
                    upper_carry=-c[:, b - 1:] * upper_inv[:, :, b - 1])


def dense_solve_oracle(system: TridiagonalSystem) -> np.ndarray:
    """Solve via dense LU with partial pivoting; test oracle for thomas_solve."""
    try:
        return np.linalg.solve(system.dense(), system.rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"dense solve failed: {exc}") from exc


def residual_norm(system: TridiagonalSystem, x: np.ndarray) -> float:
    """Max-norm of T x - rhs."""
    x = np.asarray(x, dtype=float)
    if x.shape != (system.size,):
        raise ValueError(f"solution length {x.shape} does not match system size {system.size}")
    # a solution near the overflow threshold has an infinite residual
    with np.errstate(over="ignore", invalid="ignore"):
        tx = system.main * x
        tx[1:] += system.sub * x[:-1]
        tx[:-1] += system.sup * x[1:]
        return float(np.max(np.abs(tx - system.rhs)))
