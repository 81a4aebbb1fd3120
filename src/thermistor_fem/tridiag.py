"""Tridiagonal system container, Thomas solver, and a dense brute-force oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailureError, SingularSystemError

# Relative pivot threshold: a pivot smaller than this times the row's largest
# original coefficient magnitude is treated as structurally singular.
PIVOT_RTOL = 1e-14

# Rows per block of the blocked substitution.  A solve makes one batched
# product of (BLOCK x BLOCK) matrices and two scalar passes over the m/BLOCK
# blocks; a factorisation takes BLOCK + 2 floats per row.
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
        # max|rhs| is NaN or inf exactly when an entry is, and it is kept
        # as the residual's scale
        peak = float(np.abs(rhs).max())
        if not math.isfinite(peak):
            raise NumericalFailureError("non-finite entries in rhs")
        new = object.__new__(TridiagonalSystem)
        new.__dict__.update(self.__dict__, rhs=rhs, _rhs_peak=peak)
        return new

    @cached_property
    def _rhs_peak(self) -> float:
        """max|rhs|, which ``with_rhs`` takes when it checks the rhs."""
        return float(np.abs(self.rhs).max())

    @property
    def size(self) -> int:
        return self.main.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product T x, by three numpy slice operations."""
        return _product(self, x, np.empty(self.size))

    def dense(self) -> np.ndarray:
        """Dense copy of the matrix, for oracles and inspection."""
        full = np.diag(self.main)
        full.flat[self.size::self.size + 1] = self.sub  # entries (i + 1, i)
        full.flat[1::self.size + 1] = self.sup  # entries (i, i + 1)
        return full


# an overflow shows as a non-finite solution or residual
@np.errstate(over="ignore", invalid="ignore")
def checked_solve(system: TridiagonalSystem, what: str,
                  residual_sink: list | None = None) -> np.ndarray:
    """Solve a one-off system with the contract every phase of a step shares.

    A singular pivot is re-raised as ``"<what> solve failed: ..."`` with the
    failing row kept, and a non-finite solution raises NumericalFailureError.
    ``residual_sink``, when given, receives the residual max-norm scaled by
    ``1 + max|rhs|`` (for run diagnostics).  The matrix is factored for this
    solve alone; ``TemperatureOperator.advance`` holds its factors and
    checks its solves the same way.  The solve and the residual run with
    overflow and invalid operations ignored.
    """
    try:
        factors = _factor(system.sub, system.main, system.sup)
        return _checked_substitution(system, factors, system._rhs_peak, what,
                                     residual_sink)
    except SingularSystemError as exc:
        raise SingularSystemError(f"{what} solve failed: {exc}",
                                  row=exc.row) from exc


def _checked_substitution(system: TridiagonalSystem, factors: _Factors,
                          peak: float, what: str,
                          residual_sink: list | None) -> np.ndarray:
    """``thomas_solve`` by ``factors``, with ``checked_solve``'s checks:
    the residual, formed in the factors' residual array and scaled by
    ``1 + peak`` (``peak = max|rhs|``), goes to ``residual_sink``, and a
    non-finite solution raises.  Runs in the caller's error state."""
    x = thomas_solve(system, factors)
    residual = None
    if residual_sink is not None:
        res = _product(system, x, factors.residual)
        res -= system.rhs
        residual = float(np.abs(res, res).max())
    # a non-finite x_i makes row i of T x - rhs non-finite (main_i x_i is
    # inf or NaN, and no addend brings that back), so a finite residual
    # shows a finite x; a finite x with an overflowed residual is recorded
    if (residual is None or not math.isfinite(residual)) \
            and not np.isfinite(x).all():
        raise NumericalFailureError(f"{what} solve failed: non-finite solution")
    if residual_sink is not None:
        residual_sink.append(residual / (1.0 + peak))
    return x


def thomas_solve(system: TridiagonalSystem,
                 factors: _Factors | None = None) -> np.ndarray:
    """Direct O(m) elimination.  The input system is never mutated.

    Raises SingularSystemError (carrying the failing row) when a pivot falls
    below 1e-14 of the row's largest original coefficient.  The matrix is
    factored for this solve alone, unless the caller passes the ``factors``
    held for it (``TemperatureOperator`` holds them); both give the same
    bits.  The solve works in the arrays held with its factors and returns
    a fresh array; the rhs is copied into their rhs block unless
    ``system.rhs`` is that block (the held step forms its rhs there).  It
    runs in the caller's floating-point error state, so an overflow gives a
    non-finite solution and numpy's RuntimeWarning, unless the caller
    silences it as ``checked_solve`` does.

    Both triangular solves run block by block in one pass (Wang's partition
    method).  One batched product solves every block as if nothing came in
    from its neighbours.  Two scalar passes over the blocks then carry the
    values the neighbours read: going forward, the last entry ``e`` of L's
    solution, and going backward, the first entry ``f`` of the solution.
    Each block finally adds its carry vectors times the values it received
    (see ``_Factors``).
    """
    if factors is None:
        factors = _factor(system.sub, system.main, system.sup)
    if system.rhs is not factors.rhs_in:
        factors.rhs_in[:] = system.rhs
    np.matmul(factors.inverse, factors.padded, out=factors.product)
    local = factors.local
    z, t = local[:, -1].tolist(), factors.lower_last
    nb = len(z)
    into = [0.0] * nb  # e of the previous block
    e = 0.0
    for k in range(nb):
        into[k] = e
        e = z[k] + t[k] * e
    w, g, u = local[:, 0].tolist(), factors.lower_first, factors.upper_first
    back = [0.0] * nb  # f of the next block
    f = 0.0
    for k in range(nb - 1, -1, -1):
        back[k] = f
        f = w[k] + g[k] * into[k] + u[k] * f
    # one flat array: a tuple of lists goes through numpy's shape discovery
    received = np.fromiter(chain(into, back), float, 2 * nb)
    carry = np.multiply(factors.carries, received.reshape(2, nb, 1),
                        out=factors.carry)
    x = local + carry[0]
    x += carry[1]
    return x.reshape(-1)[:factors.size]


class _Factors(NamedTuple):
    """T = L U held as per-block operators, with the work arrays of its
    solves.

    L is lower bidiagonal (subdiagonal a_i, pivots p_i) and U unit upper
    bidiagonal (superdiagonal c_i).  The m rows are cut into blocks of
    ``b = min(BLOCK, m)`` rows, the last one padded with identity rows.
    Block k of L's solution is ``L_k^-1 r_k + l_k e``, where e is the last
    entry of L's solution in block k-1 and ``l_k = -a_(first row) *
    L_k^-1[:, 0]``.  Block k of the solution is ``U_k^-1 y_k + u_k f``,
    where f is the first entry of the solution in block k+1 and
    ``u_k = -c_(last row) * U_k^-1[:, b-1]``.  Together,
    ``x_k = G_k r_k + (U_k^-1 l_k) e + u_k f`` with ``G_k = U_k^-1 L_k^-1``.
    The last row of U_k^-1 is that of the identity, so the last entries of
    ``G_k r_k`` and ``U_k^-1 l_k`` are those of ``L_k^-1 r_k`` and ``l_k``,
    which the forward pass reads.  The carry entries the scalar passes
    read are held as Python floats.

    A solve overwrites the work arrays, so one set of factors serves one
    solve at a time; nothing a solve returns is a view of them.
    """

    size: int
    inverse: np.ndarray  # (blocks, b, b): G_k
    carries: np.ndarray  # (2, blocks, b): U_k^-1 l_k, then u_k
    lower_last: list  # carries[0, :, -1]
    lower_first: list  # carries[0, :, 0]
    upper_first: list  # carries[1, :, 0]
    padded: np.ndarray  # (blocks, b, 1): the rhs r_k, its padding kept 0
    rhs_in: np.ndarray  # padded's first m entries, where the rhs goes
    product: np.ndarray  # (blocks, b, 1): G_k r_k
    local: np.ndarray  # product as (blocks, b)
    carry: np.ndarray  # (2, blocks, b): the carries times e and f
    residual: np.ndarray  # (m,): T x - rhs


def _factor(sub: np.ndarray, main: np.ndarray, sup: np.ndarray) -> _Factors:
    """Forward elimination of T = L U, checked by the pivot rule, and the
    block operators of the solve."""
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
    """Invert each block's part of L and U, for all blocks at once, and
    multiply the inverses.

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
    upper_inv = inv[nb:, ::-1, ::-1]
    inverse = np.matmul(upper_inv, inv[:nb])
    carries = np.stack((-a[:, :1] * inverse[:, :, 0],
                        -c[:, b - 1:] * upper_inv[:, :, b - 1]))
    padded, product = np.zeros((nb, b, 1)), np.empty((nb, b, 1))
    return _Factors(size=m, inverse=inverse, carries=carries,
                    lower_last=carries[0, :, -1].tolist(),
                    lower_first=carries[0, :, 0].tolist(),
                    upper_first=carries[1, :, 0].tolist(),
                    padded=padded, rhs_in=padded.reshape(-1)[:m],
                    product=product, local=product[:, :, 0],
                    carry=np.empty((2, nb, b)), residual=np.empty(m))


def dense_solve_oracle(system: TridiagonalSystem) -> np.ndarray:
    """Solve via dense LU with partial pivoting; test oracle for thomas_solve."""
    try:
        return np.linalg.solve(system.dense(), system.rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"dense solve failed: {exc}") from exc


def residual_norm(system: TridiagonalSystem, x: np.ndarray) -> float:
    """Max-norm of T x - rhs, formed in place in the product's array: the
    sums of ``checked_solve``'s residual, in the same order."""
    x = np.asarray(x, dtype=float)
    if x.shape != (system.size,):
        raise ValueError(f"solution length {x.shape} does not match system size {system.size}")
    # a solution near the overflow threshold has an infinite residual
    with np.errstate(over="ignore", invalid="ignore"):
        tx = system.matvec(x)
        tx -= system.rhs
        return float(np.abs(tx, out=tx).max())


def _product(system: TridiagonalSystem, x: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """T x formed in ``out``: main * x, then the subdiagonal and the
    superdiagonal terms added in place."""
    np.multiply(system.main, x, out)
    out[1:] += system.sub * x[:-1]
    out[:-1] += system.sup * x[1:]
    return out
