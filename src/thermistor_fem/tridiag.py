"""Tridiagonal system container, Thomas solver, and a dense brute-force oracle.

The solver factors T = L U once per matrix and holds per-block operators;
a system of at most ``DENSE_BLOCKS * BLOCK`` = 128 rows also holds T^-1
and solves by one product with it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (NumericalFailureError, SingularSystemError, SolverError,
                     _own_state)

# Relative pivot threshold: a pivot smaller than this times the row's largest
# original coefficient magnitude is treated as structurally singular.
PIVOT_RTOL = 1e-14

# Rows per block of the blocked substitution.  A solve makes one batched
# product of (BLOCK x BLOCK) matrices and carries values between the m/BLOCK
# blocks; a factorisation takes BLOCK + 2 floats per row.
BLOCK = 32

# Most blocks for which a factorisation holds its interface operator, a dense
# (2 blocks)^2 matrix, 512 kB at the cap (m = 4096); larger ones carry by
# the two scalar passes.  The cap bounds memory: timed single-threaded on a
# 2-CPU host, the product was as fast as the passes or faster up to 160
# blocks, and slower at 256.
INTERFACE_BLOCKS = 128

# Most blocks for which a factorisation also holds T^-1, a dense m x m
# matrix, 128 kB at the cap (m = 128), and solves by one product with it.
# Timed single-threaded on a shared 2-CPU host (`tools/ab_pairs.py solve`,
# medians of 21 loops, three runs), the product took 0.17-0.46 of the block
# solve's time up to 128 rows, 0.9-1.2 of it at 256 and 1.9-2.3 times it at
# 384, while forming T^-1 made a one-off solve 0.96-1.25 times as slow up
# to 128 rows and 1.5-1.7 times at 256.
DENSE_BLOCKS = 4


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
@_own_state(over="ignore", invalid="ignore")
def checked_solve(system: TridiagonalSystem, what: str,
                  residual_sink: list | None = None) -> np.ndarray:
    """Solve a one-off system with the contract every phase of a step shares.

    A singular pivot is re-raised as ``"<what> solve failed: ..."`` with the
    failing row kept.  The solve is then checked by ``_check``, as every
    solve is: a non-finite solution raises NumericalFailureError, and
    ``residual_sink``, when given, receives the scaled residual (for run
    diagnostics).  The matrix is factored for this solve alone;
    ``TemperatureOperator.advance`` holds its factors.  The solve and the
    check run with overflow and invalid operations ignored.
    """
    with _named(what):
        factors = _factor(system.sub, system.main, system.sup)
    x = thomas_solve(system, factors)
    residual = _check(system, system.rhs, x, factors, what)
    if residual_sink is not None:
        residual_sink.append(residual)
    return x


@contextmanager
def _named(what: str):
    """Name a failure of a system's rows or of their factorisation
    ``"<what> solve failed: ..."``, in place, so a singular pivot keeps its
    row."""
    try:
        yield
    except SolverError as exc:
        exc.args = (f"{what} solve failed: {exc}",)
        raise


def _check(system: TridiagonalSystem, rhs: np.ndarray, x: np.ndarray,
           factors: _Factors | None, what: str):
    """The check of a solve of ``system``'s rows: the residual
    ``max|T x - rhs| / (1 + max|rhs|)``, formed in the work arrays of
    ``factors`` (new arrays if None), of one system (a float) or of each of
    a stack of systems, m on the last axis (an array).  A non-finite x
    raises NumericalFailureError naming a non-finite rhs, or else the
    solution.  Runs in the caller's error state."""
    if factors is None:
        res = _product(system, x, None)
    else:
        res = _product(system, x, factors.residual, factors.row)
    res -= rhs
    residual = np.maximum.reduce(np.abs(res, out=res), -1)
    peak = np.maximum.reduce(np.abs(rhs, out=res), -1)
    if x.ndim == 1:  # Python floats: numpy scalars cost more per step
        residual, peak = float(residual), float(peak)
        finite = math.isfinite(residual)
    else:
        finite = np.isfinite(residual).all()
    # a non-finite x_i makes row i of T x - rhs non-finite (main_i x_i is
    # inf or NaN, and no addend brings that back), so a finite residual
    # shows a finite x; a finite x with an overflowed residual is recorded
    if not finite and not np.isfinite(x).all():
        bad = "solution" if np.isfinite(rhs).all() else "entries in rhs"
        raise NumericalFailureError(f"{what} solve failed: non-finite {bad}")
    return residual / (1.0 + peak)


def thomas_solve(system: TridiagonalSystem,
                 factors: _Factors | None = None) -> np.ndarray:
    """Direct elimination, O(m) beyond 128 rows.  The input system is
    never mutated.

    Raises SingularSystemError (carrying the failing row) when a pivot falls
    below 1e-14 of the row's largest original coefficient.  The matrix is
    factored for this solve alone, unless the caller passes the ``factors``
    held for it (``TemperatureOperator`` holds them); both give the same
    bits.  The solve returns a fresh array, unchecked: its callers check it
    after it runs, by ``_check``.  The array lies at the start of a buffer
    with one spare entry past it, which ``_spare`` gives to a caller that
    appends a boundary value.  It runs in the caller's floating-point
    error state, so an overflow or a non-finite rhs gives a non-finite
    solution and numpy's RuntimeWarning, unless the caller silences it as
    ``checked_solve`` and ``TemperatureOperator.advance`` do.

    Factors that hold T^-1 (at most ``DENSE_BLOCKS`` blocks, see
    ``_Factors``) solve by the one product ``T^-1 rhs``, read from
    ``system.rhs`` where it lies, into the first m entries of the buffer.
    Larger ones copy the rhs into their rhs block, unless ``system.rhs`` is
    that block (the held step forms its rhs there), solve every block at
    once by one batched product, and carry between the blocks by
    ``_block_solve`` (Wang's partition method) into the buffer, whose
    padding past m holds the spare entry.
    """
    if factors is None:
        factors = _factor(system.sub, system.main, system.sup)
    m = factors.size
    if factors.dense is not None:
        x = np.empty(m + 1)[:m]
        return np.dot(factors.dense, system.rhs, out=x)
    if system.rhs is not factors.rhs_in:
        factors.rhs_in[:] = system.rhs
    local = np.matmul(factors.inverse, factors.padded, out=factors.product)
    nb, b, _ = local.shape
    # with no padding (b divides m), one more entry
    buffer = np.empty(max(nb * b, m + 1))
    _block_solve(factors, local, buffer[:nb * b].reshape(nb, b, 1))
    return buffer[:m]


def _spare(x: np.ndarray) -> np.ndarray:
    """A solve's result ``x`` and the spare entry past it, for a caller to
    append a boundary value: the m + 1 first entries of the buffer
    ``thomas_solve`` wrote it in, with no copy."""
    return x.base[:x.shape[0] + 1]


def _block_solve(factors: _Factors, local: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The solution of k right-hand sides from their block solutions
    ``local`` = G_k r_k, (blocks, b, k), formed in ``out`` (a new array if
    None): each block adds its carry vectors times the e and f it receives,
    which one product with R gives, or ``_passes`` where R is not held.
    """
    nb, b, k = local.shape
    if factors.interface is not None:
        # every block's last then first entries, gathered by one copy of
        # a strided view; a single row is both, and its step would be 0
        ends = np.concatenate((local[:, -1], local[:, 0])) if b == 1 else \
            local[:, ::1 - b].transpose(1, 0, 2).reshape(2 * nb, k)
        received = np.matmul(factors.interface, ends)
    else:
        # one rhs, as T^-1 is formed only with R
        received = [0.0] * (2 * nb)
        _passes(local[:, -1, 0].tolist(), local[:, 0, 0], *factors.passes,
                received)
        received = np.fromiter(received, float, 2 * nb)
    carried = received.reshape(2, nb, k).transpose(1, 0, 2)
    x = np.matmul(factors.carries, carried, out=out)
    x += local
    return x


def _passes(z, w, t: list, g: np.ndarray, u: list, received) -> None:
    """The forward pass ``e_k = t_k e_(k-1) + z_k`` and the backward pass
    ``f_k = u_k f_(k+1) + (g_k e_(k-1) + w_k)``, from e_(-1) = f_nb = 0:
    block k receives e_(k-1) in ``received[k]`` and f_(k+1) in
    ``received[nb + k]``.  A solve runs them on Python floats into a list;
    on the rows of the identity, with ``g`` a column, they write the rows
    of R to an array.
    """
    nb = len(t)
    e = 0.0
    for k, tk, zk in zip(range(nb), t, z):
        received[k] = e
        e = tk * e + zk
    fed = g * np.asarray(received[:nb]) + w
    if fed.ndim == 1:  # Python floats: numpy scalars cost more per step
        fed = fed.tolist()
    f = 0.0
    for k in range(nb - 1, -1, -1):
        received[nb + k] = f
        f = u[k] * f + fed[k]


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
    which the forward pass reads.

    The two passes of ``_passes`` read the last and first local entries
    z and w of each block and its coefficients t, g and u: the last and
    first entries of ``U_k^-1 l_k`` and the first of u_k.  The values
    received, e_(k-1) and f_(k+1), are linear in (z, w):
    ``[into; back] = R [z; w]`` with R =
    ``[[S E, 0], [S^T F diag(g) S E, S^T F]]``, where E and F are the
    inverses of the unit bidiagonal matrices of t and u and S shifts by
    one block; the passes, run on the rows of the identity, make it.
    ``interface`` holds R when there are at most ``INTERFACE_BLOCKS``
    blocks and all of its entries are finite, and is None otherwise.

    ``dense`` holds T^-1 when there are at most ``DENSE_BLOCKS`` blocks, R
    is held and all of T^-1's entries are finite; it is None otherwise.
    T^-1 is ``_block_solve`` of the first m unit vectors, whose block
    solutions are ``blockdiag(G_k)``.  Its solve reads the rhs where it
    lies and uses none of the work arrays; a held step still forms its rhs
    in ``rhs_in``.

    A product with T or with rows of its shape, which a held step makes
    before and after its solve, adds its off-diagonal terms from ``row``,
    the first m - 1 entries of ``product``, which no solve reads then.

    A solve overwrites the work arrays, so one set of factors serves one
    solve at a time; nothing a solve returns is a view of them.
    """

    size: int
    inverse: np.ndarray  # (blocks, b, b): G_k
    carries: np.ndarray  # (blocks, b, 2): U_k^-1 l_k and u_k
    interface: np.ndarray | None  # (2 blocks, 2 blocks): R
    passes: tuple  # t and u as lists of Python floats, g an array
    padded: np.ndarray  # (blocks, b, 1): the rhs r_k, its padding kept 0
    rhs_in: np.ndarray  # padded's first m entries, where the rhs goes
    product: np.ndarray  # (blocks, b, 1): G_k r_k
    row: np.ndarray  # product's first m - 1 entries, a product's work row
    residual: np.ndarray  # (m,): T x - rhs
    dense: np.ndarray | None  # (m, m): T^-1


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
    return _block_operators(lower, pivots, upper)


# an inverse or an interface operator that overflows is not held
@_own_state(over="ignore", invalid="ignore")
def _block_operators(lower: list, pivots: list, upper: list) -> _Factors:
    """Invert each block's part of L and U, for all blocks at once, and
    multiply the inverses; then R and T^-1 where they are held.

    Padding rows (a = 0, p = 1, c = 0) follow the last real row, whose c is
    0, so they neither read from nor feed into the real rows.
    """
    m = len(pivots)
    b = min(BLOCK, m)
    nb = -(-m // b)
    pad = nb * b - m

    def by_block(values, fill):
        # (nb, b): entry [k, i] belongs to row i of block k
        return np.fromiter(values + [fill] * pad, float,
                           nb * b).reshape(nb, b)

    a, p, c = by_block(lower, 0.0), by_block(pivots, 1.0), by_block(upper, 0.0)
    # L^-1[i, j] = (1 / p_j) * prod_{j < l <= i} (-a_l / p_l), and U read
    # with its rows and columns reversed is unit lower bidiagonal with
    # factors -c, so one recurrence down the rows makes every block of both:
    # row i = row i-1 times the factor of row i, left of the diagonal.  The
    # rows are held first, so a step reads one compact (2 blocks, i) slab.
    factor = np.concatenate((-a / p, -c[:, ::-1])).T[:, :, None]
    inv = np.zeros((b, 2 * nb, b))
    rows = np.arange(b)
    inv[rows, :, rows] = np.concatenate((1.0 / p, np.ones((nb, b)))).T
    for i in range(1, b):
        np.multiply(inv[i - 1, :, :i], factor[i], out=inv[i, :, :i])
    inv = inv.transpose(1, 0, 2)
    upper_inv = inv[nb:, ::-1, ::-1]
    inverse = np.matmul(upper_inv, inv[:nb])
    carries = np.stack((-a[:, :1] * inverse[:, :, 0],
                        -c[:, b - 1:] * upper_inv[:, :, b - 1]), axis=2)
    passes = (carries[:, -1, 0].tolist(), carries[:, 0, 0],
              carries[:, 0, 1].tolist())
    interface = None
    if nb <= INTERFACE_BLOCKS:
        # the passes on every unit vector at once make R's rows
        t, g, u = passes
        unit = np.eye(2 * nb)
        interface = np.empty((2 * nb, 2 * nb))
        _passes(unit[:nb], unit[nb:], t, g[:, None], u, interface)
        if not np.isfinite(interface).all():
            interface = None
    padded = np.zeros((nb, b, 1))
    product = np.empty((nb, b, 1))
    factors = _Factors(size=m, inverse=inverse, carries=carries,
                       interface=interface, passes=passes,
                       padded=padded, rhs_in=padded.reshape(-1)[:m],
                       product=product, row=product.reshape(-1)[:m - 1],
                       residual=np.empty(m), dense=None)
    if interface is None or nb > DENSE_BLOCKS:
        return factors
    # T^-1 is the first m rows of the result, contiguous, so np.dot
    # reads them where they lie
    local = np.zeros((nb, b, nb, b))
    blocks = np.arange(nb)
    local[blocks, :, blocks] = inverse
    full = _block_solve(factors, local.reshape(nb, b, nb * b)[:, :, :m])
    dense = full.reshape(nb * b, m)[:m]
    return factors._replace(dense=dense) if np.isfinite(dense).all() \
        else factors


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
             out: np.ndarray | None,
             row: np.ndarray | None = None) -> np.ndarray:
    """T x formed in ``out`` (a new array if None): main * x, then the
    subdiagonal and the superdiagonal terms, each formed in the work row
    ``row`` (m - 1 entries, a new array if None), added in place.  ``x`` is
    one vector or a stack of them, m on the last axis."""
    out = np.multiply(system.main, x, out)
    # one vector's plain slices cost less than a stack's ``x[..., 1:]``
    if x.ndim == 1:
        lead, rest, below, above = x[:-1], x[1:], out[1:], out[:-1]
    else:
        lead, rest = x[..., :-1], x[..., 1:]
        below, above = out[..., 1:], out[..., :-1]
    # added through views: ``out[1:] += ...`` would also copy the view
    # back onto itself
    row = np.multiply(system.sub, lead, row)
    below += row
    np.multiply(system.sup, rest, row)
    above += row
    return out
