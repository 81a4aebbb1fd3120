"""Tridiagonal system container, Thomas solver, and a dense brute-force oracle."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, SingularSystemError

# Relative pivot threshold: a pivot smaller than this times the row's largest
# original coefficient magnitude is treated as structurally singular.
PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class TridiagonalSystem:
    """One linear system T x = rhs with T tridiagonal.

    ``sub`` and ``sup`` have length m-1 for a system of size m.  All arrays
    are normalised to float64 and must be finite.
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
                  residual_sink: list | None = None) -> np.ndarray:
    """Solve with the contract every phase of a step shares.

    A singular pivot is re-raised as ``"<what> solve failed: ..."`` with the
    failing row kept, and a non-finite solution raises NumericalFailureError.
    ``residual_sink``, when given, receives the residual max-norm scaled by
    ``1 + max|rhs|`` (for run diagnostics).
    """
    try:
        x = thomas_solve(system)
    except SingularSystemError as exc:
        raise SingularSystemError(f"{what} solve failed: {exc}",
                                  row=exc.row) from exc
    if not np.isfinite(x).all():
        raise NumericalFailureError(f"{what} solve failed: non-finite solution")
    if residual_sink is not None:
        scale = 1.0 + float(np.max(np.abs(system.rhs)))
        residual_sink.append(residual_norm(system, x) / scale)
    return x


def thomas_solve(system: TridiagonalSystem) -> np.ndarray:
    """Direct O(m) elimination.  The input system is never mutated.

    Raises SingularSystemError (carrying the failing row) when a pivot falls
    below 1e-14 of the row's largest original coefficient.  The elimination
    of the matrix is reused while consecutive calls share it exactly, so a
    time loop that alternates two fixed matrices factors each of them once.
    """
    lower, pivots, upper = _factor(system.sub.tobytes(), system.main.tobytes(),
                                   system.sup.tobytes())
    x = []
    x_prev = 0.0
    for a, p, r in zip(lower, pivots, system.rhs.tolist()):
        x_prev = (r - a * x_prev) / p
        x.append(x_prev)
    for i in range(len(x) - 2, -1, -1):
        x_prev = x[i] = x[i] - upper[i] * x_prev
    return np.array(x)


# Keyed on the exact bytes of the three diagonals, so a hit returns what a
# fresh factorisation would: the cache changes no result, only its cost.  Two
# entries hold the potential and temperature matrices of a coupled step.
# Exceptions are not cached, so a singular matrix raises on every call.
@functools.lru_cache(maxsize=2)
def _factor(sub: bytes, main: bytes, sup: bytes
            ) -> tuple[tuple, tuple, tuple]:
    """Forward elimination of T = L U: the subdiagonal, the pivots and the
    modified superdiagonal, as tuples of Python floats."""
    sub, main, sup = (np.frombuffer(b) for b in (sub, main, sup))
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
    return tuple(lower), tuple(pivots), tuple(upper)


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
    tx = system.main * x
    tx[1:] += system.sub * x[:-1]
    tx[:-1] += system.sup * x[1:]
    return float(np.max(np.abs(tx - system.rhs)))
