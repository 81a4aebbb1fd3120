"""Tridiagonal system container, Thomas solver, and a dense brute-force oracle."""

from __future__ import annotations

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
            if not np.all(np.isfinite(getattr(self, name))):
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


def thomas_solve(system: TridiagonalSystem) -> np.ndarray:
    """Direct O(m) elimination.  The input system is never mutated.

    Raises SingularSystemError (carrying the failing row) when a pivot falls
    below 1e-14 of the row's largest original coefficient.
    """
    # Python floats: per-element numpy indexing costs more than the arithmetic
    lower = [0.0] + system.sub.tolist()
    upper = system.sup.tolist() + [0.0]
    c = []  # modified superdiagonal from the forward sweep
    x = []
    c_prev = x_prev = 0.0
    for i, (a, b, d, r) in enumerate(zip(lower, system.main.tolist(), upper,
                                         system.rhs.tolist())):
        scale = max(abs(a), abs(b), abs(d))
        piv = b - a * c_prev
        if scale == 0.0 or abs(piv) < PIVOT_RTOL * scale:
            raise SingularSystemError(
                f"zero or near-zero pivot at row {i}", row=i)
        c_prev = d / piv
        x_prev = (r - a * x_prev) / piv
        c.append(c_prev)
        x.append(x_prev)
    for i in range(len(x) - 2, -1, -1):
        x_prev = x[i] = x[i] - c[i] * x_prev
    return np.array(x)


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
