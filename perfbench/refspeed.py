"""Host-speed reference for normalising timings.

The shared host this benchmark runs on changes speed by up to 2x over
fractions of a second to minutes, in wall and CPU time alike, so a raw
timing mostly measures when it was taken.  ``kernel`` is fixed code of the
same kind as the program's hot path: a Thomas solve written as a Python loop
over numpy arrays, then ``repr`` formatting of part of the solution.  It
never calls the program, so a change to the program cannot move it.

The host's speed also changes within a second, so one short kernel timing
is a poor sample of it.  ``reference_s`` runs the kernel back to back for a
given share of the timed run's length and returns the mean kernel time over
that block.  A run of wall time ``t`` between blocks of mean ``r1`` and
``r2`` is reported as ``t * REF_S / ((r1 + r2) / 2)``: the time it would have
taken on a host that runs the kernel in ``REF_S`` seconds.  The raw timings
stay in the ``--out`` record.
"""

from __future__ import annotations

import io
from time import perf_counter

import numpy as np

# the kernel's median time on the 2-vCPU host the bounds were set on
REF_S = 0.003
ROWS = 1001
MIN_REPEATS = 5


def kernel() -> float:
    """One fixed unit of work; returns a value so nothing is skipped."""
    n = ROWS
    i = np.arange(n, dtype=float)
    sub = 0.3 + 1e-4 * i[:-1]
    sup = 0.2 + 1e-4 * i[1:]
    main = 4.0 + 1e-3 * i
    rhs = np.sin(i)
    cp = np.empty(n - 1)
    dp = np.empty(n)
    cp[0] = sup[0] / main[0]
    dp[0] = rhs[0] / main[0]
    for k in range(1, n):
        den = main[k] - sub[k - 1] * cp[k - 1]
        if k < n - 1:
            cp[k] = sup[k] / den
        dp[k] = (rhs[k] - sub[k - 1] * dp[k - 1]) / den
    x = np.empty(n)
    x[-1] = dp[-1]
    for k in range(n - 2, -1, -1):
        x[k] = dp[k] - cp[k] * x[k + 1]
    buf = io.StringIO()
    for k in range(0, n, 4):
        buf.write(f"{k / (n - 1)!r},{x[k]!r}\n")
    return float(x[0]) + len(buf.getvalue())


def reference_s(seconds: float = 0.0) -> float:
    """Mean kernel time over a block of at least ``seconds`` seconds."""
    runs = 0
    t0 = perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = perf_counter() - t0
        if runs >= MIN_REPEATS and elapsed >= seconds:
            return elapsed / runs


def warm_up() -> None:
    """The first runs in a fresh interpreter are slower; discard them."""
    reference_s()
