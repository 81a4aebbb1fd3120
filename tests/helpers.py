"""Shared test utilities: random system generators, the reference Thomas
sweep, checked solve and held step, the reference coupled stepper, the
reference series CSV writer, quadrature oracles and a Chebyshev oracle of
the rational-sigma steady state."""

from __future__ import annotations

import dataclasses

import numpy as np

from thermistor_fem import (ModelSpec, NumericalFailureError,
                            SingularSystemError, SolverError,
                            TridiagonalSystem, tridiag)
from thermistor_fem import temperature as temp
from thermistor_fem.coefficients import eval_sigma
from thermistor_fem.potential import (check_current_compatibility,
                                      solve_potential)
from thermistor_fem.tridiag import PIVOT_RTOL


def count_factorisations(monkeypatch) -> list:
    """Record every factorisation made from now on, one entry each: the
    size of the matrix factored."""
    calls = []
    factor = tridiag._factor

    def counted(sub, main, sup):
        calls.append(len(main))
        return factor(sub, main, sup)

    monkeypatch.setattr(tridiag, "_factor", counted)
    return calls


def wrap_sigma(monkeypatch, wrap):
    """Build every model with its sigma callable passed through ``wrap``.

    A numeric sigma is first turned into the constant callable it stands
    for, so the run evaluates it at every step as it would a varying one.
    """
    build = ModelSpec.build

    def wrapped(spec, flux_left, flux_right):
        model = build(spec, flux_left, flux_right)
        sigma = model.electrical_conductivity
        if not callable(sigma):
            def sigma(u, _v=sigma):
                return np.full_like(np.asarray(u, dtype=float), _v)
        return dataclasses.replace(model, electrical_conductivity=wrap(sigma))

    monkeypatch.setattr(ModelSpec, "build", wrapped)


def random_dominant_system(rng: np.random.Generator, size: int) -> TridiagonalSystem:
    """Strictly diagonally dominant tridiagonal system with random entries."""
    sub = rng.uniform(-1.0, 1.0, size - 1) if size > 1 else np.zeros(0)
    sup = rng.uniform(-1.0, 1.0, size - 1) if size > 1 else np.zeros(0)
    main = np.zeros(size)
    for i in range(size):
        row = abs(sub[i - 1]) if i > 0 else 0.0
        row += abs(sup[i]) if i < size - 1 else 0.0
        main[i] = (row + rng.uniform(0.5, 2.0)) * rng.choice((-1.0, 1.0))
    rhs = rng.uniform(-5.0, 5.0, size)
    return TridiagonalSystem(sub=sub, main=main, sup=sup, rhs=rhs)


def reference_thomas(system: TridiagonalSystem) -> np.ndarray:
    """Row-by-row Thomas sweep with the pivot rule checked inside the loop.

    The solver's reference: ``thomas_solve`` must fail at the same row and
    agree with it to rounding (its blocked substitution sums in another
    order).
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


def reference_checked_solve(system: TridiagonalSystem, what: str,
                            residual_sink: list | None = None,
                            factors=None) -> np.ndarray:
    """``tridiag.checked_solve`` as it was before its checks were fused: a
    finiteness scan of the solution on every solve, and the residual scale
    and norm taken by their own reductions.  The fused checks must record
    exactly these residuals.
    """
    try:
        x = tridiag.thomas_solve(system, factors)
    except SingularSystemError as exc:
        raise SingularSystemError(f"{what} solve failed: {exc}",
                                  row=exc.row) from exc
    if not np.isfinite(x).all():
        raise NumericalFailureError(f"{what} solve failed: non-finite solution")
    if residual_sink is not None:
        scale = 1.0 + float(np.max(np.abs(system.rhs)))
        residual_sink.append(reference_residual_norm(system, x) / scale)
    return x


def reference_advance(operator, alpha, source, residual_sink=None):
    """``TemperatureOperator.advance`` as it was before its rhs was formed
    in the held factors' rhs block: a fresh ``mass(alpha) + source``, a new
    system from ``with_rhs`` and ``reference_checked_solve`` with the held
    factors.  The held step must record exactly this run.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = operator.mass(alpha) + source
    try:
        system = operator.matrix.with_rhs(rhs)
        if operator._factors is None:
            operator._factors = tridiag._factor(system.sub, system.main,
                                                system.sup)
    except SolverError as exc:
        exc.args = (f"{operator.what} solve failed: {exc}",)
        raise
    x = reference_checked_solve(system, operator.what, residual_sink,
                                operator._factors)
    if operator.variant.stiffness == "corrected":
        return x
    return np.append(x, temp.ghost_temp_right(
        float(x[-1]), operator.model.k, operator.mesh.h, operator.beta))


def reference_residual_norm(system: TridiagonalSystem, x: np.ndarray) -> float:
    """Max-norm of T x - rhs from fresh temporaries."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(system.matvec(x) - system.rhs)))


def substitution_bound(system: TridiagonalSystem) -> np.ndarray:
    """eps |U^-1| |L^-1| |rhs|, componentwise, for T = L U without pivoting.

    Rounding in either triangular substitution changes the solution by a
    small multiple of this, whichever order the sums are taken in; it is
    what two correct substitutions of the same factorisation can differ by.
    Dense, so for small systems only.
    """
    lower = [0.0] + system.sub.tolist()
    pivots, upper = [], []
    c_prev = 0.0
    for a, b, d in zip(lower, system.main.tolist(), system.sup.tolist() + [0.0]):
        pivots.append(b - a * c_prev)
        c_prev = d / pivots[-1]
        upper.append(c_prev)
    m = system.size
    l_mat = np.diag(pivots) + np.diag(system.sub, -1)
    u_mat = np.eye(m) + np.diag(upper[:-1], 1)
    return np.finfo(float).eps * (np.abs(np.linalg.inv(u_mat))
                                  @ (np.abs(np.linalg.inv(l_mat))
                                     @ np.abs(system.rhs)))


def simpson(f, a: float, b: float, panels: int = 64) -> float:
    """Composite Simpson quadrature; exact for cubics on each panel."""
    x = np.linspace(a, b, 2 * panels + 1)
    y = np.array([f(v) for v in x])
    w = np.ones(2 * panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / (6.0 * panels) * np.sum(w * y))


def cheb(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev differentiation matrix and points x_j = cos(pi j / n),
    j = 0..n, on [-1, 1] (Trefethen, Spectral Methods in MATLAB, 2000,
    program ``cheb``)."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[n] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d, x


def rational_steady_oracle(beta: float, lam: float, k0: float = 1.0,
                           sigma0: float = 1.0, flux: float = 1.0,
                           points: int = 32, max_iter: int = 30):
    """Continuum steady state of the rational-sigma bar, by Chebyshev
    collocation and Newton; returns u as a function of x.

    -(k0 u')' = J^2 (1 + lam u)^2 / sigma0 on (0, 1), the Joule heating
    J^2 / sigma(u) of sigma = sigma0 / (1 + lam u)^2, with the current
    J = sigma(u(1)) * flux and Robin ends k0 u'(0) = beta u(0) and
    k0 u'(1) = -beta u(1).  Newton starts from u = 0 with the exact
    Jacobian, J's dependence on u(1) included.  Its step stagnates at
    rounding, which the second derivative amplifies by about its norm, so
    it stops on max|F| below that level.  Values between the points come
    from barycentric interpolation.
    """
    d, t = cheb(points)
    y = 0.5 * (1.0 + t)  # y_0 = 1, y_points = 0
    d = 2.0 * d
    d2 = d @ d
    floor = 64.0 * np.finfo(float).eps * k0 * np.abs(d2).sum(axis=1).max()
    u = np.zeros(points + 1)
    for _ in range(max_iter):
        w = 1.0 + lam * u
        current = sigma0 * flux / w[0] ** 2
        heat = current * current * w * w / sigma0
        f = k0 * (d2 @ u) + heat
        f[0] = k0 * (d[0] @ u) + beta * u[0]
        f[-1] = -k0 * (d[-1] @ u) + beta * u[-1]
        if np.abs(f).max() <= floor * max(1.0, np.abs(u).max()):
            break
        jac = k0 * d2 + np.diag(2.0 * lam * heat / w)
        jac[:, 0] -= 4.0 * lam * heat / w[0]  # through current(u_0)
        jac[0] = k0 * d[0]
        jac[0, 0] += beta
        jac[-1] = -k0 * d[-1]
        jac[-1, -1] += beta
        u = u - np.linalg.solve(jac, f)
    else:
        raise RuntimeError("Chebyshev Newton did not converge")
    weights = (-1.0) ** np.arange(points + 1)
    weights[[0, -1]] *= 0.5

    def at(x):
        x = np.asarray(x, dtype=float)
        diff = x[:, None] - y[None, :]
        hit = diff == 0.0
        diff[hit] = 1.0
        q = weights / diff
        out = (q @ u) / q.sum(axis=1)
        rows, cols = np.nonzero(hit)
        out[rows] = u[cols]
        return out

    return at


def reference_series_csv(result) -> str:
    """Row-by-row series CSV writer, every number formatted in its own row.

    ``write_series_csv`` must produce exactly these bytes.
    """
    if not result.snapshots:
        raise ValueError("result has no snapshots")
    x = [f"{xj:.12e}" for xj in result.nodes.tolist()]
    lines = ["t,x,u,phi"]
    for snap in result.snapshots:
        t = f"{snap.time:.12e}"
        lines.extend(f"{t},{xj},{uj:.12e},{pj:.12e}" for xj, uj, pj in
                     zip(x, snap.temperature.tolist(), snap.potential.tolist()))
    return "\n".join(lines) + "\n"


def reference_profile_csv(result) -> str:
    """Row-by-row profile CSV writer; ``write_profile_csv`` must produce
    exactly these bytes."""
    return "x,u\n" + "".join(f"{xj:.12e},{uj:.12e}\n" for xj, uj in zip(
        result.nodes.tolist(), result.final_profile.tolist()))


def reference_coupled(config, mesh, model, freeze=False):
    """``simulator._coupled`` as it was before a step held what it derives
    from sigma: every step evaluates sigma, solves the potential, builds the
    Joule source and takes the compatibility residual anew.  A sigma zero at
    every node gives the zero potential.  A run through the held stepper
    must record exactly what a run through this one records.
    """
    operator = temp.TemperatureOperator(mesh, model, config.tau, config.beta,
                                        config.variant)
    literal = config.variant.stiffness == "paper_literal"
    potential = None

    def advance(state, residual_sink):
        nonlocal potential
        sigma = eval_sigma(model, state.alpha)
        mu = potential
        if mu is None and not sigma.any():
            mu = np.zeros(mesh.n_nodes)
        elif mu is None:
            # only the literal potential reads sigma at the temperature ghost
            ghost = eval_sigma(model, temp.ghost_temp_left(
                float(state.alpha[1]), float(state.alpha[0]), model.k,
                mesh.h, config.beta)) if literal else None
            mu = solve_potential(sigma, mesh, model, config.variant,
                                 sigma_ghost_left=ghost,
                                 residual_sink=residual_sink)
            if freeze:
                potential = mu
        new_state = temp.solve_temperature(state, sigma, mu, operator,
                                           residual_sink)
        return new_state.alpha, mu, check_current_compatibility(sigma, model)

    return advance
