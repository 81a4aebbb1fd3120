"""Workload definitions: parameter draws, generated configs, runs and gates.

Each workload is one fixed problem.  A seed selects the parameter mix it is
run on: seed 0 is the nominal parameters, any other seed draws ``MIX``
parameter sets with beta, gamma and lambda each within +-10% of nominal, as
a Latin hypercube (keeping 1/beta + 1/2 <= 1/gamma).  The program only ever
sees the generated config.  Every run's output is checked against an oracle
that does not share the solver's time loop or its tridiagonal solve.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NOMINAL = {"beta": 0.2, "gamma": 0.1, "lambda": 1.0}
SPREAD = 0.10
MIX = 8
STEADY_TOL = 1e-10
T_MAX = 200.0


class GateError(Exception):
    """A run's output failed its correctness gate."""


def draws(seed: int) -> list[dict]:
    """Parameter sets for one seed; seed 0 is the nominal set alone.

    Other seeds take a Latin hypercube sample: each parameter's range is cut
    into ``MIX`` equal strata, each stratum gets one uniform point, and the
    strata are paired at random.  Every seed's mix thus covers each range
    evenly, so the mix's median step count barely moves between seeds.
    """
    if seed == 0:
        return [dict(NOMINAL)]
    rng = np.random.default_rng(seed)
    scale = {k: 1.0 - SPREAD + 2.0 * SPREAD
             * (rng.permutation(MIX) + rng.uniform(size=MIX)) / MIX
             for k in NOMINAL}
    out = [{k: v * float(scale[k][i]) for k, v in NOMINAL.items()}
           for i in range(MIX)]
    for d in out:  # holds for any draw within +-10% of the nominal set
        if 1.0 / d["beta"] + 0.5 > 1.0 / d["gamma"]:
            raise ValueError(f"draw breaks 1/beta + 1/2 <= 1/gamma: {d}")
    return out


@dataclass
class Outcome:
    """What one run produced, read back the way a user would read it."""

    profile: np.ndarray
    steps: int
    series: bytes | None = None


@dataclass
class Case:
    """One parameter draw of one workload, ready to run repeatedly."""

    draw: dict
    n_elements: int
    tmp: Path
    index: int
    config: object = None
    argv: list = field(default_factory=list)
    reference: object = None
    first: Outcome | None = None  # output of the first checked run
    err: float | None = None  # its solution error


class Workload:
    name = ""
    why = ""
    n_elements = 0
    tau = 0.1

    def build_config(self, tf, cli, draw: dict, n_elements: int, tmp: Path,
                     index: int):
        """Config object (and CLI argv, if any) for one draw."""
        raise NotImplementedError

    def execute(self, tf, cli, case: Case):
        """The timed call into the program."""
        raise NotImplementedError

    def collect(self, case: Case, raw) -> Outcome:
        raise NotImplementedError

    def reference(self, tf, case: Case):
        raise NotImplementedError

    def gate(self, case: Case, out: Outcome) -> float:
        """Check ``out``; return its solution error or raise GateError."""
        raise NotImplementedError

    def prepare(self, tf, cli, draw: dict, tmp: Path, index: int,
                n_elements: int | None = None, with_reference: bool = True) -> Case:
        n = n_elements or self.n_elements
        case = Case(draw, n, tmp, index)
        case.config, case.argv = self.build_config(tf, cli, draw, n, tmp, index)
        if with_reference:
            case.reference = self.reference(tf, case)
        return case


def _library_config(tf, model, draw, n_elements, tau):
    return tf.SimulationConfig(
        n_elements=n_elements, tau=tau, beta=draw["beta"], model=model,
        flux_left=1.0, flux_right=1.0, t_max=T_MAX,
        steady_tolerance=STEADY_TOL,
        # larger than the step budget: snapshots only at the start and end
        record_every=int(T_MAX / tau) + 1)


def _steps_of(result, tau: float) -> int:
    if not result.steady_reached:
        raise GateError("no steady state before t_max")
    return int(round(result.steady_time / tau))


class Fig1Cli(Workload):
    name = "fig1_cli"
    why = ("fig1.cfg through the CLI with per-step CSV output: small systems, "
           "so call overhead and CSV formatting dominate")
    n_elements = 100

    def build_config(self, tf, cli, draw, n_elements, tmp, index):
        text = "\n".join([
            f"n_elements = {n_elements}",
            f"tau = {self.tau!r}",
            f"t_max = {T_MAX!r}",
            f"beta = {draw['beta']!r}",
            f"gamma = {draw['gamma']!r}",
            "flux_left = 1",
            "flux_right = 1",
            "scheme = corrected",
            "source = central",
            f"steady_tol = {STEADY_TOL!r}",
            "record_every = 1",
        ]) + "\n"
        cfg = tmp / f"{self.name}_{index}.cfg"
        cfg.write_text(text)
        argv = ["run", "--config", str(cfg), "--out", str(self._series(tmp, index)),
                "--profile", str(self._profile(tmp, index)), "--require-steady"]
        return cli.parse_config(text), argv

    def _series(self, tmp, index):
        return tmp / f"{self.name}_{index}_series.csv"

    def _profile(self, tmp, index):
        return tmp / f"{self.name}_{index}_profile.csv"

    def execute(self, tf, cli, case):
        with redirect_stderr(io.StringIO()) as err:
            code = cli.run_cli(case.argv)
        return code, err.getvalue()

    def collect(self, case, raw):
        code, err = raw
        if code != 0:
            raise GateError(f"run_cli exited {code}: {err.strip()[-200:]}")
        profile_path = self._profile(case.tmp, case.index)
        series_path = self._series(case.tmp, case.index)
        profile_text = profile_path.read_text()
        series = series_path.read_bytes()
        # every run writes fresh files: ext4 flushes a file that is truncated
        # and rewritten when it is closed, which would time the shared disk
        profile_path.unlink()
        series_path.unlink()
        if not profile_text.startswith("x,u\n"):
            raise GateError("profile CSV header is not 'x,u'")
        profile = np.loadtxt(io.StringIO(profile_text), delimiter=",", skiprows=1)
        last = series.rstrip(b"\n").rsplit(b"\n", 1)[-1]
        steps = int(round(float(last.split(b",", 1)[0]) / self.tau))
        return Outcome(profile=profile[:, 1].copy(), steps=steps, series=series)

    def reference(self, tf, case):
        beta, gamma = case.draw["beta"], case.draw["gamma"]
        x = np.linspace(0.0, 1.0, case.n_elements + 1)
        return 0.5 * gamma * x * (1.0 - x) + gamma / (2.0 * beta)

    def gate(self, case, out):
        n = case.n_elements
        exact = case.reference
        if out.profile.shape != exact.shape:
            raise GateError(f"profile has {out.profile.shape[0]} rows, "
                            f"expected {exact.shape[0]}")
        # README criterion: steady maximum within 1e-3 of the analytic one
        # (0.2625 at the nominal parameters)
        if abs(out.profile.max() - exact.max()) > 1e-3:
            raise GateError(f"profile maximum {out.profile.max():.6f} is not "
                            f"within 1e-3 of {exact.max():.6f}")
        err = float(np.max(np.abs(out.profile - exact)))
        if not err <= 1e-8:
            raise GateError(f"error against the analytic steady state {err:.3e}")
        if case.first is None:
            rows = np.loadtxt(io.BytesIO(out.series), delimiter=",",
                              skiprows=1, ndmin=2)
            if not out.series.startswith(b"t,x,u,phi\n") \
                    or rows.shape != ((out.steps + 1) * (n + 1), 4):
                raise GateError("series CSV does not hold one block per step")
            if not np.array_equal(rows[-(n + 1):, 2], out.profile):
                raise GateError("last series block differs from the profile")
        return err


class RationalN1000(Workload):
    name = "rational_n1000"
    why = ("nonlinear rational_sigma coupled run, N=1000, no CSV: two "
           "tridiagonal solves of size 1001 per step dominate")
    n_elements = 1000

    def build_config(self, tf, cli, draw, n_elements, tmp, index):
        model = tf.ModelSpec("rational_sigma", {"k0": 1.0, "sigma0": 1.0,
                                                "lambda": draw["lambda"]})
        return _library_config(tf, model, draw, n_elements, self.tau), []

    def execute(self, tf, cli, case):
        return tf.run(case.config)

    def collect(self, case, raw):
        return Outcome(profile=np.array(raw.final_profile),
                       steps=_steps_of(raw, self.tau))

    def reference(self, tf, case):
        return continuum_rational(case.draw["beta"], case.draw["lambda"])

    def gate(self, case, out):
        u = out.profile
        mirror = float(np.max(np.abs(u - u[::-1])))
        if not mirror <= 1e-9:
            raise GateError(f"mirror defect max|u_j - u_(N-j)| = {mirror:.3e}")
        x = np.linspace(0.0, 1.0, case.n_elements + 1)
        err = float(np.max(np.abs(u - case.reference(x))))
        h = 1.0 / case.n_elements
        # P1 on a uniform mesh: O(h^2); the observed constant is about 0.02
        if not err <= 0.1 * h * h:
            raise GateError(f"error against the continuum steady state {err:.3e}")
        return err


class ReducedN2000(Workload):
    name = "reduced_n2000"
    why = ("run_reduced at N=2000: one solve per step with a fixed matrix and "
           "no coefficient or potential layer")
    n_elements = 2000
    tau = 0.05

    def build_config(self, tf, cli, draw, n_elements, tmp, index):
        model = tf.ModelSpec("paper_example", {"gamma": draw["gamma"]})
        return _library_config(tf, model, draw, n_elements, self.tau), []

    def execute(self, tf, cli, case):
        return tf.run_reduced(case.config)

    def collect(self, case, raw):
        return Outcome(profile=np.array(raw.final_profile),
                       steps=_steps_of(raw, self.tau))

    def reference(self, tf, case):
        return reduced_steady_state(tf, case.n_elements, self.tau,
                                    case.draw["beta"], case.draw["gamma"])

    def gate(self, case, out):
        if out.profile.shape != case.reference.shape:
            raise GateError("profile length differs from the reduced system")
        err = float(np.max(np.abs(out.profile - case.reference)))
        if not err <= 1e-8:
            raise GateError(f"error against the dense steady solve {err:.3e}")
        return err


WORKLOADS = {w.name: w for w in (Fig1Cli(), RationalN1000(), ReducedN2000())}


def continuum_rational(beta: float, lam: float, k0: float = 1.0,
                       sigma0: float = 1.0, flux: float = 1.0):
    """Steady state of -(k0 u')' = J^2 (1 + lam u)^2 / sigma0 on (0, 1).

    The current J = sigma(u(1)) * flux is constant along the bar, and with
    equal boundary fluxes the solution is symmetric about x = 1/2.  Shoot
    from the centre (u = m, u' = 0) to the Robin end k0 u'(1) = -beta u(1)
    and solve for (m, J).  Returns u as a function of x.
    """
    from scipy.integrate import solve_ivp
    from scipy.optimize import fsolve

    def shoot(m, current):
        rate = current * current / (sigma0 * k0)
        return solve_ivp(lambda _x, y: [y[1], -rate * (1.0 + lam * y[0]) ** 2],
                         (0.5, 1.0), [m, 0.0], method="DOP853",
                         rtol=1e-13, atol=1e-15, dense_output=True)

    def defect(p):
        sol = shoot(*p)
        u1, du1 = sol.y[0, -1], sol.y[1, -1]
        return [k0 * du1 + beta * u1,
                p[1] - sigma0 * flux / (1.0 + lam * u1) ** 2]

    # fsolve may stop with "not making good progress" once it reaches
    # rounding level; the defect itself is the acceptance test
    (m, current), *_ = fsolve(defect, [0.3, 0.6], xtol=1e-14, full_output=True)
    if max(abs(v) for v in defect([m, current])) > 1e-12:
        raise GateError("continuum oracle did not converge")
    sol = shoot(m, current)
    return lambda x: sol.sol(np.where(x >= 0.5, x, 1.0 - x))[0]


def reduced_steady_state(tf, n: int, tau: float, beta: float,
                         gamma: float) -> np.ndarray:
    """Fixed point of the reduced scheme, by one dense solve.

    The reduced step solves T a' = B a + gamma tau h, with T and B the row
    formulas documented in ``simulator.reduced_system_rows`` and
    ``reduced_rhs``.  At steady state (T - B) a = gamma tau h; alpha_N
    follows from the right ghost relation.
    """
    h = 1.0 / n
    a1 = h / 6.0 - tau / h
    b1 = 2.0 * h / 3.0 + 2.0 * tau / h
    sub = np.full(n - 1, a1 - h / 6.0)
    sup = np.full(n - 1, a1 - h / 6.0)
    main = np.full(n, b1 - 2.0 * h / 3.0)
    main[0] = a1 * (beta * h - 1.0) + b1 - tau * beta \
        - (h / 2.0) * (1.0 + beta * h / 3.0)
    sup[0] = 2.0 * a1 - h / 3.0
    main[-1] = b1 + a1 / (beta * h + 1.0) \
        - (h / 6.0) * (4.0 + 1.0 / (1.0 + beta * h))
    system = tf.TridiagonalSystem(sub=sub, main=main, sup=sup,
                                  rhs=np.full(n, gamma * tau * h))
    alpha = tf.dense_solve_oracle(system)
    return np.append(alpha, alpha[-1] / (1.0 + beta * h))

