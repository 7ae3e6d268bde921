"""Dispersion dynamics of a quantum Brownian particle.

Closed-form dispersion laws, the zero-temperature inertial ODE, the
harmonic self-consistent ODE, the bounded overdamped equation and the
full self-consistent high-friction equation, all producing comparable
sigma_x^2(t) trajectories.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import ConvergenceError, coth, lambert_w_minus1, solve_ode
from .params import PhysicalParams, derived_scales, momentum_dispersion


class ModelCompatibilityError(ValueError):
    """A dispersion model was requested with incompatible parameters."""


class SemiclassicalDomainWarning(UserWarning):
    """The semiclassical log law was evaluated where it can be negative."""


class ClosedForm(Enum):
    EINSTEIN = "einstein"
    VACUUM_SPREADING = "vacuum-spreading"
    PURE_QUANTUM = "pure-quantum"
    SUPERPOSITION = "superposition"
    LAMBERT_EXACT = "lambert-exact"
    COTH_INTERPOLATION = "coth-interpolation"
    SEMICLASSICAL_LOG = "semiclassical-log"
    ELEMENTARY_LOG_APPROX = "elementary-log-approx"


_THERMAL_KINDS = {ClosedForm.EINSTEIN, ClosedForm.SUPERPOSITION,
                  ClosedForm.LAMBERT_EXACT, ClosedForm.COTH_INTERPOLATION,
                  ClosedForm.SEMICLASSICAL_LOG, ClosedForm.ELEMENTARY_LOG_APPROX}


# s = sum_k a_k P^k, k = 1..9, near the branch point: Corless et al. (1996)
# series of W_-1 at p = -P, highest order first for Horner
_BRANCH_SERIES = (226287557 / 37623398400, 1963 / 204120, 680863 / 43545600,
                  221 / 8505, 769 / 17280, 43 / 540, 11 / 72, 1 / 3, 1.0)


def lambert_dispersion_scaled(c):
    """Solve s - ln(1 + s) = c for s >= 0 (dispersion in units of lambda_T^2).

    Uses the lower Lambert branch, s = -1 - W_-1(-exp(-1 - c)), switching
    to Newton on the defining relation once exp(-1 - c) underflows.  For
    c < 1e-3, where -exp(-1 - c) rounds c away, s is the branch-point
    series in P = sqrt(-2 expm1(-c)) through P^9 (relative error below
    3e-15 down to the smallest subnormal c).  A NaN, infinite or negative
    c raises ValueError.
    """
    c = np.asarray(c, dtype=float)
    scalar = c.ndim == 0
    c = np.atleast_1d(c)
    if not np.all((c >= 0) & (c < np.inf)):
        raise ValueError("scaled time must be finite and non-negative")
    s = np.zeros_like(c)
    pos = c > 0
    tiny = pos & (c < 1e-3)
    if np.any(tiny):
        P = np.sqrt(-2.0 * np.expm1(-c[tiny]))
        acc = np.zeros_like(P)
        for a in _BRANCH_SERIES:
            acc = (acc + a) * P
        s[tiny] = acc
    small = pos & ~tiny & (c < 650.0)
    if np.any(small):
        s[small] = -1.0 - lambert_w_minus1(-np.exp(-1.0 - c[small]))
    big = c >= 650.0
    if np.any(big):
        x = c[big] + np.log1p(c[big])
        for _ in range(60):
            step = (x - np.log1p(x) - c[big]) / (x / (1.0 + x))
            x = x - step
            if np.all(np.abs(step) <= 1e-14 * x):
                break
        s[big] = x
    return float(s[0]) if scalar else s


def eval_closed_form(kind: ClosedForm, t, p: PhysicalParams, *, sigma0: float | None = None):
    """Evaluate one of the closed-form dispersion laws at times t >= 0.

    A negative or NaN time raises ValueError.  sigma0 is required (and
    only allowed) for VACUUM_SPREADING.  The semiclassical log law is
    returned as written even where 2Dt <= lambda_T^2 makes it negative; a
    SemiclassicalDomainWarning flags that range.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if not np.all(t_arr >= 0):
        raise ValueError("t must be non-negative")

    if kind is ClosedForm.VACUUM_SPREADING:
        if p.friction != 0:
            raise ModelCompatibilityError("vacuum spreading requires b = 0")
        if sigma0 is None or sigma0 <= 0:
            raise ModelCompatibilityError("vacuum spreading needs sigma0 > 0")
        out = sigma0 ** 2 + (p.hbar * t_arr / (2.0 * p.mass * sigma0)) ** 2
        return float(out[0]) if scalar else out
    if sigma0 is not None:
        raise ModelCompatibilityError(f"{kind.value} takes no sigma0")

    if kind is ClosedForm.PURE_QUANTUM:
        if p.friction <= 0:
            raise ModelCompatibilityError("pure quantum diffusion requires b > 0")
        out = p.hbar * np.sqrt(t_arr / (p.mass * p.friction))
        return float(out[0]) if scalar else out

    if kind not in _THERMAL_KINDS:
        raise ModelCompatibilityError(f"unknown closed form {kind!r}")
    if p.temperature <= 0 or p.friction <= 0:
        raise ModelCompatibilityError(f"{kind.value} requires T > 0 and b > 0")
    sc = derived_scales(p)
    D, lam2 = sc.D, sc.lambda_T ** 2

    if kind is ClosedForm.EINSTEIN:
        out = 2.0 * D * t_arr
    elif kind is ClosedForm.SUPERPOSITION:
        out = p.hbar * np.sqrt(t_arr / (p.mass * p.friction)) + 2.0 * D * t_arr
    elif kind is ClosedForm.LAMBERT_EXACT:
        out = lam2 * np.atleast_1d(lambert_dispersion_scaled(2.0 * D * t_arr / lam2))
    elif kind is ClosedForm.COTH_INTERPOLATION:
        out = np.zeros_like(t_arr)
        pos = t_arr > 0
        root = np.sqrt(D * t_arr[pos])
        out[pos] = 2.0 * sc.lambda_T * root * coth(sc.lambda_T / root)
    elif kind is ClosedForm.SEMICLASSICAL_LOG:
        c = 2.0 * D * t_arr
        if np.any(c <= lam2):
            warnings.warn(
                "semiclassical log law evaluated at 2Dt <= lambda_T^2 where "
                "it can turn negative", SemiclassicalDomainWarning, stacklevel=2)
        with np.errstate(divide="ignore"):
            out = c + lam2 * np.log(c / lam2) / 3.0
    else:  # ELEMENTARY_LOG_APPROX
        out = 2.0 * D * t_arr + 2.0 * lam2 * np.log1p(np.sqrt(D * t_arr) / sc.lambda_T)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Trajectories and the time x inverse-temperature surface


@dataclass(frozen=True)
class DispersionTrajectory:
    """Time series of position dispersion with derived momentum dispersion."""

    times: np.ndarray
    sigma_x2: np.ndarray
    sigma_p2: np.ndarray
    mu: np.ndarray | None = None

    def __post_init__(self):
        n = self.times.size
        if self.sigma_x2.size != n or self.sigma_p2.size != n:
            raise ValueError("trajectory arrays must share one length")
        if self.mu is not None and self.mu.size != n:
            raise ValueError("trajectory arrays must share one length")
        if self.times[0] < 0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be non-negative and increasing")
        pos = self.times > 0
        if np.any(self.sigma_x2[pos] <= 0):
            raise ValueError("sigma_x2 must be positive for t > 0")

    @classmethod
    def from_sigma(cls, times, sigma_x2, p: PhysicalParams, mu=None):
        times = np.asarray(times, dtype=float)
        sigma_x2 = np.asarray(sigma_x2, dtype=float)
        sp2 = np.full(sigma_x2.shape, np.inf)
        pos = sigma_x2 > 0
        sp2[pos] = momentum_dispersion(sigma_x2[pos], p)
        return cls(times=times, sigma_x2=sigma_x2, sigma_p2=sp2,
                   mu=None if mu is None else np.asarray(mu, dtype=float))


@dataclass(frozen=True)
class BetaGridFunction:
    """sigma_x^2 sampled on a time x inverse-temperature tensor grid.

    The beta = 0 column is the infinite-temperature classical marker and
    stores +inf for t > 0; every integrand built from the surface vanishes
    there.  All other columns are finite and positive for t > 0.
    """

    t_grid: np.ndarray
    beta_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nt, nb = self.values.shape
        if nt != self.t_grid.size or nb != self.beta_grid.size:
            raise ValueError("surface shape does not match its grids")
        if self.beta_grid[0] != 0.0 or np.any(np.diff(self.beta_grid) <= 0):
            raise ValueError("beta_grid must increase from 0")
        body = self.values[self.t_grid > 0, 1:]
        if np.any(~np.isfinite(body)) or np.any(body <= 0):
            raise ValueError("surface must be finite and positive for t > 0")


def make_beta_grid(beta: float, n: int = 48,
                   extend_factor: float = 1.0) -> np.ndarray:
    """Log-spaced beta nodes: {0} U [1e-3 beta, beta], optionally extended.

    The physical beta is always a node.  extend_factor > 1 appends 16
    colder nodes up to extend_factor * beta (used to probe the T -> 0
    column).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    core = np.geomspace(1e-3 * beta, beta, n)
    core[-1] = beta
    grid = np.concatenate(([0.0], core))
    if extend_factor > 1.0:
        ext = np.geomspace(beta, extend_factor * beta, 17)[1:]
        grid = np.concatenate((grid, ext))
    return grid


def _beta_nodes(beta: float, beta_grid):
    """The beta grid a surface solver marches, make_beta_grid(beta) when
    None, and the index of its physical column.  Refuses a grid that does
    not increase from 0 or lacks beta before anything is marched."""
    beta_grid = (make_beta_grid(beta) if beta_grid is None
                 else np.asarray(beta_grid, dtype=float))
    if beta_grid[0] != 0.0 or np.any(np.diff(beta_grid) <= 0):
        raise ValueError("beta_grid must increase from 0")
    j = int(np.argmin(np.abs(beta_grid - beta)))
    if not math.isclose(beta_grid[j], beta, rel_tol=1e-9):
        raise ValueError(f"beta = {beta} is not a node of beta_grid")
    return beta_grid, j


# ---------------------------------------------------------------------------
# Zero-temperature inertial dynamics (mean + dispersion, second order)


def solve_inertial_zero_T(p: PhysicalParams, sigma0: float, dsigma0: float,
                          mu0: float, dmu0: float,
                          t_grid) -> DispersionTrajectory:
    """Integrate the coupled zero-temperature mean/dispersion ODEs.

    m mu'' + b mu' = f and m sigma'' + b sigma' = hbar^2 / (4 m sigma^3),
    as a 4-component first-order system.  sigma0 must be positive: the
    dispersion equation is singular at sigma = 0 and those initial states
    are served by the closed forms.
    """
    if p.temperature != 0:
        raise ModelCompatibilityError("inertial zero-T solver requires T = 0")
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive (sigma = 0 is singular)")
    t_grid = np.asarray(t_grid, dtype=float)

    h2_4m2 = p.hbar ** 2 / (4.0 * p.mass ** 2)
    b_m = p.friction / p.mass
    f_m = p.force / p.mass

    def rhs(t, y):
        mu, dmu, sig, dsig = y
        if sig <= 0:
            raise ConvergenceError(
                f"sigma reached {sig} at t = {t}; integrator misconfigured")
        return np.array([dmu, f_m - b_m * dmu,
                         dsig, h2_4m2 / sig ** 3 - b_m * dsig])

    y = solve_ode(rhs, [mu0, dmu0, sigma0, dsigma0], t_grid)
    return DispersionTrajectory.from_sigma(t_grid, y[:, 2] ** 2, p,
                                           mu=y[:, 0])


# ---------------------------------------------------------------------------
# Harmonic oscillator with temperature self-consistency


def _beta_integral(coef, S, half_widths):
    """int_0^beta coef / S(beta')^2 dbeta' at every node beta > 0 by
    cumulative trapezoid with half_widths = diff(beta_grid) / 2; S holds
    the columns beta > 0 (the beta = 0 integrand is zero: S is infinite
    there)."""
    f = coef / S ** 2
    pair = f.copy()
    pair[1:] += f[:-1]
    return np.cumsum(half_widths * pair)


def solve_harmonic(p: PhysicalParams, sigma0_sq: float, dsigma0_sq: float,
                   mu0: float, dmu0: float, t_grid, beta_grid=None):
    """Integrate the harmonic dispersion equation with its beta-integral.

    S'' = 2 k_B T / m - (b / m) S' - 2 (omega0^2 - k_B T I) S for
    S = sigma_x^2 at every beta node (k_B T = 1 / beta, b fixed), where
    I = int_0^beta hbar^2 / (4 m^2 S(t, beta')^2) dbeta' softens the spring
    (clamped at 1e-8 omega0^2).  I couples only the columns of one time,
    so (S, S') of every column and the mean are one ODE system, marched
    once by solve_ode in omega0 t with S in units of sigma0_sq.  A column
    reaching S <= 0 raises ConvergenceError naming t and beta.
    Returns (BetaGridFunction, trajectory at the physical beta).
    """
    if p.omega0 <= 0:
        raise ModelCompatibilityError("harmonic solver requires omega0 > 0")
    if p.temperature <= 0:
        raise ModelCompatibilityError("harmonic solver requires T > 0")
    if sigma0_sq <= 0:
        raise ValueError("sigma0_sq must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 2:
        raise ValueError("t_grid needs at least two times")
    beta_grid, j_phys = _beta_nodes(p.beta, beta_grid)

    # unit-free variables keep the tolerances relative in any units: the
    # phase x = omega0 t, s = S / sigma0^2 and the mean in units of sigma0
    ncol = beta_grid.size - 1
    w0 = p.omega0
    sig0 = math.sqrt(sigma0_sq)
    kT_w = 1.0 / (beta_grid[1:] * w0 ** 2)
    q_coef = p.hbar ** 2 / (4.0 * p.mass ** 2 * sigma0_sq ** 2)
    damp = p.friction / (p.mass * w0)
    f_s = p.force / (p.mass * sig0 * w0 ** 2)
    drive = 2.0 * kT_w / (p.mass * sigma0_sq)
    half_widths = 0.5 * np.diff(beta_grid)

    # y = (mu, mu', s, s') with one s and s' per column beta > 0
    def rhs(x, y):
        s, v = y[2:2 + ncol], y[2 + ncol:]
        if not np.all(s > 0):
            j = int(np.argmin(s))  # the first NaN, if any
            raise ConvergenceError(
                f"sigma_x^2 reached {s[j] * sigma0_sq:.3e} at t = "
                f"{x / w0:.6g}, beta = {beta_grid[j + 1]:.6g}")
        spring = np.maximum(1.0 - kT_w * _beta_integral(q_coef, s, half_widths),
                            1e-8)
        return np.concatenate(((y[1], f_s - y[0] - damp * y[1]), v,
                               drive - damp * v - 2.0 * spring * s))

    y0 = np.concatenate(([mu0 / sig0, dmu0 / (sig0 * w0)], np.ones(ncol),
                         np.full(ncol, dsigma0_sq / (sigma0_sq * w0))))
    y = solve_ode(rhs, y0, w0 * t_grid)

    values = np.empty((t_grid.size, ncol + 1))
    values[:, 0] = np.inf
    values[t_grid == 0, 0] = sigma0_sq
    values[:, 1:] = sigma0_sq * y[:, 2:2 + ncol]
    grid_fn = BetaGridFunction(t_grid=t_grid, beta_grid=beta_grid, values=values)
    traj = DispersionTrajectory.from_sigma(t_grid, values[:, j_phys], p,
                                           mu=sig0 * y[:, 0])
    return grid_fn, traj


def stationary_harmonic_dispersion(p: PhysicalParams) -> float:
    """Equilibrium dispersion of the self-consistent harmonic equation.

    The stationary condition S = k_B T / m (omega0^2 - k_B T I), with
    I = int_0^beta hbar^2 / (4 m^2 S(beta')^2) dbeta', is for
    u = beta omega0^2 - I = 1 / (m S) the Riccati equation
    u' = omega0^2 - (hbar u / 2)^2 with u(0) = 0, solved by the coth law
    S = (hbar / 2 m omega0) coth(hbar omega0 beta / 2).  One adaptive
    solve_ode march from beta = 0 to the physical beta integrates
    y = hbar u / (2 omega0), y' = (hbar omega0 / 2)(1 - y^2): y runs from 0
    towards 1 in any units, so the tolerances stay relative (marching I
    instead would cancel digits in beta omega0^2 - I).  A colder march
    stops at hbar omega0 beta / 2 = 40: y is 1 to double precision from 20
    on, and each further unit of hbar omega0 beta costs about one step,
    since y' is stiff near y = 1.
    """
    if p.omega0 <= 0:
        raise ModelCompatibilityError("requires omega0 > 0")
    if p.temperature <= 0:
        raise ModelCompatibilityError("requires T > 0")
    rate = 0.5 * p.hbar * p.omega0
    y = solve_ode(lambda beta, y: rate * (1.0 - y * y), [0.0],
                  [0.0, min(p.beta, 40.0 / rate)])[-1, 0]
    return float(p.hbar / (2.0 * p.mass * p.omega0 * y))


# ---------------------------------------------------------------------------
# Overdamped free particle


def solve_overdamped_bounded(p: PhysicalParams, sigma0_sq: float,
                             t_grid) -> DispersionTrajectory:
    """Integrate dS/dt = 2D (1 + lambda_T^2 / S) from S(0) = sigma0_sq.

    The ODE is singular at S = 0, so the march starts at the first positive
    grid time on the exact law shifted by the initial data, s - ln(1 + s)
    = c + s0 - ln(1 + s0) with s = S / lambda_T^2, s0 = sigma0_sq /
    lambda_T^2 and c = t / t_c, and integrates ln s against ln(t / t_c),
    which are unit-free and keep the tolerances relative in any units.  A
    grid time 0 reports sigma0_sq.
    """
    if p.temperature <= 0 or p.friction <= 0:
        raise ModelCompatibilityError("overdamped solver requires T > 0, b > 0")
    if sigma0_sq < 0:
        raise ValueError("sigma0_sq must be non-negative")
    t_grid = np.asarray(t_grid, dtype=float)
    sc = derived_scales(p)
    lam2 = sc.lambda_T ** 2

    # du/dtau = (t / t_c) e^-u (1 + e^-u) for u = ln s, tau = ln(t / t_c)
    def log_rhs(tau, u):
        e = math.exp(-u[0])
        return np.array([math.exp(tau) * e * (1.0 + e)])

    sigma = np.full(t_grid.size, float(sigma0_sq))
    start = 1 if t_grid[0] == 0.0 else 0
    s0 = sigma0_sq / lam2
    anchor = lambert_dispersion_scaled(t_grid[start] / sc.t_c + s0
                                       - math.log1p(s0))
    sigma[start:] = lam2 * np.exp(solve_ode(
        log_rhs, [math.log(anchor)], np.log(t_grid[start:] / sc.t_c))[:, 0])
    return DispersionTrajectory.from_sigma(t_grid, sigma, p)


def solve_overdamped_full(p: PhysicalParams, t_grid, beta_grid=None):
    """Self-consistent high-friction dispersion across inverse temperature.

    dS/dt = 2 D(beta) [1 + S int_0^beta hbar^2 / (4 m S(t, beta')^2) dbeta'],
    with D and lambda_T recomputed per beta node while b stays constant.
    The integral couples only the columns of one time, so the surface is
    one ODE system, marched once by solve_ode from the quantum+classical
    superposition at 1e-8 of the first positive time t_1, where the
    small-time quantum asymptote holds; values are reported on the
    caller's grid only.  The march is in ln(S / S_anchor) against
    ln(t / t_1), which are unit-free and keep S positive.
    Returns (BetaGridFunction, trajectory at the physical beta).
    """
    if p.temperature <= 0 or p.friction <= 0:
        raise ModelCompatibilityError("overdamped solver requires T > 0, b > 0")
    t_grid = np.asarray(t_grid, dtype=float)
    beta_grid, j_phys = _beta_nodes(p.beta, beta_grid)

    has_zero = t_grid[0] == 0.0
    tp = t_grid[1:] if has_zero else t_grid
    if tp.size == 0 or tp[0] <= 0:
        raise ValueError("t_grid needs at least one positive time")
    t_anchor = tp[0] * 1e-8
    tau = np.log(np.concatenate(([1e-8], tp / tp[0])))

    Dj = 1.0 / (beta_grid[1:] * p.friction)
    q_coef = p.hbar ** 2 / (4.0 * p.mass)
    superposition = (p.hbar * math.sqrt(t_anchor / (p.mass * p.friction))
                     + 2.0 * Dj * t_anchor)
    half_widths = 0.5 * np.diff(beta_grid)

    # unit-free variables keep the tolerances relative in any units:
    # du/dln t = 2 D t (1 / S + int hbar^2 / (4 m S^2) dbeta')
    def rhs(log_t, u):
        t = tp[0] * math.exp(log_t)
        S = superposition * np.exp(u)
        return 2.0 * Dj * t * (1.0 / S + _beta_integral(q_coef, S, half_widths))

    u = solve_ode(rhs, np.zeros(Dj.size), tau)
    S = superposition * np.exp(u)

    values = np.empty((t_grid.size, beta_grid.size))
    values[:, 0] = np.inf
    values[-tp.size:, 1:] = S[1:]
    if has_zero:
        values[0] = 0.0
    grid_fn = BetaGridFunction(t_grid=t_grid, beta_grid=beta_grid, values=values)
    traj = DispersionTrajectory.from_sigma(t_grid, values[:, j_phys], p)
    return grid_fn, traj


# ---------------------------------------------------------------------------
# Model comparison


@dataclass
class ComparisonTable:
    """Per-time dispersions for several models with ordering verdicts."""

    times: np.ndarray
    columns: dict    # label -> sigma_x2 array
    verdicts: dict   # name -> bool


def compare_models(p: PhysicalParams, t_grid) -> ComparisonTable:
    """Evaluate every closed form but vacuum spreading, which needs b = 0
    and an initial width, on a common grid and compare them; T = 0 or
    b = 0 raises ModelCompatibilityError.

    Ordering verdicts are recorded for the pairs the theory ranks:
    superposition >= exact Lambert bound, and the elementary log
    approximation >= the semiclassical log law at large t.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SemiclassicalDomainWarning)
        columns = {kind.value: eval_closed_form(kind, t_grid, p)
                   for kind in ClosedForm
                   if kind is not ClosedForm.VACUUM_SPREADING}
    sup = columns[ClosedForm.SUPERPOSITION.value]
    lam = columns[ClosedForm.LAMBERT_EXACT.value]
    verdicts = {"superposition_ge_lambert":
                bool(np.all(sup >= lam - 1e-12 * sup))}
    late = t_grid > derived_scales(p).t_c
    if np.any(late):
        verdicts["elementary_ge_semiclassical_late"] = bool(np.all(
            columns[ClosedForm.ELEMENTARY_LOG_APPROX.value][late]
            >= columns[ClosedForm.SEMICLASSICAL_LOG.value][late]))
    return ComparisonTable(times=t_grid, columns=columns, verdicts=verdicts)
