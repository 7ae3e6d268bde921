"""Finite-difference evolution of the position probability density.

Telegraph (inertial) and Smoluchowski (overdamped) equations in one
dimension, in classical, semiclassical and zero-temperature quantum
variants, with conservative flux assembly, the Bohm quantum potential
and moment extraction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .numerics import ConvergenceError
from .params import PhysicalParams


@dataclass(frozen=True)
class Grid1D:
    """Uniform spatial grid with both endpoints included."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be less than x_max")
        if self.n < 16:
            raise ValueError("grid needs at least 16 nodes")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


def _trapz(values: np.ndarray, h: float, boundary: str = "reflecting") -> float:
    """Trapezoid rule on a box; on a periodic ring every node has full weight."""
    if boundary == "periodic":
        return float(h * np.sum(values))
    return float(h * (np.sum(values) - 0.5 * (values[0] + values[-1])))


@dataclass
class DensityField:
    """Normalized probability density sampled on a Grid1D."""

    grid: Grid1D
    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.size != self.grid.n:
            raise ValueError("rho length must match the grid")
        if np.any(self.rho < 0):
            raise ValueError("rho must be non-negative")
        self.normalize()

    def normalize(self):
        mass = _trapz(self.rho, self.grid.h)
        if mass <= 0:
            raise ValueError("density has no mass")
        self.rho = self.rho / mass

    @property
    def mass(self) -> float:
        return _trapz(self.rho, self.grid.h)

    @classmethod
    def gaussian(cls, grid: Grid1D, mu: float, sigma2: float) -> "DensityField":
        if sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        rho = np.exp(-((grid.x - mu) ** 2) / (2.0 * sigma2))
        return cls(grid=grid, rho=rho)

    @classmethod
    def uniform(cls, grid: Grid1D) -> "DensityField":
        return cls(grid=grid, rho=np.ones(grid.n))


@dataclass(frozen=True)
class PotentialSpec:
    """External potential: free, linear (-f x), harmonic, quartic or tabulated.

    Analytic variants expose exact first and second derivatives; the
    tabulated variant uses central differences.
    """

    variant: str
    f: float = 0.0
    omega0: float = 0.0
    k4: float = 0.0
    values: np.ndarray | None = None

    _VARIANTS = ("free", "linear", "harmonic", "quartic", "tabulated")

    def __post_init__(self):
        if self.variant not in self._VARIANTS:
            raise ValueError(f"unknown potential variant {self.variant!r}")
        if self.variant == "harmonic" and self.omega0 <= 0:
            raise ValueError("harmonic potential requires omega0 > 0")
        if self.variant == "quartic" and self.k4 <= 0:
            raise ValueError("quartic potential requires k4 > 0")
        if self.variant == "tabulated":
            if self.values is None or not np.all(np.isfinite(self.values)):
                raise ValueError("tabulated potential needs finite values")

    @classmethod
    def free(cls):
        return cls(variant="free")

    @classmethod
    def linear(cls, f: float):
        return cls(variant="linear", f=f)

    @classmethod
    def harmonic(cls, omega0: float):
        return cls(variant="harmonic", omega0=omega0)

    @classmethod
    def quartic(cls, k4: float):
        return cls(variant="quartic", k4=k4)

    @classmethod
    def tabulated(cls, values):
        return cls(variant="tabulated", values=np.asarray(values, dtype=float))

    def check_consistency(self, p: PhysicalParams):
        if (self.variant == "harmonic" and p.omega0 > 0
                and not math.isclose(self.omega0, p.omega0, rel_tol=1e-12)):
            raise ValueError(
                f"harmonic omega0 = {self.omega0} disagrees with params "
                f"omega0 = {p.omega0}")

    def energy(self, grid: Grid1D, p: PhysicalParams) -> np.ndarray:
        self.check_consistency(p)
        x = grid.x
        if self.variant == "free":
            return np.zeros(grid.n)
        if self.variant == "linear":
            return -self.f * x
        if self.variant == "harmonic":
            return 0.5 * p.mass * self.omega0 ** 2 * x ** 2
        if self.variant == "quartic":
            return self.k4 * x ** 4
        if self.values.size != grid.n:
            raise ValueError("tabulated potential length must match the grid")
        return np.array(self.values, dtype=float)

    def grad(self, grid: Grid1D, p: PhysicalParams) -> np.ndarray:
        x = grid.x
        if self.variant == "free":
            return np.zeros(grid.n)
        if self.variant == "linear":
            return np.full(grid.n, -self.f)
        if self.variant == "harmonic":
            return p.mass * self.omega0 ** 2 * x
        if self.variant == "quartic":
            return 4.0 * self.k4 * x ** 3
        return np.gradient(self.energy(grid, p), grid.h)

    def laplacian(self, grid: Grid1D, p: PhysicalParams) -> np.ndarray:
        x = grid.x
        if self.variant == "free":
            return np.zeros(grid.n)
        if self.variant == "linear":
            return np.zeros(grid.n)
        if self.variant == "harmonic":
            return np.full(grid.n, p.mass * self.omega0 ** 2)
        if self.variant == "quartic":
            return 12.0 * self.k4 * x ** 2
        u = self.energy(grid, p)
        lap = np.empty(grid.n)
        lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / grid.h ** 2
        lap[0] = lap[1]
        lap[-1] = lap[-2]
        return lap


class PdeModel(Enum):
    CLASSICAL_TELEGRAPH = "classical-telegraph"
    CLASSICAL_SMOLUCHOWSKI = "classical-smoluchowski"
    SEMICLASSICAL_TELEGRAPH = "semiclassical-telegraph"
    SEMICLASSICAL_SMOLUCHOWSKI = "semiclassical-smoluchowski"
    QUANTUM_ZERO_T_TELEGRAPH = "quantum-zero-T-telegraph"
    QUANTUM_ZERO_T_SMOLUCHOWSKI = "quantum-zero-T-smoluchowski"

    @property
    def inertial(self) -> bool:
        return "telegraph" in self.value

    @property
    def quantum(self) -> bool:
        return "quantum" in self.value

    @property
    def semiclassical(self) -> bool:
        return "semiclassical" in self.value


_RHO_FLOOR_FACTOR = 1e-12


def quantum_potential(rho: DensityField, p: PhysicalParams) -> np.ndarray:
    """Bohm quantum potential -hbar^2 (d^2 sqrt(rho)/dx^2) / (2 m sqrt(rho)).

    rho is clamped from below at 1e-12 of its peak before the square
    root (0/0 tails); second-order central stencil inside, one-sided at
    the ends.  A DensityField carries no boundary, so the ends take the
    one-sided stencil on periodic grids too; evolve wraps them on a ring.
    """
    return _quantum_potential_raw(rho.rho, rho.grid.h, p, "reflecting")


def _quantum_potential_raw(rho_arr: np.ndarray, h: float, p: PhysicalParams,
                           boundary: str) -> np.ndarray:
    """quantum_potential on a bare array; a periodic ring wraps the ends."""
    floor = _RHO_FLOOR_FACTOR * float(np.max(rho_arr))
    a = np.sqrt(np.maximum(rho_arr, floor))
    d2 = np.empty_like(a)
    d2[1:-1] = (a[2:] - 2.0 * a[1:-1] + a[:-2]) / h ** 2
    if boundary == "periodic":
        d2[0] = (a[1] - 2.0 * a[0] + a[-1]) / h ** 2
        d2[-1] = (a[0] - 2.0 * a[-1] + a[-2]) / h ** 2
    else:
        d2[0] = (2.0 * a[0] - 5.0 * a[1] + 4.0 * a[2] - a[3]) / h ** 2
        d2[-1] = (2.0 * a[-1] - 5.0 * a[-2] + 4.0 * a[-3] - a[-4]) / h ** 2
    return -p.hbar ** 2 * d2 / (2.0 * p.mass * a)


def effective_potential(U: PotentialSpec, beta: float, p: PhysicalParams,
                        grid: Grid1D) -> np.ndarray:
    """Semiclassical potential U + beta hbar^2 [3 lap U - beta (grad U)^2] / 24m."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    u = U.energy(grid, p)
    gu = U.grad(grid, p)
    lu = U.laplacian(grid, p)
    return u + beta * p.hbar ** 2 * (3.0 * lu - beta * gu ** 2) / (24.0 * p.mass)


@dataclass
class Moments:
    mean: float
    dispersion: float
    norm: float


def moments(rho: DensityField) -> Moments:
    """Trapezoid-rule mean, dispersion and norm of a density field.

    Emits a warning when the norm strays from 1 by more than 1e-6.
    """
    x = rho.grid.x
    h = rho.grid.h
    norm = _trapz(rho.rho, h)
    mean = _trapz(x * rho.rho, h) / norm
    second = _trapz(x ** 2 * rho.rho, h) / norm
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(f"density norm {norm} deviates from 1", stacklevel=2)
    return Moments(mean=mean, dispersion=second - mean ** 2, norm=norm)


@dataclass
class EvolveResult:
    """Final density plus the recorded moment trajectory and diagnostics."""

    density: DensityField
    times: np.ndarray
    mu: np.ndarray
    sigma2: np.ndarray
    mass: np.ndarray
    dt: float
    n_steps: int
    diagnostics: dict = field(default_factory=dict)


def _divergence(flux_half, h, boundary):
    """Conservative divergence: cell updates from half-node fluxes.

    Reflecting boundaries use half-size end cells so that the trapezoid
    mass is conserved exactly; periodic wraps the last edge around.
    """
    n = flux_half.size + 1 if boundary == "reflecting" else flux_half.size
    out = np.empty(n)
    if boundary == "reflecting":
        out[1:-1] = (flux_half[1:] - flux_half[:-1]) / h
        out[0] = flux_half[0] / (0.5 * h)
        out[-1] = -flux_half[-1] / (0.5 * h)
    else:
        out[:] = (flux_half - np.roll(flux_half, 1)) / h
    return out


def _ring(a, boundary):
    """Node values whose faces lie between a[:-1] and a[1:]: a periodic
    ring appends its wrap node."""
    return a if boundary == "reflecting" else np.append(a, a[0])


def _flux(rho, dphi, kT, h, boundary, q=None):
    """Half-node flux rho dPhi/dx + kT drho/dx (down-gradient positive).

    dphi is the static potential's gradient at the faces.  A Bohm
    potential q adds rho dq/dx where the density carries mass; below 1e-6
    of the peak its floored tails produce spurious spikes, so the term is
    tapered off there and the drift upwinded (donor cell), since the
    centered scheme would seed wiggles around the Q-floor kink.
    """
    r = _ring(rho, boundary)
    r_half = 0.5 * (r[1:] + r[:-1])
    drho = np.diff(r) / h
    if q is None:
        return r_half * dphi + kT * drho
    cutoff = 1e-6 * float(np.max(rho))
    taper = np.clip(r_half / (10.0 * cutoff) - 0.1, 0.0, 1.0)
    r_up = np.where(dphi < 0.0, r[:-1], r[1:])
    r_adv = taper * r_half + (1.0 - taper) * r_up
    dq = np.diff(_ring(q, boundary)) / h
    return r_adv * dphi + r_half * dq * taper + kT * drho


def evolve(rho0: DensityField, model: PdeModel, U: PotentialSpec,
           p: PhysicalParams, t_final: float, dt: float | None = None,
           boundary: str = "reflecting", n_records: int = 201) -> EvolveResult:
    """Advance the chosen density equation to t_final.

    Every model steps b drho/dt = d/dx(rho dPhi/dx + k_B T drho/dx
    + rho dQ/dx): Phi is U or the semiclassical effective potential, Q
    the Bohm potential of the zero-T quantum models (recomputed every
    step, nonlinear), else 0.  Overdamped variants use explicit Euler;
    inertial variants integrate the second-order-in-time form as a
    (rho, drho/dt) system with semi-implicit damping and drho/dt(0) = 0.
    The flux conserves the trapezoid mass on a reflecting box and
    h * sum(rho) on a periodic ring; the mass check, records and moments
    use that quadrature.  Mass drift beyond 1e-8 and negative densities
    beyond a floor tolerance abort with step diagnostics.  Moments are
    recorded at steps round(j n_steps / (n_records - 1)), ending at
    t_final.
    """
    if boundary not in ("reflecting", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    if model.quantum:
        if p.temperature != 0:
            raise ValueError("quantum zero-T models require T = 0")
    elif p.temperature <= 0:
        raise ValueError(f"{model.value} requires T > 0")
    if p.friction <= 0:
        raise ValueError("evolution requires friction b > 0")
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if n_records < 2:
        raise ValueError("n_records must be at least 2")

    grid = rho0.grid
    h = grid.h
    kT = p.k_B * p.temperature
    rho = rho0.rho.copy()

    # static part of the advected potential
    if model.semiclassical:
        phi_static = effective_potential(U, p.beta, p, grid)
    else:
        phi_static = U.energy(grid, p)
    dphi = np.diff(_ring(phi_static, boundary)) / h

    def rate(r):
        """div(flux)(r): the right-hand side before division by b."""
        q = _quantum_potential_raw(r, h, p, boundary) if model.quantum else None
        return _divergence(_flux(r, dphi, kT, h, boundary, q), h, boundary)

    # time step from the stability bound
    if model.quantum:
        phi0 = phi_static + _quantum_potential_raw(rho, h, p, boundary)
        core = rho >= 1e-6 * float(np.max(rho))
        scale = max(float(np.ptp(phi0[core])), 1e-300)
    else:
        scale = max(kT, float(np.ptp(phi_static)), 1e-300)
    if model.inertial:
        dt_bound = 0.25 * h * math.sqrt(p.mass / scale)
        if model.quantum:
            # the Bohm term linearizes to a fourth-order wave operator
            dt_bound = min(dt_bound, 0.25 * p.mass * h ** 2 / p.hbar)
    else:
        dt_bound = 0.4 * h ** 2 * p.friction / scale
        if model.quantum:
            # the Bohm term linearizes to a biharmonic diffusion
            dt_bound = min(dt_bound,
                           0.25 * h ** 4 * p.mass * p.friction / p.hbar ** 2)
    if dt is None:
        dt = min(dt_bound, t_final / 10.0)
    elif dt > dt_bound:
        raise ValueError(f"dt = {dt} exceeds the stability bound {dt_bound:.3e}")

    n_steps = max(1, int(math.ceil(t_final / dt)))
    dt = t_final / n_steps
    record_steps = set(np.rint(np.arange(n_records) * n_steps
                               / (n_records - 1)).astype(int).tolist())

    mass0 = _trapz(rho, h, boundary)
    g = np.zeros_like(rho)  # drho/dt, inertial variants only
    times, mus, sig2s, masses = [], [], [], []

    x = grid.x

    def record(t, r):
        norm = _trapz(r, h, boundary)
        mean = _trapz(x * r, h, boundary) / norm
        second = _trapz(x ** 2 * r, h, boundary) / norm
        times.append(t)
        mus.append(mean)
        sig2s.append(second - mean ** 2)
        masses.append(norm)

    record(0.0, rho)
    neg_tol = 1e-9 * float(np.max(rho))
    for step in range(1, n_steps + 1):
        if model.inertial:
            g = (g + dt * rate(rho) / p.mass) / (1.0 + dt * p.friction / p.mass)
            rho = rho + dt * g
        else:
            rho = rho + dt * rate(rho) / p.friction
        if step % 200 == 0 or step == n_steps:
            mass = _trapz(rho, h, boundary)
            if abs(mass - mass0) > 1e-8:
                raise ConvergenceError(
                    f"mass drift {mass - mass0:.3e} at step {step} "
                    f"(t = {step * dt:.6g}); reduce dt or widen the domain")
            if float(np.min(rho)) < -neg_tol:
                raise ConvergenceError(
                    f"density fell to {np.min(rho):.3e} at step {step}; "
                    f"scheme unstable at dt = {dt:.3e}")
        if step in record_steps:
            record(step * dt, rho)

    final = DensityField(grid=grid, rho=np.maximum(rho, 0.0))
    diagnostics = {"stability_scale": scale, "boundary": boundary,
                   "min_density": float(np.min(rho))}
    if model.quantum:
        floor = _RHO_FLOOR_FACTOR * float(np.max(final.rho))
        diagnostics["floored_fraction"] = float(np.mean(final.rho < floor))
    return EvolveResult(
        density=final, times=np.array(times), mu=np.array(mus),
        sigma2=np.array(sig2s), mass=np.array(masses), dt=dt, n_steps=n_steps,
        diagnostics=diagnostics)
