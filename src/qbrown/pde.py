"""Finite-difference evolution of the position probability density.

Telegraph (inertial) and Smoluchowski (overdamped) equations in one
dimension, classical, semiclassical and zero-T quantum, with one
exponentially fitted flux for T > 0, the Bohm potential and moments.
Smoluchowski steps are implicit in ln rho, telegraph steps explicit.
"""

from __future__ import annotations

import itertools
import logging
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbsv

from .numerics import ConvergenceError
from .params import PhysicalParams

_log = logging.getLogger(__name__)


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
    """Probability density on a Grid1D, normalized to unit trapezoid mass."""

    grid: Grid1D
    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.size != self.grid.n:
            raise ValueError("rho length must match the grid")
        if np.any(self.rho < 0):
            raise ValueError("rho must be non-negative")
        mass = _trapz(self.rho, self.grid.h)
        if mass <= 0:
            raise ValueError("density has no mass")
        self.rho = self.rho / mass

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

    derivatives gives (U, U', U''): exact for the analytic variants, central
    differences for a table.
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
        return self.derivatives(grid, p)[0]

    def derivatives(self, grid: Grid1D, p: PhysicalParams):
        """(U, U', U'') at the grid nodes."""
        self.check_consistency(p)
        x = grid.x
        if self.variant == "free":
            zero = np.zeros(grid.n)
            return zero, zero, zero
        if self.variant == "linear":
            return -self.f * x, np.full(grid.n, -self.f), np.zeros(grid.n)
        if self.variant == "harmonic":
            k = p.mass * self.omega0 ** 2
            return 0.5 * k * x ** 2, k * x, np.full(grid.n, k)
        if self.variant == "quartic":
            return (self.k4 * x ** 4, 4.0 * self.k4 * x ** 3,
                    12.0 * self.k4 * x ** 2)
        if self.values.size != grid.n:
            raise ValueError("tabulated potential length must match the grid")
        u = np.array(self.values, dtype=float)
        lap = np.empty(grid.n)
        lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / grid.h ** 2
        lap[0] = lap[1]
        lap[-1] = lap[-2]
        return u, np.gradient(u, grid.h), lap


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
                           boundary: str, peak: float | None = None
                           ) -> np.ndarray:
    """quantum_potential on a bare array; a periodic ring wraps the ends.

    peak is max(rho_arr), for a caller that has taken it already.
    """
    if peak is None:
        peak = float(np.max(rho_arr))
    floor = _RHO_FLOOR_FACTOR * peak
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
    """Semiclassical potential U + beta hbar^2 [3 U'' - beta U'^2] / 24m."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    u, du, d2u = U.derivatives(grid, p)
    return u + beta * p.hbar ** 2 * (3.0 * d2u - beta * du ** 2) / (24.0 * p.mass)


@dataclass
class Moments:
    mean: float
    dispersion: float
    norm: float


def moments(rho: DensityField) -> Moments:
    """Trapezoid-rule mean, dispersion and norm of a density field.

    Emits a warning when the norm strays from 1 by more than 1e-6.
    """
    mean, dispersion, norm = _moments(rho.rho, rho.grid.x, rho.grid.h)
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(f"density norm {norm} deviates from 1", stacklevel=2)
    return Moments(mean=mean, dispersion=dispersion, norm=norm)


def _moments(r, x, h, boundary="reflecting"):
    """(mean, dispersion, norm) of the density r at nodes x."""
    norm = _trapz(r, h, boundary)
    mean = _trapz(x * r, h, boundary) / norm
    return mean, _trapz(x ** 2 * r, h, boundary) / norm - mean ** 2, norm


@dataclass
class EvolveResult:
    """Final density plus the recorded moment trajectory and diagnostics."""

    density: DensityField
    times: np.ndarray
    mu: np.ndarray
    sigma2: np.ndarray
    mass: np.ndarray
    n_steps: int
    diagnostics: dict = field(default_factory=dict)


def _divergence(flux_half, h, boundary, flux_in=None):
    """Conservative divergence: cell updates from half-node fluxes.

    Reflecting boundaries use half-size end cells so that the trapezoid
    mass is conserved exactly; periodic wraps the last edge around.
    flux_in is the flux through each face as the cell to its right sees
    it, where a flux is scaled per cell; it defaults to flux_half.
    Stacked fluxes are differenced along their last axis.
    """
    if flux_in is None:
        flux_in = flux_half
    nf = flux_half.shape[-1]
    n = nf + 1 if boundary == "reflecting" else nf
    out = np.empty(flux_half.shape[:-1] + (n,))
    if boundary == "reflecting":
        out[..., 1:-1] = (flux_half[..., 1:] - flux_in[..., :-1]) / h
        out[..., 0] = flux_half[..., 0] / (0.5 * h)
        out[..., -1] = -flux_in[..., -1] / (0.5 * h)
    else:
        out[...] = (flux_half - np.roll(flux_in, 1, axis=-1)) / h
    return out


def _ring(a, boundary):
    """Node values whose faces lie between a[:-1] and a[1:]: a periodic
    ring appends its wrap node."""
    return a if boundary == "reflecting" else np.append(a, a[0])


def _flux(rho, dphi, h, boundary, p):
    """Half-node flux rho d(Phi + Q)/dx of the explicit quantum telegraph
    model: static gradient dphi at the faces, Q the Bohm potential of
    rho.  Below 1e-6 of the peak the floored tails of Q produce spurious
    spikes, so its term is tapered off there and the drift upwinded (donor
    cell), since the centered scheme would seed wiggles around the Q-floor
    kink.
    """
    r = _ring(rho, boundary)
    r_half = 0.5 * (r[1:] + r[:-1])
    peak = float(np.max(rho))
    cutoff = 1e-6 * peak
    taper = np.minimum(np.maximum(r_half / (10.0 * cutoff) - 0.1, 0.0), 1.0)
    r_up = np.where(dphi < 0.0, r[:-1], r[1:])
    r_adv = taper * r_half + (1.0 - taper) * r_up
    q = _ring(_quantum_potential_raw(rho, h, p, boundary, peak), boundary)
    dq = (q[1:] - q[:-1]) / h
    return r_adv * dphi + r_half * dq * taper


def _bernoulli(z):
    """B(z) = z / expm1(z), B(0) = 1; z > 0 takes B(-z) e^-z to stay finite."""
    a = -np.abs(z)
    b = np.divide(a, np.expm1(a), out=np.ones_like(a), where=a != 0.0)
    return np.where(z > 0.0, b * np.exp(a), b)


class _LogDensityRate:
    """The divergence of the face flux, in rho and in y = ln rho.

    The face flux is G = alpha_- rho_+ - alpha_+ rho - c (w_+ - w)/h,
    alpha_- = alpha_+ + dPhi/dx.  For kT > 0, alpha_+ = (kT/h) B(h dPhi/dx
    / kT), the exponentially fitted (Scharfetter-Gummel) flux: zero on the
    discrete Boltzmann density, positive at every cell Peclet number and
    centred where dPhi/dx = 0.  At kT = 0, alpha_+ = -dPhi/dx / 2.  The
    zero-T quantum Smoluchowski model adds rho dQ/dx = -(hbar^2/4m)
    d/dx(rho d^2y/dx^2): c = hbar^2/4m, w = rho * (second difference of
    y), mirror ghosts at reflecting walls; c = 0 otherwise.
    flux(rho) is G for c = 0 (the explicit telegraph step).
    rate_and_jacobian(y) gives div G / rho, so tails where rho underflows
    stay finite (row i keeps only exp(y_j - y_i)), and d rate_i / d y_(i+d)
    for d = -2..2.  The products of s = c / h^3 with the second-difference
    coefficients depend only on the grid and are made once, and the
    derivatives go into two buffers that the instance owns.  solve()
    solves with such diagonals as one band, the ring ordered 0, n-1, 1,
    n-2, ... so that its corners fall inside it: the diagonals are
    scattered straight into LAPACK gbsv's band storage, b rows for the LU
    fill-in above the 2b + 1 rows of the band, which one gbsv call
    factors and solves in place.
    """

    def __init__(self, dphi, kT, c, h, boundary, n):
        self.c, self.h, self.boundary = c, h, boundary
        ap = kT / h * _bernoulli(h * dphi / kT) if kT > 0 else -0.5 * dphi
        self._am, self._ap = ap + dphi, ap
        # second difference L_i = (c- y_(i-1) + c0 y_i + c+ y_(i+1)) / h^2
        self._cl = np.array([np.ones(n), np.full(n, -2.0), np.ones(n)])
        if boundary == "reflecting":
            self._cl[:, 0] = (0.0, -2.0, 2.0)     # mirror ghost y_-1 = y_1
            self._cl[:, -1] = (2.0, -2.0, 0.0)
            order = np.arange(n)
        else:
            order = np.empty(n, dtype=int)
            order[0::2] = np.arange((n + 1) // 2)
            order[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
        # L's coefficients at each face's left node (cm, c0, cp) and at its
        # right node (dm, d0, dp), and their products with s = c / h^3
        cl_faces = np.stack([_ring(a, boundary) for a in self._cl])
        self._d = cl_faces[:, 1:]
        self._s = c / h ** 3
        self._sc, self._sd = self._s * cl_faces[:, :-1], self._s * self._d
        # derivatives of a and a/e by y at offsets -2..2 from the left
        # node; the rows that do not depend on y are filled here
        self._da = np.zeros((5, cl_faces.shape[1] - 1))
        self._db = np.zeros_like(self._da)
        self._da[1] = self._sc[0]
        self._db[3] = -self._sd[2]
        self._nb = (np.arange(-1, n - 1), np.arange(1, n + 1) % n)
        self._order = order
        self._pos = np.argsort(order)
        rows = np.repeat(np.arange(n)[None, :], 5, axis=0)
        cols = rows + np.arange(-2, 3)[:, None]
        if boundary == "periodic":
            cols %= n
        self._keep = ((cols >= 0) & (cols < n)).ravel()
        pr = self._pos[rows.ravel()[self._keep]]
        pc = self._pos[cols.ravel()[self._keep]]
        self.bands = b = int(np.max(np.abs(pr - pc)))
        # entry (pr, pc) sits at row 2b + pr - pc, column pc of the
        # column-major (3b + 1, n) band storage
        self._flat = pc * (3 * b + 1) + 2 * b + pr - pc
        self._n = n

    def _faces(self, y):
        h = self.h
        cm, c0, cp = self._cl
        prev, after = self._nb
        lap = _ring((cm * y[prev] + c0 * y + cp * y[after]) / h ** 2,
                    self.boundary)
        yr = _ring(y, self.boundary)
        e = np.exp(yr[1:] - yr[:-1])            # rho_right / rho_left
        # the face flux over the density of its left node
        a = (self._am * e - self._ap
             - self.c / h * (e * lap[1:] - lap[:-1]))
        return lap, e, a

    def flux(self, rho):
        r = _ring(rho, self.boundary)
        return self._am * r[1:] - self._ap * r[:-1]

    def rate_and_jacobian(self, y):
        h = self.h
        lap, e, a = self._faces(y)
        dm, d0, dp = self._d
        scm, sc0, scp = self._sc
        sdm, sd0, _ = self._sd
        se = self._s * e
        p = e * (self._am - self.c / h * lap[1:])         # da / dy_right
        q = (p - a) / e                                   # d(a/e) / dy_right
        # rate row i takes face i's a and face i-1's a/e, so the offset d
        # of a pairs with offset d + 1 of a/e
        da, db = self._da, self._db
        da[2] = -p + sc0 - se * dm
        da[3] = p + scp - se * d0
        np.multiply(-se, dp, out=da[4])
        np.divide(scm, e, out=db[0])
        db[1] = -q + sc0 / e - sdm
        db[2] = q + scp / e - sd0
        return (_divergence(a, h, self.boundary, a / e),
                _divergence(da, h, self.boundary, db))

    def solve(self, diagonals, rhs):
        n, b = self._n, self.bands
        ab = np.zeros((3 * b + 1) * n)
        ab[self._flat] = diagonals.ravel()[self._keep]
        _, _, z, info = dgbsv(b, b, ab.reshape(n, 3 * b + 1).T,
                              rhs[self._order], overwrite_ab=True,
                              overwrite_b=True)
        if info > 0:
            raise LinAlgError("singular matrix")
        return z[self._pos]


# Newton stops once max |dy| falls below this, and a step whose Newton
# solve has not converged after _NEWTON_MAX_ITER iterations is halved
_NEWTON_TOL = 1e-9
_NEWTON_MAX_ITER = 8
# local error per step: the trapezoid L1 norm of the predictor-corrector
# difference, scaled to the BDF error constant, relative to the mass
_LOCAL_ERROR_TOL = 1e-5


def _newton(rate_of, y_guess, a0, history, k):
    """Solve a0 + sum_j a_j rho_j / rho = k rate(y) for y, by Newton.

    history holds (a_j, y_j) of the earlier states of the BDF formula;
    dividing by rho = exp(y) leaves exp(y_j - y).  Returns (y, iterations)
    or (None, iterations) when the iteration fails, leaves the floats or
    has not converged after _NEWTON_MAX_ITER iterations.
    """
    y = y_guess.copy()
    for it in range(1, _NEWTON_MAX_ITER + 1):
        r, jac = rate_of.rate_and_jacobian(y)
        past = sum(aj * np.exp(yj - y) for aj, yj in history)
        jac *= -k
        jac[2] -= past
        try:
            dy = rate_of.solve(jac, k * r - a0 - past)
        except LinAlgError:
            return None, it
        if not np.all(np.isfinite(dy)):
            return None, it
        y += dy
        if float(np.max(np.abs(dy))) < _NEWTON_TOL:
            return y, it
    return None, _NEWTON_MAX_ITER


def _extrapolate(points, t):
    """Value at t of the polynomial through the (t_k, v_k) points."""
    return sum(vk * math.prod((t - tm) / (tk - tm)
                              for tm, _ in points if tm != tk)
               for tk, vk in points)


def _step_log_density(rho0, rate_of, friction, t_records, dt, stats):
    """Variable-step BDF2 in y = ln rho (backward Euler first) with local
    error control; yields rho at each record time after the first and
    counts into stats: accepted steps, Newton iterations, rejected steps
    and, of those, the steps rejected because Newton failed.

    The BDF formula differences rho, not y, so the trapezoid mass moves
    only by the Newton residual.  The local error is estimated from a
    predictor in rho: the slope at t = 0 for the first step, the Hermite
    quadratic through it and the first step for the second, then the
    quadratic through the last three states.  Newton starts from the
    extrapolated y.  A step that fails is retried at half its size, one
    over the error tolerance at the size the estimate asks for, and the
    step after a failure does not grow.
    """
    def mass_of(r):
        return _trapz(r, rate_of.h, rate_of.boundary)

    y = np.log(np.maximum(rho0, np.finfo(float).tiny))
    mass0 = mass_of(rho0)
    drho0 = rho0 * rate_of.rate_and_jacobian(y)[0] / friction
    hist = [(0.0, y, np.exp(y))]           # the last three accepted states
    t = 0.0
    max_growth = 2.0
    stats.update(dt_min=math.inf, dt_max=0.0)
    for t_next in t_records[1:]:
        while t < t_next:
            span = t_next - t
            dt = span / max(1, math.ceil(span / dt - 1e-9))  # land on t_next
            t_new = t_next if dt == span else t + dt
            t1, y1, r1 = hist[-1]
            if len(hist) == 1:
                a0, past, order = 1.0, [(-1.0, y1)], 1
                rho_p, guess = r1 + dt * drho0, y1
                factor = 0.5
            else:
                t0, y0, r0 = hist[-2]
                w = dt / (t1 - t0)
                a0, order = (1.0 + 2.0 * w) / (1.0 + w), 2
                past = [(-(1.0 + w), y1), (w * w / (1.0 + w), y0)]
                guess = _extrapolate([(tk, yk) for tk, yk, _ in hist], t_new)
                if len(hist) == 2:
                    nodes = (t0, t0, t1)
                    s = (t_new - t0) / (t1 - t0)
                    rho_p = (r0 + drho0 * (t_new - t0)
                             + (r1 - r0 - drho0 * (t1 - t0)) * s * s)
                else:
                    nodes = tuple(tk for tk, _, _ in hist)
                    rho_p = _extrapolate([(tk, rk) for tk, _, rk in hist],
                                         t_new)
                # BDF2 and predictor errors, both per unit third derivative
                lte = dt ** 2 * (t_new - t0) ** 2 / (t1 - t0 + 2.0 * dt)
                factor = lte / (lte + math.prod(t_new - tm for tm in nodes))
            with np.errstate(over="ignore", invalid="ignore",
                             divide="ignore"):
                y_new, its = _newton(rate_of, guess, a0, past, dt / friction)
            stats["newton_iterations"] += its
            if y_new is None:
                stats["newton_failures"] += 1
                stats["rejected_steps"] += 1
                max_growth = 1.0
                dt *= 0.5
                if dt < 1e-12 * t_records[-1]:
                    raise ConvergenceError(
                        f"Newton solve failed at step "
                        f"{stats['n_steps'] + 1} (t = {t:.6g}) down to "
                        f"dt = {dt:.3e}")
                continue
            rho_new = np.exp(y_new)
            est = factor * mass_of(np.abs(rho_new - rho_p)) / mass0
            growth = (2.0 if est == 0.0 else
                      0.9 * (_LOCAL_ERROR_TOL / est) ** (1.0 / (order + 1)))
            if est > _LOCAL_ERROR_TOL:
                stats["rejected_steps"] += 1
                max_growth = 1.0
                dt *= max(0.2, growth)
                continue
            t = t_new
            stats["n_steps"] += 1
            stats["dt_min"] = min(stats["dt_min"], dt)
            stats["dt_max"] = max(stats["dt_max"], dt)
            hist = hist[-2:] + [(t, y_new, rho_new)]
            dt *= max(0.2, min(growth, max_growth))
            max_growth = 2.0
        yield hist[-1][2]


def evolve(rho0: DensityField, model: PdeModel, U: PotentialSpec,
           p: PhysicalParams, t_final: float,
           boundary: str = "reflecting", n_records: int = 201) -> EvolveResult:
    """Advance the chosen density equation to t_final.

    Every model solves b drho/dt = d/dx(rho dPhi/dx + k_B T drho/dx
    + rho dQ/dx): Phi is U or the semiclassical effective potential, Q
    the Bohm potential of the zero-T quantum models, else 0.  The flux
    conserves the trapezoid mass on a reflecting box and h * sum(rho) on
    a periodic ring; the mass check, records and moments use that
    quadrature.

    Every model's stepper lands on the record times t_final j /
    (n_records - 1), j = 0 .. n_records - 1, where the moments are
    recorded and the density is checked, in this order: a non-finite
    value, mass drift beyond 1e-8, a minimum below -1e-9 of the initial
    peak.  Each aborts with ConvergenceError naming the quantity, the step
    count and t; a breakdown between two records is caught at the next.
    Each stepper starts from dt = min(explicit stability bound,
    t_final / 10); the diagnostics dt_min and dt_max are the smallest and
    largest steps taken.

    The three Smoluchowski models step y = ln rho implicitly on the flux
    of _LogDensityRate, exponentially fitted for T > 0 as in the linear
    telegraph models, so the discrete Boltzmann density is stationary:
    variable-step BDF2 (backward Euler first), a Newton solve on a banded
    Jacobian per step, local error control, and a halved step where Newton
    fails.  rho = exp(y) stays positive with no density floor.  There dt
    is only the first step tried, and the steps taken are not bounded;
    n_steps counts accepted steps and the diagnostics rejected_steps, of
    which newton_failures were rejected because Newton failed.

    The three telegraph models step explicitly: the second-order-in-time
    form as a (rho, drho/dt) system with semi-implicit damping and
    drho/dt(0) = 0, the quantum one on the tapered _flux, recomputing its
    floored Bohm potential every step.  Each record interval takes
    ceil(interval / dt) equal steps, so n_steps is a multiple of
    n_records - 1.
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
    c = p.hbar ** 2 / (4.0 * p.mass) if model.quantum else 0.0
    rate_of = _LogDensityRate(dphi, kT, c, h, boundary, grid.n)

    def rate(r):
        """div G(r): the telegraph right-hand side before division by m."""
        G = _flux(r, dphi, h, boundary, p) if model.quantum else rate_of.flux(r)
        return _divergence(G, h, boundary)

    # time step from the stability bound (the first step tried if implicit)
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
    dt = min(dt_bound, t_final / 10.0)

    t_records = t_final * np.arange(n_records) / (n_records - 1)
    stats = {"newton_iterations": 0, "rejected_steps": 0,
             "newton_failures": 0, "n_steps": 0}
    if not model.inertial:
        states = _step_log_density(rho, rate_of, p.friction,
                                   t_records.tolist(), dt, stats)
    else:
        interval = t_final / (n_records - 1)
        n_sub = max(1, math.ceil(interval / dt))
        dt = interval / n_sub
        stats.update(dt_min=dt, dt_max=dt)

        def explicit_states(rho):
            g = np.zeros_like(rho)  # drho/dt
            damping = 1.0 + dt * p.friction / p.mass
            for _ in range(n_records - 1):
                for _ in range(n_sub):
                    g = (g + dt * rate(rho) / p.mass) / damping
                    rho = rho + dt * g
                stats["n_steps"] += n_sub
                yield rho

        states = explicit_states(rho)

    x = grid.x
    mass0 = _trapz(rho, h, boundary)
    neg_tol = 1e-9 * float(np.max(rho))
    rows = []       # (mean, dispersion, mass) at each record time
    for t, rho in zip(t_records, itertools.chain([rho], states)):
        where = f"at step {stats['n_steps']} (t = {t:.6g})"
        if not np.all(np.isfinite(rho)):
            raise ConvergenceError(f"density not finite {where}")
        mean, dispersion, mass = _moments(rho, x, h, boundary)
        if not abs(mass - mass0) <= 1e-8:
            raise ConvergenceError(f"mass drift {mass - mass0:.3e} {where}")
        if float(np.min(rho)) < -neg_tol:
            raise ConvergenceError(f"density fell to {np.min(rho):.3e} {where}")
        rows.append((mean, dispersion, mass))
    mu, sigma2, masses = map(np.array, zip(*rows))
    n_steps = stats.pop("n_steps")

    final = DensityField(grid=grid, rho=np.maximum(rho, 0.0))
    diagnostics = {"stability_scale": scale, "boundary": boundary,
                   "min_density": float(np.min(rho)), **stats}
    if model.quantum and model.inertial:
        floor = _RHO_FLOOR_FACTOR * float(np.max(final.rho))
        diagnostics["floored_fraction"] = float(np.mean(final.rho < floor))
    _log.debug("evolve %s: %d steps (dt %.3e to %.3e), %d rejected (%d "
               "Newton failures), %d Newton iterations, min density %.3e",
               model.value, n_steps, stats["dt_min"], stats["dt_max"],
               stats["rejected_steps"], stats["newton_failures"],
               stats["newton_iterations"], diagnostics["min_density"])
    return EvolveResult(
        density=final, times=t_records, mu=mu, sigma2=sigma2, mass=masses,
        n_steps=n_steps, diagnostics=diagnostics)
