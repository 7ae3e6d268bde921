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
from scipy.linalg.lapack import dgbsv, dgtsv

from .numerics import ConvergenceError
from .params import PhysicalParams

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Grid1D:
    """Uniform spatial grid with both endpoints included, on a box or a ring.

    boundary is "box" (walls at x_min and x_max) or "periodic" (a ring
    of length n h, on which x_max + h is x_min again).  DensityField,
    moments, quantum_potential, evolve and eigen_density read it from
    here, and every quadrature on the grid is weights @ values.
    """

    x_min: float
    x_max: float
    n: int
    boundary: str = "box"

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be less than x_max")
        if self.n < 16:
            raise ValueError("grid needs at least 16 nodes")
        if self.boundary not in ("box", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    @property
    def weights(self) -> np.ndarray:
        """The grid's one quadrature rule, its cell widths: h at every
        node, h/2 at a box's two walls (the trapezoid rule)."""
        w = np.full(self.n, self.h)
        if self.boundary == "box":
            w[[0, -1]] *= 0.5
        return w


@dataclass
class DensityField:
    """Probability density on a Grid1D, normalized to unit mass by the
    grid's quadrature: grid.weights @ rho = 1."""

    grid: Grid1D
    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.size != self.grid.n:
            raise ValueError("rho length must match the grid")
        if np.any(self.rho < 0):
            raise ValueError("rho must be non-negative")
        mass = float(self.grid.weights @ self.rho)
        if mass <= 0:
            raise ValueError("density has no mass")
        self.rho = self.rho / mass

    @classmethod
    def gaussian(cls, grid: Grid1D, mu: float, sigma2: float) -> "DensityField":
        """exp(-d^2 / 2 sigma2), d = x - mu, normalized; on a ring d is
        each node's minimum-image distance to mu on the n h ring."""
        if sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        d = grid.x - mu
        if grid.boundary == "periodic":
            d -= grid.n * grid.h * np.round(d / (grid.n * grid.h))
        return cls(grid=grid, rho=np.exp(-d ** 2 / (2.0 * sigma2)))

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
    root (0/0 tails); second-order central stencil inside, and at the
    ends one-sided on a box and wrapped on a ring.
    """
    grid = rho.grid
    ring = grid.boundary == "periodic"
    rr = _ring(rho.rho, grid)
    curv = np.empty(rr.size)
    _sqrt_curvature(rr, _RHO_FLOOR_FACTOR * float(np.max(rr)), ring,
                    np.empty(rr.size + 2), np.empty(rr.size + 1), curv)
    return (-p.hbar ** 2 / (2.0 * p.mass * grid.h ** 2)) * curv[:grid.n]


def _sqrt_curvature(rr, floor, ring, ag, fd, out):
    """Write a''/a into out, a = sqrt(max(rr, floor)) and a'' its second
    difference (times h^2) at each node of rr, which on a ring ends with
    its wrap node.  a goes into ag with one ghost node per end, so that one
    second difference serves every node: the wrap node on a ring, 4 a_0 -
    6 a_1 + 4 a_2 - a_3 at a box's wall, which gives the one-sided stencil
    2 a_0 - 5 a_1 + 4 a_2 - a_3.  fd takes the first differences.
    """
    a = ag[1:-1]
    np.maximum(rr, floor, out=a)
    np.sqrt(a, out=a)
    if ring:
        ag[0], ag[-1] = ag[-3], ag[2]
    else:
        a0, a1, a2, a3 = ag[1:5].tolist()
        ag[0] = 4.0 * (a0 + a2) - 6.0 * a1 - a3
        a0, a1, a2, a3 = ag[-2:-6:-1].tolist()
        ag[-1] = 4.0 * (a0 + a2) - 6.0 * a1 - a3
    np.subtract(ag[1:], ag[:-1], out=fd)
    np.subtract(fd[1:], fd[:-1], out=out)
    np.divide(out, a, out=out)


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
    """Mean, dispersion and norm of a density field by its grid's
    quadrature (Grid1D.weights), the rule DensityField normalizes by and
    evolve records by; a warning is emitted when the norm strays from 1 by more
    than 1e-6."""
    mean, dispersion, norm = _moments(_moment_weights(rho.grid), rho.rho)
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(f"density norm {norm} deviates from 1", stacklevel=2)
    return Moments(mean=mean, dispersion=dispersion, norm=norm)


def _moment_weights(grid):
    """The (3, n) matrix whose product with a density gives its mass,
    first and second moments by the grid's quadrature, Grid1D.weights."""
    w, x = grid.weights, grid.x
    return np.stack([w, w * x, w * x * x])


def _moments(weights, r):
    """(mean, dispersion, norm) of the density r by _moment_weights."""
    norm, first, second = (weights @ r).tolist()
    mean = first / norm
    return mean, second / norm - mean ** 2, norm


def _record_fault(r, mass, mass0, neg_tol):
    """The first record check that the density r, of quadrature mass mass,
    fails, or None: a non-finite value, a mass more than 1e-8 from mass0,
    a minimum below -neg_tol, in this order."""
    if not np.isfinite(r).all():
        return "density not finite"
    if not abs(mass - mass0) <= 1e-8:
        return f"mass drift {mass - mass0:.3e}"
    lowest = float(r.min())
    if lowest < -neg_tol:
        return f"density fell to {lowest:.3e}"
    return None


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


def _ring(a, grid):
    """Node values whose faces lie between a[:-1] and a[1:]: a periodic
    ring appends its wrap node."""
    return a if grid.boundary == "box" else np.append(a, a[0])


def _flux(dphi, grid, p, k):
    """flux(rr, out) writes into out k times the half-node flux of the
    explicit quantum telegraph model for the density rr (a ring appends
    its wrap node), dPhi/dx = dphi and Q the Bohm potential:

        k [(r_up + taper (rho_f - r_up)) dPhi/dx + taper rho_f dQ/dx],

    rho_f = (rho_i + rho_(i+1)) / 2, r_up the donor node (rho_i where
    dPhi/dx < 0, else rho_(i+1)), taper = clip(rho_f / (1e-5 peak) - 0.1,
    0, 1), dQ/dx = (Q_(i+1) - Q_i) / h and Q = -hbar^2 a'' / (2 m a), a =
    sqrt(max(rho, 1e-12 peak)), a'' its central second difference over
    h^2: one-sided, (2 a_0 - 5 a_1 + 4 a_2 - a_3) / h^2, at a box's walls,
    wrapped on a ring (_sqrt_curvature).  Below 1e-6 of the peak the
    floored tails of Q produce spurious spikes, so its term is tapered off
    there and the drift upwinded (donor cell), since the centered scheme
    would seed wiggles around the Q-floor kink.
    """
    m = dphi.size + 1                       # nodes of rr
    ring = grid.boundary == "periodic"
    k_bohm = -k * p.hbar ** 2 / (4.0 * p.mass * grid.h ** 3)
    k_drift, half_drift = k * dphi, 0.5 * k * dphi
    upwind = dphi < 0.0
    # the donor node is rr[side + i] at face i where dPhi/dx has one sign
    side = 0 if upwind.all() else None if upwind.any() else 1
    ag, fd, curv = np.empty(m + 2), np.empty(m + 1), np.empty(m)
    r_sum, taper, drift = np.empty(m - 1), np.empty(m - 1), np.empty(m - 1)

    def flux(rr, out):
        np.add(rr[1:], rr[:-1], out=r_sum)          # twice rho at the faces
        peak = rr.max()
        # -2 m h^2 Q / hbar^2
        _sqrt_curvature(rr, _RHO_FLOOR_FACTOR * peak, ring, ag, fd, curv)
        r_up = (rr[side:side + m - 1] if side is not None
                else np.where(upwind, rr[:-1], rr[1:]))
        # taper (2 rho_f (k_bohm dcurv + k dPhi/dx / 2) - k r_up dPhi/dx)
        # + k r_up dPhi/dx
        np.subtract(curv[1:], curv[:-1], out=out)
        out *= k_bohm
        out += half_drift
        out *= r_sum
        np.multiply(k_drift, r_up, out=drift)
        out -= drift
        np.multiply(r_sum, 5e4 / peak, out=taper)
        np.subtract(taper, 0.1, out=taper)
        np.maximum(taper, 0.0, out=taper)
        np.minimum(taper, 1.0, out=taper)
        out *= taper
        out += drift
    return flux


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
    y), mirror ghosts at a box's walls; c = 0 otherwise.  The grid gives
    h, n and the boundary.
    flux(k) gives k G for c = 0 (the explicit telegraph step).

    rate_and_jacobian(y) gives div G / rho, each face entering through e =
    exp(y_right - y_left) only, so tails where rho underflows stay finite,
    and d rate / dy: 3 diagonals from e alone for c = 0, 5 with the second
    difference of y for c > 0, rows summing to zero (the rate sees only
    differences of y).  Each diagonal goes straight into the LAPACK band
    storage that solve() reads, entry (i, j) at row off + p_i - p_j,
    column p_j, p node order on a box and 0, n-1, 1, n-2, ... on a ring
    (which puts its corners inside the band).  solve() picks the routine
    by the band's half-width b: gtsv (off = 1) for b = 1, c = 0 on a box,
    else gbsv (off = 2b, below its b rows of LU fill-in); either factors
    and solves in one call.
    """

    def __init__(self, dphi, kT, c, grid):
        self.c, self.grid = c, grid
        h, n = grid.h, grid.n
        ap = kT / h * _bernoulli(h * dphi / kT) if kT > 0 else -0.5 * dphi
        self._am, self._ap = ap + dphi, ap
        ring, nf = grid.boundary == "periodic", dphi.size
        # cell widths, the grid's quadrature weights, and their inverses at
        # each face's left and right node
        self._width = grid.weights
        inv = 1.0 / self._width
        self._inv = inv_l, inv_r = inv[:nf], _ring(inv, grid)[1:]
        self._apw = inv_r * ap
        # face values padded to n + 1: [1:] is the face right of each node,
        # [:-1] the face left of it, zero beyond a box's walls
        self._fs, self._pad = slice(1, nf + 1), np.zeros((4, n + 1))
        # c > 0: y with ghost nodes (mirror images at a box's walls); s =
        # c/h^3 times its second difference, whose coefficients (cm, -2, cp)
        # make the +-2 diagonals' factors and the +-1 ones' constant parts
        self._ghosted = np.r_[n - 1 if ring else 1, 0:n, 0 if ring else n - 2]
        s = self._s = c / h ** 3
        self._lx = np.zeros(n + 1)
        # y at the ghosted nodes and its first differences y_i - y_(i-1)
        self._yg, self._dys = np.empty(n + 2), np.empty(n + 1)
        cm, cp = np.ones(n), np.ones(n)
        if not ring:
            cm[0], cp[0], cm[-1], cp[-1] = 0.0, 2.0, 2.0, 0.0
        cm_r, cp_r = _ring(cm, grid)[1:], _ring(cp, grid)[1:]
        self._bohm = (-s * inv_l * cp_r, -s * inv_r * cm[:nf],
                      2.0 * s / h * cp[:nf], 2.0 * s / h * cm_r)
        # the band's half-width b, its storage, and where diagonal d of face
        # f goes: entry (f, f + d) for d > 0, (f + 1, f + 1 + d) for d < 0
        half = 2 if c else 1
        self._order = self._pos = None
        if ring:
            order = np.empty(n, dtype=int)
            order[0::2] = np.arange((n + 1) // 2)
            order[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
            pos = np.argsort(order)
            self._order, self._pos = order, pos
        # on a ring the order 0, n-1, 1, n-2, ... puts every node within
        # 2 half positions of its stencil neighbours, the wrap included
        self.bands = b = 2 * half if ring else half
        self._ab = (np.zeros((3, n)) if b == 1 else
                    np.zeros((3 * b + 1, n), order="F"))
        off = self._ab.shape[0] - 1 - b
        self._at = []
        for d in (1, -1, 2, -2)[:2 * half]:
            if ring:
                row = pos[(np.arange(nf) + (d < 0)) % n]
                col = np.roll(row, -d)
                self._at.append((slice(None), (off + row - col, col)))
            else:
                self._at.append((slice(max(0, -1 - d), n - max(1, d)),
                                 (off - d, slice(max(0, d), n + min(0, d)))))
        self.diagonal = (off, pos if ring else slice(None))

    def flux(self, k):
        """flux(rr, out) writes k G for c = 0 into out, as _flux does."""
        am, ap, tmp = k * self._am, k * self._ap, np.empty_like(self._am)

        def flux(rr, out):
            np.multiply(am, rr[1:], out=out)
            out -= np.multiply(ap, rr[:-1], out=tmp)
        return flux

    def rate_and_jacobian(self, y):
        """(div G / rho, its Jacobian in the band storage solve() uses)."""
        fs, lx, (inv_l, inv_r) = self._fs, self._lx, self._inv
        a, b, out, into = pad = self._pad
        am, ap = self._am, self._ap
        dys = self._dys
        if self.c:
            # y_i - y_(i-1), i = 0 .. n, and s times the second difference
            yg = np.take(y, self._ghosted, out=self._yg)
            np.subtract(yg[1:], yg[:-1], out=dys)
            np.subtract(dys[1:], dys[:-1], out=lx[:-1])
            lx[:-1] *= self._s
            lx[-1] = lx[0]                      # a ring's wrap node
            am = am - lx[1:fs.stop]
            ap = ap - lx[:fs.stop - 1]
        else:
            # y_(i+1) - y_i across each face
            np.subtract(y[1:], y[:-1], out=dys[1:y.size])
            if self._pos is not None:
                dys[-1] = y[0] - y[-1]          # a ring's wrap face
        e = np.exp(dys[fs])
        p = am * e
        # the face flux over rho at its left node, a, and at its right, b
        np.subtract(p, ap, out=a[fs])
        np.divide(a[fs], e, out=b[fs])
        # per face: d rate / dy_right in the left node's row, d rate /
        # dy_left in the right node's row, then the +-2 diagonals
        if self.c:
            out2, in2, c1, c_1 = self._bohm
            diags = ((p + 2.0 * self._s * e) * inv_l + c1,
                     (ap + 2.0 * self._s) / e * inv_r + c_1, out2 * e, in2 / e)
            np.add(diags[0], diags[2], out=out[fs])
            np.add(diags[1], diags[3], out=into[fs])
        else:
            np.multiply(p, inv_l, out=out[fs])
            np.divide(self._apw, e, out=into[fs])
            diags = (out[fs], into[fs])
        ab = self._ab
        if self._pos is not None:               # a ring
            pad[:, 0] = pad[:, -1]
            ab.fill(0.0)
        rate = a[1:] - b[:-1]
        rate /= self._width
        ab[self.diagonal] = -(out[1:] + into[:-1])
        for (sel, at), diag in zip(self._at, diags):
            ab[at] = diag[sel]
        return rate, ab

    def solve(self, ab, rhs):
        """Solve the system in band storage ab for rhs; ab is overwritten."""
        b = self.bands
        if self._order is not None:
            rhs = rhs[self._order]
        if b == 1:
            x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, True, True,
                            True)[3:]
        else:
            x, info = dgbsv(b, b, ab, rhs, overwrite_ab=True)[2:]
        if info > 0:
            raise LinAlgError("singular matrix")
        return x if self._pos is None else x[self._pos]


# Newton stops once max |dy| max(rho / rho_max, _NEWTON_WEIGHT_FLOOR)
# falls below _NEWTON_TOL, and a step whose Newton solve has not converged
# after _NEWTON_MAX_ITER iterations is halved
_NEWTON_TOL = 1e-9
_NEWTON_WEIGHT_FLOOR = 1e-6
_NEWTON_MAX_ITER = 12
# local error per step: the quadrature L1 norm of the predictor-corrector
# difference, scaled to the BDF error constant, relative to the mass
_LOCAL_ERROR_TOL = 1e-5


def _newton(rate_of, y_guess, a0, history, k):
    """Solve a0 + sum_j a_j rho_j / rho = k rate(y) for y, by Newton.

    history holds (a_j, y_j) of the earlier states of the BDF formula;
    dividing by rho = exp(y) leaves exp(y_j - y), formed once from the
    guess and multiplied by exp(-dy) after each update dy.  The test is
    weighted by the density of the guess: dy converges once max |dy|
    max(rho / rho_max, 1e-6) < 1e-9, so the core is solved to 1e-9 in ln
    rho and nodes below 1e-6 of the peak, where ln rho changes no moment,
    to 1e-3.  Returns (y, iterations) or (None, iterations) when the
    iteration fails, leaves the floats or has not converged after
    _NEWTON_MAX_ITER (12) iterations.
    """
    y = y_guess.copy()
    past = sum(aj * np.exp(yj - y) for aj, yj in history)
    weight = np.exp(y - y.max())
    np.maximum(weight, _NEWTON_WEIGHT_FLOOR, out=weight)
    for it in range(1, _NEWTON_MAX_ITER + 1):
        r, jac = rate_of.rate_and_jacobian(y)
        jac *= -k
        jac[rate_of.diagonal] -= past
        r *= k
        r -= a0
        r -= past
        try:
            dy = rate_of.solve(jac, r)
        except LinAlgError:
            return None, it
        y += dy
        past *= np.exp(-dy)
        np.abs(dy, out=dy)
        dy *= weight
        change = float(dy.max())            # not finite with dy
        if not math.isfinite(change):
            return None, it
        if change < _NEWTON_TOL:
            return y, it
    return None, _NEWTON_MAX_ITER


def _lagrange(nodes, t):
    """The weights at t of the values at the nodes in the polynomial
    through them."""
    return [math.prod((t - tm) / (tk - tm) for tm in nodes if tm != tk)
            for tk in nodes]


def _log_start(rho):
    """ln rho where rho is a normal float; past the last normal node at
    each end, the line through the two outermost normal nodes there, held
    at or below ln(tiny).  A run of underflowed nodes between normal ones
    stays at ln(tiny), as does every node when fewer than two are normal.
    """
    tiny = np.finfo(float).tiny
    y = np.log(np.maximum(rho, tiny))
    normal = np.flatnonzero(rho >= tiny)
    if normal.size < 2:
        return y
    for end, inner, tail in ((normal[0], normal[1], np.arange(normal[0])),
                             (normal[-1], normal[-2],
                              np.arange(normal[-1] + 1, rho.size))):
        slope = (y[end] - y[inner]) / (end - inner)
        y[tail] = np.minimum(y[end] + slope * (tail - end), y[tail])
    return y


def _step_log_density(rho0, rate_of, friction, t_records, dt, stats):
    """Variable-step BDF2 in y = ln rho (backward Euler first) with local
    error control; yields rho at each record time after the first and
    counts into stats: accepted steps, Newton iterations, rejected steps
    and, of those, the steps rejected because Newton failed.

    The BDF formula differences rho, not y, so the quadrature mass moves
    only by the Newton residual.  The local error is estimated from a
    predictor in rho: the slope at t = 0 for the first step, the Hermite
    quadratic through it and the first step for the second, then the
    quadratic through the last three states.  The march starts from
    _log_start(rho0), smooth where rho0 underflows at the walls.  Newton
    starts from the y extrapolated through the accepted states, moved by
    at most 1 per node from the last one.  A step that fails is retried at
    half its size, one over the error tolerance at the size the estimate
    asks for, and the step after a failure does not grow.
    """
    quadrature = rate_of.grid.weights
    y = _log_start(rho0)
    mass0 = quadrature @ rho0
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
                weights = _lagrange([tk for tk, _, _ in hist], t_new)
                guess = sum(yk * wk for (_, yk, _), wk in zip(hist, weights))
                guess -= y1
                np.clip(guess, -1.0, 1.0, out=guess)
                guess += y1
                if len(hist) == 2:
                    nodes = (t0, t0, t1)
                    s = (t_new - t0) / (t1 - t0)
                    rho_p = (r0 + drho0 * (t_new - t0)
                             + (r1 - r0 - drho0 * (t1 - t0)) * s * s)
                else:
                    nodes = tuple(tk for tk, _, _ in hist)
                    rho_p = sum(rk * wk
                                for (_, _, rk), wk in zip(hist, weights))
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
            est = factor * (quadrature @ np.abs(rho_new - rho_p)) / mass0
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


def record_times(t_final: float, n_records: int) -> np.ndarray:
    """The times t_final j / (n_records - 1), j = 0 .. n_records - 1, on
    which evolve records."""
    return t_final * np.arange(n_records) / (n_records - 1)


def evolve(rho0: DensityField, model: PdeModel, U: PotentialSpec,
           p: PhysicalParams, t_final: float,
           n_records: int = 201) -> EvolveResult:
    """Advance the chosen density equation to t_final.

    Every model solves b drho/dt = d/dx(rho dPhi/dx + k_B T drho/dx
    + rho dQ/dx): Phi is U or the semiclassical effective potential, Q
    the Bohm potential of the zero-T quantum models, else 0, on the box
    or the ring of rho0.grid.  The flux conserves the mass by the grid's
    quadrature (Grid1D.weights: the trapezoid rule on a box, h * sum(rho)
    on a ring), which the mass check, records and moments use.  The result's
    density is the final state as stepped, negative round-off clipped to
    0 but not rescaled, so its mass and moments are those of the last
    record.

    Every model's stepper lands on the record times t_final j /
    (n_records - 1), j = 0 .. n_records - 1, where the density is checked
    before its moments are recorded, in this order: a non-finite value,
    mass drift beyond 1e-8, a minimum below -1e-9 of the initial peak
    (_record_fault).  Each aborts with ConvergenceError naming the
    quantity, the step count and t; a breakdown between two records is
    caught at the next.  Each record is checked once, its mass, first and
    second moments taken from one product with the (3, n) matrix of
    _moment_weights, made once per call.  Each stepper starts from dt =
    min(stability bound, t_final / 10); the diagnostics dt_min and dt_max
    are the smallest and largest steps taken, and n_steps counts accepted
    steps.

    The three Smoluchowski models step y = ln rho implicitly on the flux of
    _LogDensityRate, exponentially fitted for T > 0 as in the linear
    telegraph models, so the discrete Boltzmann density is stationary:
    variable-step BDF2 (backward Euler first), local error control, a halved
    step where Newton fails, and per step a Newton solve on a band of 3
    diagonals (T > 0) or 5 (the Bohm term), by LAPACK gtsv where it is
    tridiagonal (T > 0 on a box), else by gbsv.  rho = exp(y) stays positive
    with no density floor.  Where rho0 underflows at the walls, y starts on
    the line through the last two normal nodes; each Newton guess moves no
    node by more than 1; and Newton, allowed 12 iterations, converges once
    max |dy| max(rho / rho_max, 1e-6) < 1e-9, the weight taken once per
    solve from the guess, so the tails need ln rho only to 1e-3.  There dt
    is only the first step tried, and the steps taken are not bounded;
    n_steps counts accepted steps and the diagnostics rejected_steps, of
    which newton_failures were rejected because Newton failed.

    The three telegraph models share one explicit loop over (rho, g =
    drho/dt), g <- g / damping + k div G, rho <- rho + dt g, G the fitted
    flux or the quantum model's tapered _flux (its floored Bohm potential
    recomputed every step), scaled by k once per step size.  All three
    step one second-order staggered leapfrog (Stoermer-Verlet) with
    exponential damping: with gamma = dt b/m, g lives at half steps,
    damping = e^gamma and k = (1 - e^-gamma) / b, and g starts from the
    half kick (1 - e^(-gamma/2)) div G(rho0) / b from rest.  The linear
    models' step is the wave bound 0.9 h sqrt(m / scale).  The quantum
    model's is the wave bound 0.25 h sqrt(m / scale) and at most 0.9 m
    h^2 / hbar, just inside the stability limit m h^2 / hbar of the Bohm
    term linearized about a constant density.
    Each record interval takes ceil(interval / dt) equal steps, and the
    march yields each record to the same check as the implicit models.
    Where a quantum telegraph run fails a check, the whole run restarts
    from t = 0 at half the step, at most 3 times (to 1/8 of the first
    step), so the run kept has one step, dt_min == dt_max, and no record
    starts from a state that coarser steps spoiled; the steps of the
    discarded runs count into rejected_steps, and a failure at 1/8 aborts,
    saying that it survived that refinement.  A linear telegraph's failure
    is its equation's (the exact semi-discrete solution goes negative
    too), so it aborts at once.
    """
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
    rho = rho0.rho

    # static part of the advected potential
    if model.semiclassical:
        phi_static = effective_potential(U, p.beta, p, grid)
    else:
        phi_static = U.energy(grid, p)
    dphi = np.diff(_ring(phi_static, grid)) / h
    c = p.hbar ** 2 / (4.0 * p.mass) if model.quantum else 0.0
    rate_of = _LogDensityRate(dphi, kT, c, grid)

    # time step from the stability bound (the first step tried if implicit)
    if model.quantum:
        phi0 = phi_static + quantum_potential(rho0, p)
        core = rho >= 1e-6 * float(np.max(rho))
        scale = max(float(np.ptp(phi0[core])), 1e-300)
    else:
        scale = max(kT, float(np.ptp(phi_static)), 1e-300)
    if model.inertial:
        # the wave bound; at 0.9 the quantum model needs more whole-run
        # restarts than it saves steps
        dt_bound = ((0.25 if model.quantum else 0.9)
                    * h * math.sqrt(p.mass / scale))
        if model.quantum:
            # the Bohm term linearizes to a fourth-order wave operator,
            # stable for dt <= m h^2 / hbar
            dt_bound = min(dt_bound, 0.9 * p.mass * h ** 2 / p.hbar)
    else:
        dt_bound = 0.4 * h ** 2 * p.friction / scale
    dt = min(dt_bound, t_final / 10.0)

    t_records = record_times(t_final, n_records)
    weights = _moment_weights(grid)
    mass0 = weights[0] @ rho
    neg_tol = 1e-9 * float(np.max(rho))
    stats = {"newton_iterations": 0, "rejected_steps": 0,
             "newton_failures": 0, "n_steps": 0}
    interval = t_final / (n_records - 1)
    n_sub = max(1, math.ceil(interval / dt))

    def march(n_sub):
        """The telegraph states at each record after the first: n_sub
        equal steps per record interval from rho0 at rest."""
        dt = interval / n_sub
        stats.update(dt_min=dt, dt_max=dt)
        # the leapfrog: g at half steps, g <- e^-gamma g + (1 - e^-gamma)
        # div G / b; the first pass, from g = (1 - e^(gamma / 2)) div
        # G(rho0) / b, gives the half kick (1 - e^(-gamma / 2)) div G(rho0)
        # / b.  Past gamma = 700, e^(-gamma / 2) is far below rounding, so
        # the cap keeps e^gamma finite at high friction and changes nothing
        # above rounding
        gamma = min(dt * p.friction / p.mass, 700.0)
        damping = math.exp(gamma)
        flux_of = ((lambda k: _flux(dphi, grid, p, k)) if model.quantum
                   else rate_of.flux)
        flux = flux_of(-math.expm1(-gamma) / p.friction)
        # rho with a ring's wrap node, g, padded face fluxes, an update
        n, width = grid.n, rate_of._width
        rr, g, pad, step = (_ring(rho0.rho, grid).copy(), np.zeros(n),
                            np.zeros(n + 1), np.empty(n))
        rho, faces = rr[:n], pad[1:dphi.size + 1]

        def divergence(flux, out):
            flux(rr, faces)
            pad[0] = pad[-1]                    # a ring's wrap face
            np.subtract(pad[1:], pad[:-1], out=out)
            out /= width

        divergence(flux_of(-math.expm1(0.5 * gamma) / p.friction), g)
        for _ in t_records[1:]:
            # g <- g / damping + k div G, rho <- rho + dt g; a blow-up
            # shows as a failed check of the record
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(n_sub):
                    divergence(flux, step)
                    g /= damping
                    g += step
                    np.multiply(g, dt, out=step)
                    rho += step
                    rr[n:] = rr[0]              # a ring's wrap node
            stats["n_steps"] += n_sub
            yield rho

    # a linear telegraph's failure is its equation's (tests/
    # test_modal_reference.py); a quantum one restarts at half the step
    max_halvings = 3 if model.quantum and model.inertial else 0
    for halvings in range(max_halvings + 1):
        states = (march(n_sub * 2 ** halvings) if model.inertial else
                  _step_log_density(rho, rate_of, p.friction,
                                    t_records.tolist(), dt, stats))
        rows = []                           # (mass, first, second moment)
        for t, r in zip(t_records, itertools.chain([rho], states)):
            with np.errstate(over="ignore", invalid="ignore"):
                products = weights @ r
            fault = _record_fault(r, products[0], mass0, neg_tol)
            if fault is not None:
                break
            rows.append(products)
        else:
            break
        if halvings == max_halvings:
            if halvings:
                note = (f"; it survived refinement by {halvings} halvings "
                        f"of the step, to dt = {stats['dt_min']:.3e}")
            elif model.inertial and fault.startswith("density fell"):
                note = ("; the linear telegraph equation does not keep the "
                        "density non-negative, so the step is not refined")
            else:
                note = ""
            raise ConvergenceError(
                f"{fault} at step {stats['n_steps']} (t = {t:.6g}){note}")
        stats["rejected_steps"] += stats["n_steps"]
        stats["n_steps"] = 0
    rho = r
    masses, first, second = np.stack(rows, axis=1)
    mu = first / masses
    sigma2 = second / masses - mu ** 2
    n_steps = stats.pop("n_steps")

    # DensityField rescales to unit mass, which the stepped state misses by
    # its mass drift (up to 1e-8); the result keeps the state as stepped,
    # so that its moments and mass are the last record's
    final = DensityField(grid=grid, rho=np.maximum(rho, 0.0))
    final.rho = np.maximum(rho, 0.0)
    diagnostics = {"stability_scale": scale,
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
