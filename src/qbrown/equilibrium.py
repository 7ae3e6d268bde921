"""Equilibrium densities by three independent routes.

Imaginary-time kernel propagation, an eigen-expansion of the same
discrete Hamiltonian, and the semiclassical closed form, plus the
quantum entropy diagnostic.  The first two share one discretization so
they can be compared pointwise far below grid error.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh, eigh_tridiagonal, solve
from scipy.linalg.lapack import dgtsv

from .numerics import ConvergenceError
from .params import PhysicalParams
from .pde import (DensityField, Grid1D, PotentialSpec, effective_potential,
                  quantum_potential)

_log = logging.getLogger(__name__)


class GridMismatchError(ValueError):
    """Fields that must share one spatial grid do not."""


@dataclass(frozen=True)
class ImaginaryTimeConfig:
    """Settings for kernel propagation down to inverse temperature beta_final.

    The kernel is S^N, S one Strang step (split potential / Crank-Nicolson
    kinetic) of dbeta = beta_final / N, formed by repeated squaring in
    about log2(N) dense n x n products.  N = n_beta_steps sets the
    O(dbeta^2) splitting error and must reach min_beta_steps.  boundary
    picks the kinetic stencil, "box" or "periodic"; it defaults (None) to
    the grid's own, Grid1D.boundary, whose rule normalizes the density.
    """

    beta_final: float
    grid: Grid1D
    n_beta_steps: int = 512
    boundary: str | None = None

    def __post_init__(self):
        if self.boundary is None:
            object.__setattr__(self, "boundary", self.grid.boundary)
        if self.beta_final <= 0:
            raise ValueError("beta_final must be positive")
        if self.n_beta_steps < 16:
            raise ValueError("n_beta_steps must be at least 16")
        if self.boundary not in ("box", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @property
    def dbeta(self) -> float:
        return self.beta_final / self.n_beta_steps


def _hamiltonian_tridiag(U: PotentialSpec, p: PhysicalParams, grid: Grid1D):
    """Diagonal and off-diagonal of H = -hbar^2/2m d2/dx2 + U on a box.

    The box stencil only: on a ring, _ring_matrix couples the two end
    nodes by off[0]."""
    h = grid.h
    kin = p.hbar ** 2 / (2.0 * p.mass * h ** 2)
    diag = 2.0 * kin + U.energy(grid, p)
    off = np.full(grid.n - 1, -kin)
    return diag, off


def _ring_matrix(diag, off):
    """The dense symmetric tridiagonal matrix of diag and off, closed
    around a ring by off[0] in both corners."""
    n = diag.size
    M = np.zeros((n, n))
    M.flat[::n + 1] = diag
    M.flat[1::n + 1] = M.flat[n::n + 1] = off
    M[0, -1] = M[-1, 0] = off[0]
    return M


def min_beta_steps(p: PhysicalParams, h: float, beta_final: float) -> int:
    """Smallest number of Crank-Nicolson beta steps the grid allows.

    The kinetic factor of the top grid mode, r = (1 - x/2)/(1 + x/2) with
    x = dbeta 2 hbar^2/(m h^2) and dbeta = beta_final / N, is negative
    for x > 2 and then damped only as |r|^N; N passes when x <= 2 or
    |r|^N <= 1e-12.  |r|^N falls as N grows, so the first passing N is
    found by bisection.  A bound that is not a finite float raises
    OverflowError.
    """
    try:    # ** raises on overflow, / by an underflowed h^2
        lam = beta_final * 2.0 * p.hbar ** 2 / (p.mass * h ** 2)
    except ArithmeticError:
        lam = math.inf
    if not math.isfinite(lam):
        raise OverflowError(f"beta_final 2 hbar^2/(m h^2) = {lam} overflows "
                            f"a float")

    def passes(n):
        x = lam / n
        return (x <= 2.0
                or n * math.log((x - 2.0) / (x + 2.0)) <= math.log(1e-12))

    lo, hi = 0, max(1, math.ceil(lam / 2.0))       # passes(hi) holds
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def check_beta_steps(p: PhysicalParams, cfg: ImaginaryTimeConfig):
    """Refuse cfg.n_beta_steps below min_beta_steps.

    The ValueError names grid.h, beta and the smallest passing count, in
    e-notation once it has more than 15 digits.
    """
    n, h = cfg.n_beta_steps, cfg.grid.h
    need = min_beta_steps(p, h, cfg.beta_final)
    if n < need:
        x = cfg.dbeta * 2.0 * p.hbar ** 2 / (p.mass * h ** 2)
        damping = abs((x - 2.0) / (x + 2.0)) ** n
        raise ValueError(
            f"n_beta_steps = {n} is too coarse for grid.h = {h:.4g} at "
            f"beta = {cfg.beta_final:.6g}: dbeta = {cfg.dbeta:.3e} gives "
            f"x = dbeta 2 hbar^2/(m h^2) = {x:.3g} > 2, so the "
            f"Crank-Nicolson factor of the top grid mode is damped only to "
            f"{damping:.2e}; use n_beta_steps >= "
            f"{need if need < 10 ** 15 else f'{need:.3e}'}")


def imaginary_time_density(U: PotentialSpec, p: PhysicalParams,
                           cfg: ImaginaryTimeConfig):
    """Equilibrium density and partition value by kernel propagation.

    Propagates the full thermal kernel exp(-beta H) from the identity at
    beta = 0 (infinite temperature: every state uniformly weighted) via
    Strang splitting: half-step potential, Crank-Nicolson kinetic step,
    half-step potential.  The step is one matrix S = P (2 A^-1 - I) P,
    A = I + dbeta/2 T, A^-1 P by one tridiagonal solve on a box.  The
    kernel S^N is formed by square-and-multiply over the bits of N =
    n_beta_steps, about log2(N) dense products, each rescaled to unit
    peak with its scale carried as a logarithm, the last formed only on
    its diagonal (a row times a column per node).  S, symmetric up to
    round-off, is symmetrized once, and each squaring is formed as
    M M^T, which equals M^2 for every power of a symmetric S: BLAS syrk
    computes half of it and the result is exactly symmetric.  After
    each rescale, entries below sqrt(tiny) ~ 1.5e-154 are set to zero,
    so that no product forms a subnormal number, which runs several
    times slower than a normal one; such entries lie 153 decades below
    the peak and move neither Z nor a moment of rho.  The kernel
    diagonal is the thermal mixture of all states, its trace the
    partition sum over the discrete spectrum; this matches the
    eigen-expansion route on the same grid exactly up to the O(dbeta^2)
    splitting error.  check_beta_steps refuses an n_beta_steps below
    min_beta_steps.

    Returns (DensityField, Z).
    """
    if not math.isclose(p.beta, cfg.beta_final, rel_tol=1e-9):
        raise ValueError(
            f"params temperature gives beta = {p.beta}, config has "
            f"beta_final = {cfg.beta_final}")
    check_beta_steps(p, cfg)
    grid = cfg.grid
    n = grid.n
    db = cfg.dbeta

    u = U.energy(grid, p)
    half_pot = np.exp(-0.5 * db * (u - np.min(u)))

    # one Strang step S = P K P, P = diag(half_pot), with the Crank-Nicolson
    # factor K = A^-1 (2I - A) = 2 A^-1 - I, A = I + dbeta/2 T: so S = P X -
    # P^2, X = A^-1 (2P), by gtsv on a box; a periodic T adds two corners,
    # which the dense solve takes
    half_kin = 0.5 * db * p.hbar ** 2 / (2.0 * p.mass * grid.h ** 2)
    rhs = np.diag(2.0 * half_pot)
    a_diag = np.full(n, 1.0 + 2.0 * half_kin)
    a_off = np.full(n - 1, -half_kin)
    if cfg.boundary == "periodic":
        X = solve(_ring_matrix(a_diag, a_off), rhs, overwrite_a=True,
                  overwrite_b=True)
    else:
        X, info = dgtsv(a_off, a_diag, a_off.copy(), rhs.T, True, True, True,
                        True)[3:]
        if info:
            raise LinAlgError("singular Crank-Nicolson matrix")
    S = half_pot[:, None] * X
    S.flat[::n + 1] -= half_pot ** 2
    del X, rhs                  # only S and its powers stay alive
    S += S.T
    S *= 0.5

    # the product of two entries at or above sqrt(tiny) is a normal float
    flush = math.sqrt(np.finfo(float).tiny)

    def unit_peak(M, power):
        size = np.abs(M)
        peak = float(size.max())
        if not math.isfinite(peak) or peak == 0.0:
            raise ConvergenceError(
                f"kernel norm exploded at S^{power} (dbeta = {db:.3e})")
        M /= peak
        M[size < flush * peak] = 0.0
        return math.log(peak)

    log_s = unit_peak(S, 1)
    M, log_m, power = S, log_s, 1
    *bits, last = bin(cfg.n_beta_steps)[3:]
    for bit in bits:
        M = M @ M.T
        power *= 2
        log_m = 2.0 * log_m + unit_peak(M, power)
        if bit == "1":
            M = M @ S
            power += 1
            log_m += log_s + unit_peak(M, power)
    # of the last squaring, or of the last product, only the diagonal
    if last == "1":
        M = M @ M.T
        power *= 2
        log_m = 2.0 * log_m + unit_peak(M, power)
        diag, log_m = np.einsum("ij,ji->i", M, S), log_m + log_s
    else:
        diag, log_m = np.einsum("ij,ji->i", M, M), 2.0 * log_m
    if not np.all(np.isfinite(diag)):
        raise ConvergenceError(f"kernel not finite after propagation "
                               f"(dbeta = {db:.3e})")
    log_scale = log_m - cfg.beta_final * float(np.min(u))
    _log.debug("imaginary-time kernel: %d nodes, S^%d by %d squarings + %d "
               "products, final log scale %.6e", n, cfg.n_beta_steps,
               cfg.n_beta_steps.bit_length() - 1,
               bin(cfg.n_beta_steps).count("1") - 1, log_scale)

    Z = float(np.sum(diag)) * math.exp(log_scale)
    rho = DensityField(grid=grid, rho=np.maximum(diag, 0.0))
    return rho, Z


def eigen_density(U: PotentialSpec, p: PhysicalParams, beta,
                  grid: Grid1D):
    """Equilibrium density from the spectrum of the discretized Hamiltonian.

    rho is sum_n exp(-beta E_n) phi_n^2 over the orthonormal eigenvectors
    phi_n, normalized by DensityField, and Z = sum_n exp(-beta E_n);
    states are retained until the Boltzmann tail weight falls below
    1e-12 of the ground term.  On a periodic grid (Grid1D.boundary) the
    two corner entries of the kinetic stencil join the ends, and the
    Hamiltonian is diagonalized densely.

    beta is a scalar or a 1-D sequence.  For a scalar, returns
    (DensityField, Z, the retained energies).  For a sequence, returns
    one such triple per beta, in order, from one diagonalization: the
    Hamiltonian does not depend on beta, so the betas share one spectrum,
    and each triple is bit-identical to a scalar call at its beta.
    """
    betas = np.asarray(beta, dtype=float)
    if betas.ndim > 1 or betas.size == 0:
        raise ValueError("beta must be a scalar or a non-empty 1-D sequence")
    if np.any(betas <= 0):
        raise ValueError("beta must be positive")
    ring = grid.boundary == "periodic"
    diag, off = _hamiltonian_tridiag(U, p, grid)
    if ring:
        energies, vecs = eigh(_ring_matrix(diag, off))
    else:
        energies, vecs = eigh_tridiagonal(diag, off)

    out = []
    for b in np.atleast_1d(betas).tolist():
        rel = np.exp(-b * (energies - energies[0]))
        keep = max(1, min(int(np.searchsorted(-rel, -1e-12)), energies.size))
        weights = rel[:keep]
        Z = float(np.sum(weights)) * math.exp(-b * energies[0])
        rho = DensityField(grid=grid, rho=(vecs[:, :keep] ** 2) @ weights)
        out.append((rho, Z, energies[:keep]))

    # invariant checks on the retained states of the largest keep
    n_check = min(max(e.size for _, _, e in out), 12)
    v = vecs[:, :n_check]
    gram = v.T @ v
    if float(np.max(np.abs(gram - np.eye(n_check)))) > 1e-8:
        raise ArithmeticError("eigenfunctions lost orthonormality")
    bond = np.append(off, off[0] if ring else 0.0)
    Hv = (diag[:, None] * v + bond[:, None] * np.roll(v, -1, axis=0)
          + np.roll(bond, 1)[:, None] * np.roll(v, 1, axis=0))
    resid = np.linalg.norm(Hv - energies[:n_check] * v, axis=0)
    # relative to |E|, floored at 1e-12 of a bound on ||H||: the ground
    # energy of a free ring is 0
    h_norm = float(np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off)))
    if np.any(resid > 1e-6 * (np.abs(energies[:n_check]) + 1e-6 * h_norm)):
        raise ArithmeticError("eigenpair residual above tolerance")
    return out[0] if betas.ndim == 0 else out


def semiclassical_density(U: PotentialSpec, p: PhysicalParams, beta: float,
                          grid: Grid1D) -> DensityField:
    """Closed-form semiclassical equilibrium density.

    rho proportional to exp(-beta U_eff) with the O(hbar^2) effective
    potential; overflow is avoided by subtracting the exponent maximum
    before exponentiation.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    expo = -beta * effective_potential(U, beta, p, grid)
    rho = np.exp(expo - np.max(expo))
    return DensityField(grid=grid, rho=rho)


def quantum_entropy(rho_per_beta, p: PhysicalParams,
                    beta_nodes) -> np.ndarray:
    """Quantum entropy field k_B (beta Q - int_0^beta Q dbeta') per node.

    rho_per_beta is an ordered list of DensityField snapshots at
    beta_nodes, from beta' = 0 (uniform) up to beta = beta_nodes[-1].
    All fields must share one grid.
    """
    fields = list(rho_per_beta)
    if len(fields) < 2:
        raise ValueError("need at least two beta nodes")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatchError("all density fields must share one grid")
    beta_nodes = np.asarray(beta_nodes, dtype=float)
    if beta_nodes.size != len(fields):
        raise ValueError("beta_nodes length must match the field list")
    if beta_nodes[0] != 0.0 or np.any(np.diff(beta_nodes) <= 0):
        raise ValueError("beta_nodes must increase from 0")
    beta = beta_nodes[-1]

    q = np.stack([quantum_potential(f, p) for f in fields], axis=-1)
    segs = 0.5 * (q[:, 1:] + q[:, :-1]) * np.diff(beta_nodes)  # trapezoid
    return p.k_B * (beta * q[:, -1] - np.cumsum(segs, axis=-1)[:, -1])
