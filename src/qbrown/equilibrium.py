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
from scipy.linalg import eigh, eigh_tridiagonal, solve

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
    O(dbeta^2) splitting error and must reach min_beta_steps.
    """

    beta_final: float
    grid: Grid1D
    n_beta_steps: int = 512
    boundary: str = "box"

    def __post_init__(self):
        if self.beta_final <= 0:
            raise ValueError("beta_final must be positive")
        if self.n_beta_steps < 16:
            raise ValueError("n_beta_steps must be at least 16")
        if self.boundary not in ("box", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")


def _hamiltonian_tridiag(U: PotentialSpec, p: PhysicalParams, grid: Grid1D):
    """Diagonal and off-diagonal of H = -hbar^2/2m d2/dx2 + U on a box.

    The box stencil only: eigen_density couples a periodic ring's two end
    nodes by off[0] itself."""
    h = grid.h
    kin = p.hbar ** 2 / (2.0 * p.mass * h ** 2)
    diag = 2.0 * kin + U.energy(grid, p)
    off = np.full(grid.n - 1, -kin)
    return diag, off


def min_beta_steps(p: PhysicalParams, h: float, beta_final: float) -> int:
    """Smallest number of Crank-Nicolson beta steps the grid allows.

    The kinetic factor of the top grid mode, r = (1 - x/2)/(1 + x/2) with
    x = dbeta 2 hbar^2/(m h^2) and dbeta = beta_final / N, is negative
    for x > 2 and then damped only as |r|^N; N passes when x <= 2 or
    |r|^N <= 1e-12.  |r|^N falls as N grows, so the first passing N is
    found by bisection.  A bound that is not a finite float raises
    OverflowError.
    """
    lam = beta_final * 2.0 * p.hbar ** 2 / (p.mass * h ** 2)
    if not math.isfinite(lam):
        raise OverflowError(f"beta_final 2 hbar^2/(m h^2) = {lam} is not "
                            f"finite")

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


def imaginary_time_density(U: PotentialSpec, p: PhysicalParams,
                           cfg: ImaginaryTimeConfig):
    """Equilibrium density and partition value by kernel propagation.

    Propagates the full thermal kernel exp(-beta H) from the identity at
    beta = 0 (infinite temperature: every state uniformly weighted) via
    Strang splitting: half-step potential, Crank-Nicolson kinetic step,
    half-step potential.  The step is one matrix S, so the kernel S^N is
    formed by square-and-multiply over the bits of N = n_beta_steps,
    about log2(N) dense products, each rescaled to unit peak with its
    scale carried as a logarithm.  The kernel diagonal is the thermal
    mixture of all states, its trace the partition sum over the discrete
    spectrum; this matches the eigen-expansion route on the same grid
    exactly up to the O(dbeta^2) splitting error.  n_beta_steps below
    min_beta_steps raises ValueError naming the smallest step count that
    passes.

    Returns (DensityField, Z).
    """
    if not math.isclose(p.beta, cfg.beta_final, rel_tol=1e-9):
        raise ValueError(
            f"params temperature gives beta = {p.beta}, config has "
            f"beta_final = {cfg.beta_final}")
    grid = cfg.grid
    n = grid.n
    db = cfg.beta_final / cfg.n_beta_steps
    n_min = min_beta_steps(p, grid.h, cfg.beta_final)
    if cfg.n_beta_steps < n_min:
        x = db * 2.0 * p.hbar ** 2 / (p.mass * grid.h ** 2)
        damping = abs((x - 2.0) / (x + 2.0)) ** cfg.n_beta_steps
        raise ValueError(
            f"n_beta_steps = {cfg.n_beta_steps} is too coarse: dbeta = "
            f"{db:.3e} gives x = dbeta 2 hbar^2/(m h^2) = {x:.3g} > 2, so "
            f"the Crank-Nicolson factor of the top grid mode is damped only "
            f"to {damping:.2e}; use n_beta_steps >= {n_min}")

    u = U.energy(grid, p)
    half_pot = np.exp(-0.5 * db * (u - np.min(u)))

    # one Strang step S = P K P, P = diag(half_pot), Crank-Nicolson factor
    # K = (I + dbeta/2 T)^-1 (I - dbeta/2 T); a periodic T adds two corners
    half_kin = 0.5 * db * p.hbar ** 2 / (2.0 * p.mass * grid.h ** 2)
    A = np.zeros((n, n))
    A.flat[1::n + 1] = A.flat[n::n + 1] = -half_kin
    if cfg.boundary == "periodic":
        A[0, -1] = A[-1, 0] = -half_kin
    B = -A
    A.flat[::n + 1] = 1.0 + 2.0 * half_kin      # I + dbeta/2 T
    B.flat[::n + 1] = 1.0 - 2.0 * half_kin      # I - dbeta/2 T
    S = solve(A, B, overwrite_a=True, overwrite_b=True)
    del A, B                    # only S and its powers stay alive
    S *= np.outer(half_pot, half_pot)

    def unit_peak(M, power):
        peak = max(float(M.max()), -float(M.min()))
        if not math.isfinite(peak) or peak == 0.0:
            raise ConvergenceError(
                f"kernel norm exploded at S^{power} (dbeta = {db:.3e})")
        M /= peak
        return math.log(peak)

    log_s = unit_peak(S, 1)
    M, log_m, power = S, log_s, 1
    for bit in bin(cfg.n_beta_steps)[3:]:
        M = M @ M
        power *= 2
        log_m = 2.0 * log_m + unit_peak(M, power)
        if bit == "1":
            M = M @ S
            power += 1
            log_m += log_s + unit_peak(M, power)
    if not np.all(np.isfinite(M)):
        raise ConvergenceError(f"kernel not finite after propagation "
                               f"(dbeta = {db:.3e})")
    log_scale = log_m - cfg.beta_final * float(np.min(u))
    _log.debug("imaginary-time kernel: %d nodes, S^%d by %d squarings + %d "
               "products, final log scale %.6e", n, cfg.n_beta_steps,
               cfg.n_beta_steps.bit_length() - 1,
               bin(cfg.n_beta_steps).count("1") - 1, log_scale)

    diag = np.maximum(np.diag(M), 0.0)
    Z = float(np.trace(M)) * math.exp(log_scale)
    rho = DensityField(grid=grid, rho=diag)
    return rho, Z


def eigen_density(U: PotentialSpec, p: PhysicalParams, beta: float,
                  grid: Grid1D, boundary: str = "box"):
    """Equilibrium density from the spectrum of the discretized Hamiltonian.

    rho = sum_n exp(-beta E_n) phi_n^2 / Z with Z = sum_n exp(-beta E_n);
    states are retained until the Boltzmann tail weight falls below
    1e-12 of the ground term.  boundary takes ImaginaryTimeConfig's
    values: a periodic ring adds the two corner entries of the kinetic
    stencil and is diagonalized densely.

    Returns (DensityField, Z, the retained energies).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if boundary not in ("box", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    diag, off = _hamiltonian_tridiag(U, p, grid)
    if boundary == "periodic":
        H = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        H[0, -1] = H[-1, 0] = off[0]
        energies, vecs = eigh(H)
    else:
        energies, vecs = eigh_tridiagonal(diag, off)

    rel = np.exp(-beta * (energies - energies[0]))
    keep = max(1, min(int(np.searchsorted(-rel, -1e-12)), energies.size))

    h = grid.h
    phi = vecs[:, :keep] / math.sqrt(h)
    weights = rel[:keep]
    Z = float(np.sum(weights)) * math.exp(-beta * energies[0])
    rho_vals = (phi ** 2) @ weights
    rho = DensityField(grid=grid, rho=rho_vals)

    # invariant checks on the retained states
    n_check = min(keep, 12)
    v = vecs[:, :n_check]
    gram = v.T @ v
    if float(np.max(np.abs(gram - np.eye(n_check)))) > 1e-8:
        raise ArithmeticError("eigenfunctions lost orthonormality")
    bond = np.append(off, off[0] if boundary == "periodic" else 0.0)
    Hv = (diag[:, None] * v + bond[:, None] * np.roll(v, -1, axis=0)
          + np.roll(bond, 1)[:, None] * np.roll(v, 1, axis=0))
    resid = np.linalg.norm(Hv - energies[:n_check] * v, axis=0)
    # relative to |E|, floored at 1e-12 of a bound on ||H||: the ground
    # energy of a free ring is 0
    h_norm = float(np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off)))
    if np.any(resid > 1e-6 * (np.abs(energies[:n_check]) + 1e-6 * h_norm)):
        raise ArithmeticError("eigenpair residual above tolerance")
    return rho, Z, energies[:keep]


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
