"""Equilibrium densities by three independent routes.

Imaginary-time kernel propagation, an eigen-expansion of the same
discrete Hamiltonian, and the semiclassical closed form, plus the
quantum entropy diagnostic.  The first two share one discretization so
they can be compared pointwise far below grid error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .numerics import ConvergenceError, cumulative_trapezoid
from .params import PhysicalParams
from .pde import (DensityField, Grid1D, PotentialSpec, effective_potential,
                  quantum_potential)


class GridMismatchError(ValueError):
    """Fields that must share one spatial grid do not."""


@dataclass(frozen=True)
class ImaginaryTimeConfig:
    """Settings for kernel propagation down to inverse temperature beta_final.

    The stepping scheme (split potential / Crank-Nicolson kinetic) is
    unconditionally stable; n_beta_steps controls the O(dbeta^2)
    splitting error, not stability.
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


@dataclass
class SpectralDecomposition:
    """Eigenpairs of the discretized Hamiltonian, grid-orthonormal."""

    energies: np.ndarray
    eigenfunctions: np.ndarray  # (n_nodes, n_states), unit trapezoid norm
    n_states: int


def _hamiltonian_tridiag(U: PotentialSpec, p: PhysicalParams, grid: Grid1D):
    """Diagonal and off-diagonal of H = -hbar^2/2m d2/dx2 + U, box boundaries."""
    h = grid.h
    kin = p.hbar ** 2 / (2.0 * p.mass * h ** 2)
    diag = 2.0 * kin + U.energy(grid, p)
    off = np.full(grid.n - 1, -kin)
    return diag, off


def imaginary_time_density(U: PotentialSpec, p: PhysicalParams,
                           cfg: ImaginaryTimeConfig):
    """Equilibrium density and partition value by kernel propagation.

    Propagates the full thermal kernel exp(-beta H) from the identity at
    beta = 0 (infinite temperature: every state uniformly weighted) via
    Strang splitting — half-step potential, Crank-Nicolson kinetic step,
    half-step potential.  The kernel diagonal is the thermal mixture of
    all states, its trace the partition sum over the discrete spectrum;
    this matches the eigen-expansion route on the same grid exactly up
    to the O(dbeta^2) splitting error.  The kernel is rescaled to unit
    peak after every step, its scale carried as a logarithm.

    Returns (DensityField, Z).
    """
    if not math.isclose(p.beta, cfg.beta_final, rel_tol=1e-9):
        raise ValueError(
            f"params temperature gives beta = {p.beta}, config has "
            f"beta_final = {cfg.beta_final}")
    grid = cfg.grid
    n = grid.n
    h = grid.h
    db = cfg.beta_final / cfg.n_beta_steps

    u = U.energy(grid, p)
    half_pot = np.exp(-0.5 * db * (u - np.min(u)))
    log_scale = -cfg.beta_final * float(np.min(u))

    kin = p.hbar ** 2 / (2.0 * p.mass * h ** 2)
    if cfg.boundary == "box":
        # Crank-Nicolson factors for the kinetic tridiagonal
        ab = np.zeros((3, n))
        ab[0, 1:] = 0.5 * db * (-kin)
        ab[1, :] = 1.0 + 0.5 * db * (2.0 * kin)
        ab[2, :-1] = 0.5 * db * (-kin)
        lower = np.full(n - 1, -kin)
        diag_kin = np.full(n, 2.0 * kin)

        def kinetic_step(M):
            rhs = (1.0 - 0.5 * db * diag_kin)[:, None] * M
            rhs[:-1] -= 0.5 * db * lower[:, None] * M[1:]
            rhs[1:] -= 0.5 * db * lower[:, None] * M[:-1]
            return solve_banded((1, 1), ab, rhs)
    else:
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu
        main = np.full(n, 2.0 * kin)
        T = sp.diags([np.full(n - 1, -kin), main, np.full(n - 1, -kin)],
                     [-1, 0, 1], format="lil")
        T[0, -1] = -kin
        T[-1, 0] = -kin
        T = T.tocsc()
        A = (sp.identity(n, format="csc") + 0.5 * db * T)
        B = (sp.identity(n, format="csc") - 0.5 * db * T)
        lu = splu(A)

        def kinetic_step(M):
            return lu.solve(B @ M)

    M = np.eye(n)
    for step in range(cfg.n_beta_steps):
        M = half_pot[:, None] * M
        M = kinetic_step(M)
        M = half_pot[:, None] * M
        peak = float(np.max(np.abs(M)))
        if not math.isfinite(peak) or peak == 0.0:
            raise ConvergenceError(
                f"kernel norm exploded at step {step} (dbeta = {db:.3e})")
        M /= peak
        log_scale += math.log(peak)
    if not np.all(np.isfinite(M)):
        raise ConvergenceError(f"kernel not finite after propagation "
                               f"(dbeta = {db:.3e})")

    diag = np.maximum(np.diag(M), 0.0)
    Z = float(np.trace(M)) * math.exp(log_scale)
    rho = DensityField(grid=grid, rho=diag)
    return rho, Z


def eigen_density(U: PotentialSpec, p: PhysicalParams, beta: float,
                  grid: Grid1D, n_states: int | None = None):
    """Equilibrium density from the spectrum of the discretized Hamiltonian.

    rho = sum_n exp(-beta E_n) phi_n^2 / Z with Z = sum_n exp(-beta E_n);
    states are retained until the Boltzmann tail weight falls below
    1e-12 of the ground term (a user-supplied n_states that truncates
    earlier triggers a warning with the tail estimate).

    Returns (DensityField, Z, SpectralDecomposition).
    """
    import warnings

    if beta <= 0:
        raise ValueError("beta must be positive")
    diag, off = _hamiltonian_tridiag(U, p, grid)
    energies, vecs = eigh_tridiagonal(diag, off)

    rel = np.exp(-beta * (energies - energies[0]))
    auto_keep = int(np.searchsorted(-rel, -1e-12))
    auto_keep = max(1, min(auto_keep, energies.size))
    if n_states is None:
        keep = auto_keep
    else:
        keep = min(n_states, energies.size)
        if keep < energies.size and rel[keep] >= 1e-12:
            warnings.warn(
                f"eigen-expansion truncated at n_states = {keep} with tail "
                f"weight {float(np.sum(rel[keep:])):.3e} of the ground term",
                stacklevel=2)

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
    Hv = diag[:, None] * v
    Hv[:-1] += off[:, None] * v[1:]
    Hv[1:] += off[:, None] * v[:-1]
    resid = np.linalg.norm(Hv - energies[:n_check] * v, axis=0)
    if np.any(resid > 1e-6 * np.abs(energies[:n_check])):
        raise ArithmeticError("eigenpair residual above tolerance")

    spec = SpectralDecomposition(energies=energies[:keep],
                                 eigenfunctions=phi, n_states=keep)
    return rho, Z, spec


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


def quantum_entropy(rho_per_beta, p: PhysicalParams, beta: float,
                    beta_nodes=None) -> np.ndarray:
    """Quantum entropy field k_B (beta Q - int_0^beta Q dbeta') per node.

    rho_per_beta is an ordered list of DensityField snapshots from
    beta' = 0 (uniform) up to beta' = beta; beta_nodes defaults to a
    uniform grid over [0, beta].  All fields must share one grid.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    fields = list(rho_per_beta)
    if len(fields) < 2:
        raise ValueError("need at least two beta nodes")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatchError("all density fields must share one grid")
    if beta_nodes is None:
        beta_nodes = np.linspace(0.0, beta, len(fields))
    beta_nodes = np.asarray(beta_nodes, dtype=float)
    if beta_nodes.size != len(fields):
        raise ValueError("beta_nodes length must match the field list")
    if beta_nodes[0] != 0.0 or not math.isclose(beta_nodes[-1], beta,
                                                rel_tol=1e-9):
        raise ValueError("beta_nodes must span [0, beta]")

    q = np.stack([quantum_potential(f, p) for f in fields], axis=-1)
    integral = cumulative_trapezoid(q, beta_nodes)[..., -1]
    return p.k_B * (beta * q[..., -1] - integral)
