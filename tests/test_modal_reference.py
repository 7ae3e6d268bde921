"""An exact-in-time reference for the four linear density equations.

The classical and semiclassical models have a static potential Phi, so
their semi-discrete form is b rho' = A rho (Smoluchowski) or m rho'' +
b rho' = A rho (telegraph, starting at rest), with A the tridiagonal
generator of the exponentially fitted flux G = alpha_- rho_+ - alpha_+ rho
on a reflecting box.  A is built here from its formula, not taken from
qbrown.pde.  Its off-diagonals are positive, so a diagonal similarity
makes it symmetric (the Fokker-Planck to Schroedinger mapping; Risken,
The Fokker-Planck Equation, ch. 5) and its eigenpairs give rho(t) at any
t with no time-step error: the program's runs are checked against the
time integration alone, at matched spatial discretization.
"""

import re

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from qbrown import (ConvergenceError, DensityField, Grid1D, PdeModel,
                    PhysicalParams, PotentialSpec, effective_potential, evolve)

P = PhysicalParams.natural(omega0=1.0)
U = PotentialSpec.harmonic(1.0)
# harmonic well with an off-centre start (mu0 = 1, sigma0^2 = 0.3)
GRID = Grid1D(-6.0, 6.0, 161)
RHO0 = DensityField.gaussian(GRID, 1.0, 0.3)


class ModalReference:
    """rho(t) = D V c(Lambda, t) V^T D^-1 rho0 for the generator A of the
    fitted flux on a reflecting box, A = D V Lambda V^T D^-1."""

    def __init__(self, phi, p, h, rho0):
        self.mass, self.friction = p.mass, p.friction
        kT = p.k_B * p.temperature
        dphi = np.diff(phi) / h
        z = h * dphi / kT
        with np.errstate(invalid="ignore"):
            bern = np.where(z == 0.0, 1.0, z / np.expm1(z))  # B(z)
        alpha_p = kT / h * bern
        alpha_m = alpha_p + dphi
        w = np.full(phi.size, h)
        w[[0, -1]] = 0.5 * h                   # half-size end cells
        # row i of A: (G_i - G_(i-1)) / w_i
        upper = alpha_m / w[:-1]               # A[i, i+1]
        lower = alpha_p / w[1:]                # A[i+1, i]
        diag = -(np.append(alpha_p, 0.0) + np.insert(alpha_m, 0, 0.0)) / w
        assert np.all(upper > 0.0) and np.all(lower > 0.0)
        # D^-1 A D is symmetric for d_(i+1) / d_i = sqrt(lower_i / upper_i)
        log_d = np.concatenate(
            [[0.0], np.cumsum(0.5 * np.log(lower / upper))])
        self.d = np.exp(log_d - np.max(log_d))
        self.lam, self.v = eigh_tridiagonal(diag, np.sqrt(upper * lower))
        self.coef = self.v.T @ (rho0 / self.d)

    def at(self, t, inertial):
        """rho(t) of the Smoluchowski equation, or of the telegraph
        equation started at rest."""
        m, b = self.mass, self.friction
        if not inertial:
            c = np.exp(self.lam * t / b)
        else:
            # m c'' + b c' = lambda c, c(0) = 1, c'(0) = 0
            g = b / (2.0 * m)
            om = np.sqrt(g * g + self.lam / m + 0j)
            sinc = np.where(om == 0.0, t, np.sinh(om * t) / np.where(
                om == 0.0, 1.0, om))
            c = np.real(np.exp(-g * t) * (np.cosh(om * t) + g * sinc))
        return self.d * (self.v @ (c * self.coef))


def _reference(model):
    if model.semiclassical:
        phi = effective_potential(U, P.beta, P, GRID)
    else:
        phi = U.energy(GRID, P)
    return ModalReference(phi, P, GRID.h, RHO0.rho)


def _reference_at(model, t):
    return _reference(model).at(t, model.inertial)


def test_reference_keeps_mass_and_relaxes_to_boltzmann():
    ref = _reference(PdeModel.CLASSICAL_SMOLUCHOWSKI)
    w = np.full(GRID.n, GRID.h)
    w[[0, -1]] = 0.5 * GRID.h
    # the zero eigenvalue comes out near -7e-14, so the reference's mass
    # moves by about 1e-13 per unit time
    for t in (0.0, 1.0, 40.0):
        assert np.sum(w * ref.at(t, False)) == pytest.approx(1.0, abs=1e-11)
    np.testing.assert_allclose(ref.at(0.0, False), RHO0.rho, atol=1e-14)
    boltzmann = np.exp(-U.energy(GRID, P))
    boltzmann /= np.sum(w * boltzmann)
    np.testing.assert_allclose(ref.at(40.0, False), boltzmann, atol=1e-11)
    # the telegraph reference starts at rest: one short step barely moves
    tele = ref.at(1e-4, True) - RHO0.rho
    assert np.max(np.abs(tele)) <= 1e-6 * np.max(RHO0.rho)


@pytest.mark.parametrize("model", [m for m in PdeModel if not m.quantum],
                         ids=lambda m: m.value)
def test_evolve_matches_the_modal_reference(model):
    # the implicit stepper to its local error tolerance (6.4e-6 and 7.7e-6
    # of the peak at t = 8), the telegraph leapfrog to O(dt^2) (1.8e-5 at
    # t = 2.8, before the density turns negative)
    t_final, tol = (2.8, 5e-5) if model.inertial else (8.0, 1e-5)
    res = evolve(RHO0, model, U, P, t_final, n_records=21)
    exact = _reference_at(model, t_final)
    err = np.max(np.abs(res.density.rho - exact)) / np.max(RHO0.rho)
    assert err <= tol


@pytest.mark.parametrize("model", [m for m in PdeModel
                                   if m.inertial and not m.quantum],
                         ids=lambda m: m.value)
def test_telegraph_error_is_second_order_in_the_step(model):
    # one step per record at either wave bound, so doubling the records
    # halves the step; the leapfrog's error falls 4.0x (2.0x for a
    # first-order step)
    t_final = 2.5
    exact = _reference_at(model, t_final)
    errs = []
    for n_steps in (640, 1280):
        res = evolve(RHO0, model, U, P, t_final, n_records=n_steps + 1)
        assert res.n_steps == n_steps
        errs.append(np.max(np.abs(res.density.rho - exact)))
    assert errs[0] >= 3.5 * errs[1]


def test_telegraph_abort_is_the_equations_own():
    # the exact semi-discrete telegraph density first falls below -1e-9 of
    # the initial peak between the records at t = 2.80 and 2.88, and the
    # explicit run aborts at the first record after it, its minimum within
    # 3e-3 of the exact one there (1.3e-3; 6.8e-3 with a first-order step)
    model = PdeModel.CLASSICAL_TELEGRAPH
    floor = -1e-9 * np.max(RHO0.rho)
    with pytest.raises(ConvergenceError, match=(
            r"density fell to -5\.238e-04 at step 216 \(t = 2\.88\); the "
            r"linear telegraph equation does not keep the density "
            r"non-negative, so the step is not refined$")) as failure:
        evolve(RHO0, model, U, P, 8.0, n_records=101)
    assert np.min(_reference_at(model, 2.80)) >= floor
    exact_min = np.min(_reference_at(model, 2.88))
    assert exact_min < floor
    assert exact_min == pytest.approx(-5.2314e-4, rel=1e-4)
    reported = float(re.search(r"fell to (\S+) at", str(failure.value))[1])
    assert reported == pytest.approx(exact_min, rel=3e-3)
