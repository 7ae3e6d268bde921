"""End-to-end verification suite.

Thirteen numbered checks, each exercising one headline quantitative
claim of the theory through the public solvers and comparing against an
independent closed form or oracle.  Used by the test suite and by the
``qbrown accept`` command; each check returns a CriterionResult with a
one-line verdict.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .dispersion import (ClosedForm, eval_closed_form, make_beta_grid,
                         solve_inertial_zero_T, solve_overdamped_bounded,
                         solve_overdamped_full, stationary_harmonic_dispersion)
from .equilibrium import (ImaginaryTimeConfig, eigen_density,
                          imaginary_time_density, semiclassical_density)
from .numerics import coth
from .params import PhysicalParams, derived_scales, momentum_dispersion
from .pde import (DensityField, Grid1D, PdeModel, PotentialSpec, evolve,
                  moments)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    runtime: float = 0.0
    measured: dict = field(default_factory=dict)

    @property
    def verdict_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{status}] {self.name}: {self.details}"


def _result(number, name, passed, details, t0, **measured):
    return CriterionResult(number=number, name=name, passed=bool(passed),
                           details=details, runtime=time.time() - t0,
                           measured=measured)


_NATURAL = PhysicalParams.natural()


@functools.lru_cache(maxsize=None)
def _full_surface(quick=False):
    """Shared self-consistent overdamped solve (criteria 1, 2, 4, 9).

    Solved once per ``quick`` and cached; its arrays are read-only so that
    no criterion can alter the copy the others read.
    """
    p = _NATURAL
    sc = derived_scales(p)
    n = 81 if quick else 121
    t_grid = np.geomspace(1e-3 * sc.t_c, 1e3 * sc.t_c, n)
    beta_grid = make_beta_grid(p.beta, n=32 if quick else 48, extend_factor=20.0)
    surface, traj = solve_overdamped_full(p, t_grid, beta_grid)
    for a in (t_grid, beta_grid, surface.t_grid, surface.beta_grid,
              surface.values, traj.times, traj.sigma_x2, traj.sigma_p2):
        a.flags.writeable = False
    return p, sc, t_grid, surface, traj


@functools.lru_cache(maxsize=None)
def _zero_T_inertial(quick=False):
    """Zero-T inertial trajectory at b = 100 from 10 to 1e3 tau_m (criteria
    2 and 7), cached with read-only arrays like _full_surface."""
    p = PhysicalParams.natural(friction=100.0, temperature=0.0)
    t_anchor = 10.0 * p.tau_m
    s0 = (p.hbar ** 2 * t_anchor / (p.mass * p.friction)) ** 0.25
    tg = np.geomspace(t_anchor, 1000.0 * p.tau_m, 100 if quick else 300)
    tr = solve_inertial_zero_T(p, s0, 0.25 * s0 / t_anchor, 0.0, 0.0, tg)
    for a in (tg, tr.times, tr.sigma_x2, tr.sigma_p2, tr.mu):
        a.flags.writeable = False
    return p, tg, tr


def criterion_1(quick=False) -> CriterionResult:
    """Einstein-law asymptote: sigma^2 / 2Dt in [0.99, 1.02] at t = 100 t_c."""
    t0 = time.time()
    p, sc, t_grid, _, traj = _full_surface(quick)
    i = int(np.argmin(np.abs(t_grid - 100.0 * sc.t_c)))
    ratio_full = float(traj.sigma_x2[i] / (2.0 * sc.D * t_grid[i]))
    lam = float(eval_closed_form(ClosedForm.LAMBERT_EXACT, t_grid[i], p))
    ratio_lam = lam / (2.0 * sc.D * t_grid[i])
    ok = 0.99 <= ratio_full <= 1.02 and 0.99 <= ratio_lam <= 1.02
    return _result(1, "einstein-asymptote", ok,
                   f"sigma2/2Dt at 100 t_c: self-consistent {ratio_full:.4f}, "
                   f"exact bound {ratio_lam:.4f} (required [0.99, 1.02])", t0,
                   ratio_full=ratio_full, ratio_lambert=ratio_lam)


def criterion_2(quick=False) -> CriterionResult:
    """Pure quantum diffusion sigma^2 = hbar sqrt(t/mb) within 2%."""
    t0 = time.time()
    p, sc, t_grid, surface, _ = _full_surface(quick)
    cold = surface.values[:, -1]
    pq = p.hbar * np.sqrt(t_grid / (p.mass * p.friction))
    m = t_grid <= 0.01 * sc.t_c
    err_cold = float(np.max(np.abs(cold[m] - pq[m]) / pq[m]))

    pz, tg, tr = _zero_T_inertial(quick)
    pq2 = pz.hbar * np.sqrt(tg / (pz.mass * pz.friction))
    err_ode = float(np.max(np.abs(tr.sigma_x2 - pq2) / pq2))
    ok = err_cold <= 0.02 and err_ode <= 0.02
    return _result(2, "pure-quantum-diffusion", ok,
                   f"max rel err: coldest column {err_cold:.2e} "
                   f"(t <= 0.01 t_c), inertial ODE {err_ode:.2e} "
                   f"(t in [10, 1e3] tau_m); required <= 2e-2", t0,
                   err_cold=err_cold, err_ode=err_ode)


def criterion_3(quick=False) -> CriterionResult:
    """Bounded-equation trajectory equals the Lambert closed form to 1e-8."""
    t0 = time.time()
    p = _NATURAL
    sc = derived_scales(p)
    tg = np.geomspace(1e-3 * sc.t_c, 1e3 * sc.t_c, 61)
    tr = solve_overdamped_bounded(p, 0.0, tg)
    lam = eval_closed_form(ClosedForm.LAMBERT_EXACT, tg, p)
    dev = float(np.max(np.abs(tr.sigma_x2 - lam) / lam))
    s = tr.sigma_x2
    lam2 = sc.lambda_T ** 2
    resid = float(np.max(np.abs(s - lam2 * np.log1p(s / lam2) - 2 * sc.D * tg)
                         / (2 * sc.D * tg)))
    ok = dev <= 1e-8 and resid <= 1e-8
    return _result(3, "lambert-exactness", ok,
                   f"trajectory vs closed form {dev:.2e}, implicit residual "
                   f"{resid:.2e}; required <= 1e-8", t0,
                   deviation=dev, residual=resid)


def criterion_4(quick=False) -> CriterionResult:
    """Ordering: self-consistent <= bounded <= superposition."""
    t0 = time.time()
    p, sc, t_grid, _, traj = _full_surface(quick)
    bounded = solve_overdamped_bounded(p, 0.0, t_grid)
    excess = float(np.max((traj.sigma_x2 - bounded.sigma_x2)
                          / bounded.sigma_x2))
    sup = eval_closed_form(ClosedForm.SUPERPOSITION, t_grid, p)
    lam = eval_closed_form(ClosedForm.LAMBERT_EXACT, t_grid, p)
    sup_ok = bool(np.all(lam <= sup * (1.0 + 1e-12)))
    ok = excess <= 1e-6 and sup_ok
    return _result(4, "upper-bound-ordering", ok,
                   f"full-vs-bounded max excess {excess:.2e} (slack 1e-6); "
                   f"lambert <= superposition: {sup_ok}", t0,
                   excess=excess, superposition_ok=sup_ok)


def criterion_5(quick=False) -> CriterionResult:
    """Harmonic equilibrium dispersion matches the coth closed form to 1e-3."""
    t0 = time.time()
    worst_st = worst_it = 0.0
    for bho in (0.1, 1.0, 2.0, 10.0):
        p = PhysicalParams.natural(omega0=1.0, temperature=1.0 / bho)
        exact = (p.hbar / (2.0 * p.mass * p.omega0)) * coth(bho / 2.0)
        st = stationary_harmonic_dispersion(p)
        worst_st = max(worst_st, abs(st - exact) / exact)
        half_width = max(8.0 * np.sqrt(exact), 6.0)
        g = Grid1D(-half_width, half_width, 257 if quick else 385)
        cfg = ImaginaryTimeConfig(beta_final=bho, grid=g,
                                  n_beta_steps=256 if quick else 512)
        rho, _ = imaginary_time_density(PotentialSpec.harmonic(1.0), p, cfg)
        it = moments(rho).dispersion
        worst_it = max(worst_it, abs(it - exact) / exact)
    ok = worst_st <= 1e-3 and worst_it <= 1e-3
    return _result(5, "harmonic-equilibrium-coth", ok,
                   f"max rel err: stationary {worst_st:.2e}, imaginary-time "
                   f"{worst_it:.2e}; required <= 1e-3", t0,
                   stationary=worst_st, imaginary_time=worst_it)


def criterion_6(quick=False) -> CriterionResult:
    """Vacuum spreading matches its closed form within 1e-6."""
    t0 = time.time()
    p = PhysicalParams.natural(friction=0.0, temperature=0.0)
    tg = np.linspace(0.0, 10.0, 101)
    tr = solve_inertial_zero_T(p, 1.0, 0.0, 0.0, 0.0, tg)
    exact = eval_closed_form(ClosedForm.VACUUM_SPREADING, tg, p, sigma0=1.0)
    err = float(np.max(np.abs(tr.sigma_x2 - exact) / exact))
    return _result(6, "vacuum-spreading", err <= 1e-6,
                   f"max rel err {err:.2e}; required <= 1e-6", t0, err=err)


def criterion_7(quick=False) -> CriterionResult:
    """Zero-T overdamped law sigma^4 = hbar^2 t / mb within 2% (ODE and PDE)."""
    t0 = time.time()
    p, tg, tr = _zero_T_inertial(quick)
    tau = p.tau_m
    law = p.hbar ** 2 * tg / (p.mass * p.friction)
    err_ode = float(np.max(np.abs(tr.sigma_x2 ** 2 - law) / law))

    g = Grid1D(-8.0, 8.0, 321 if quick else 401)
    rho0 = DensityField.gaussian(g, 0.0, 0.04)
    res = evolve(rho0, PdeModel.QUANTUM_ZERO_T_SMOLUCHOWSKI,
                 PotentialSpec.free(), p, 1000.0 * tau, n_records=101)
    m = res.times >= 10.0 * tau - 1e-12
    law_pde = p.hbar ** 2 * res.times[m] / (p.mass * p.friction)
    meas = res.sigma2[m] ** 2 - res.sigma2[0] ** 2
    err_pde = float(np.max(np.abs(meas - law_pde) / law_pde))
    ok = err_ode <= 0.02 and err_pde <= 0.02
    return _result(7, "zero-T-overdamped-law", ok,
                   f"sigma^4 max rel err: ODE {err_ode:.2e}, PDE {err_pde:.2e}"
                   f"; required <= 2e-2 over [10, 1e3] tau_m", t0,
                   err_ode=err_ode, err_pde=err_pde)


def criterion_8(quick=False) -> CriterionResult:
    """Heisenberg monitor: quantum models satisfy it, Einstein violates it."""
    t0 = time.time()
    p = _NATURAL
    sc = derived_scales(p)
    tg = np.geomspace(1e-3 * sc.t_c, 1e3 * sc.t_c, 121)
    quarter = p.hbar ** 2 / 4.0
    worst = np.inf
    for kind in (ClosedForm.PURE_QUANTUM, ClosedForm.SUPERPOSITION,
                 ClosedForm.LAMBERT_EXACT, ClosedForm.COTH_INTERPOLATION):
        s2 = eval_closed_form(kind, tg, p)
        product = s2 * momentum_dispersion(s2, p)
        worst = min(worst, float(np.min(product / quarter)))
    tr = solve_overdamped_bounded(p, 0.0, tg)
    product = tr.sigma_x2 * tr.sigma_p2
    worst = min(worst, float(np.min(product / quarter)))
    satisfied = worst >= 1.0 - 1e-12

    # Einstein with the classical equilibrium momentum m k_B T
    e = eval_closed_form(ClosedForm.EINSTEIN, tg, p)
    product_e = e * (p.mass * p.k_B * p.temperature)
    before = tg < sc.t_c * (1.0 - 1e-12)
    violates = bool(np.all(product_e[before] < quarter))
    ok = satisfied and violates
    return _result(8, "heisenberg-monitor", ok,
                   f"quantum min product {worst:.6f} hbar^2/4 (>= 1 required);"
                   f" einstein violates for t < t_c: {violates}", t0,
                   min_product=worst, einstein_violates=violates)


def criterion_9(quick=False) -> CriterionResult:
    """Semiclassical log correction: size within 10%, elementary form above."""
    t0 = time.time()
    p, sc, t_grid, _, traj = _full_surface(quick)
    i = int(np.argmin(np.abs(t_grid - 100.0 * sc.t_c)))
    lam2 = sc.lambda_T ** 2
    excess = float((traj.sigma_x2[i] - 2.0 * sc.D * t_grid[i]) / lam2)
    target = float(np.log(2.0 * sc.D * t_grid[i] / lam2) / 3.0)
    rel = abs(excess - target) / abs(target)

    semi = eval_closed_form(ClosedForm.SEMICLASSICAL_LOG, t_grid[i], p)
    elem = eval_closed_form(ClosedForm.ELEMENTARY_LOG_APPROX, t_grid[i], p)
    above = bool(elem >= semi)
    ok = rel <= 0.10 and above
    return _result(9, "semiclassical-correction", ok,
                   f"excess/lambda_T^2 = {excess:.4f} vs ln(2Dt/lambda_T^2)/3 "
                   f"= {target:.4f} (rel dev {rel:.2f}, required <= 0.10); "
                   f"elementary >= semiclassical: {above}", t0,
                   excess=excess, target=target, rel=rel, above=above)


def criterion_10(quick=False) -> CriterionResult:
    """Coth interpolation limits: pure quantum early, offset Einstein late."""
    t0 = time.time()
    p = _NATURAL
    sc = derived_scales(p)
    lam2 = sc.lambda_T ** 2
    t_early = 1e-6 * sc.t_c
    c_early = float(eval_closed_form(ClosedForm.COTH_INTERPOLATION, t_early, p))
    pq = float(eval_closed_form(ClosedForm.PURE_QUANTUM, t_early, p))
    err_early = abs(c_early - pq) / pq
    t_late = 1e4 * sc.t_c
    c_late = float(eval_closed_form(ClosedForm.COTH_INTERPOLATION, t_late, p))
    ref = 2.0 * sc.D * t_late + 2.0 * lam2 / 3.0
    err_late = abs(c_late - ref) / ref
    ok = err_early <= 1e-4 and err_late <= 1e-3
    return _result(10, "coth-interpolation-limits", ok,
                   f"early dev {err_early:.2e} (<= 1e-4), late dev "
                   f"{err_late:.2e} (<= 1e-3)", t0,
                   err_early=err_early, err_late=err_late)


def criterion_11(quick=False) -> CriterionResult:
    """Mass conservation and Ehrenfest mean motion for every PDE model."""
    t0 = time.time()
    f = 0.5
    worst_mass = 0.0
    worst_mu = 0.0
    t_final = 5.0 if quick else 10.0
    for model in PdeModel:
        if model.quantum:
            p = PhysicalParams.natural(force=f, friction=20.0, temperature=0.0)
            g = Grid1D(-4.0, 5.0, 121 if quick else 151)
        else:
            p = PhysicalParams.natural(force=f, friction=20.0)
            g = Grid1D(-6.0, 8.0, 301)
        rho0 = DensityField.gaussian(g, 0.0, 0.25)
        res = evolve(rho0, model, PotentialSpec.linear(f), p, t_final,
                     n_records=51)
        drift = float(np.max(np.abs(res.mass - res.mass[0])))
        # normalize to the stated per-1e3-steps budget
        worst_mass = max(worst_mass, drift * 1000.0 / res.n_steps)
        t = res.times
        tau = p.tau_m
        if model.inertial:
            mu_exact = (f / p.friction) * (t - tau * (1.0 - np.exp(-t / tau)))
        else:
            mu_exact = (f / p.friction) * t
        m = t >= 0.1 * t_final
        worst_mu = max(worst_mu, float(np.max(
            np.abs(res.mu[m] - mu_exact[m]) / np.abs(mu_exact[m]))))
    ok = worst_mass <= 1e-10 and worst_mu <= 5e-3
    return _result(11, "pde-conservation-ehrenfest", ok,
                   f"mass drift per 1e3 steps {worst_mass:.2e} (<= 1e-10); "
                   f"mean-motion max rel err {worst_mu:.2e} (<= 5e-3)", t0,
                   mass=worst_mass, mu=worst_mu)


def criterion_12(quick=False) -> CriterionResult:
    """Equilibrium route equivalence and semiclassical consistency."""
    t0 = time.time()
    worst_rho = worst_z = 0.0
    cases = [(PotentialSpec.harmonic(1.0),
              PhysicalParams.natural(omega0=1.0, temperature=0.5),
              Grid1D(-8.0, 8.0, 257)),
             (PotentialSpec.quartic(1.0),
              PhysicalParams.natural(temperature=1.0),
              Grid1D(-4.0, 4.0, 257))]
    for U, p, g in cases:
        beta = p.beta
        cfg = ImaginaryTimeConfig(beta_final=beta, grid=g,
                                  n_beta_steps=256 if quick else 512)
        rho_it, z_it = imaginary_time_density(U, p, cfg)
        rho_e, z_e, _ = eigen_density(U, p, beta, g)
        worst_rho = max(worst_rho, float(np.max(np.abs(rho_it.rho - rho_e.rho))))
        worst_z = max(worst_z, abs(z_it - z_e) / z_e)

    bho = 0.3
    p = PhysicalParams.natural(omega0=1.0, temperature=1.0 / bho)
    g = Grid1D(-12.0, 12.0, 385)
    s_sc = moments(semiclassical_density(PotentialSpec.harmonic(1.0), p,
                                         bho, g)).dispersion
    rho_e, _, _ = eigen_density(PotentialSpec.harmonic(1.0), p, bho, g)
    s_e = moments(rho_e).dispersion
    dev_sc = abs(s_sc - s_e) / s_e
    ok = worst_rho <= 1e-6 and worst_z <= 1e-3 and dev_sc <= 5e-3
    return _result(12, "equilibrium-route-equivalence", ok,
                   f"max |drho| {worst_rho:.2e} (<= 1e-6), Z rel dev "
                   f"{worst_z:.2e} (<= 1e-3), semiclassical sigma2 dev "
                   f"{dev_sc:.2e} (<= 5e-3)", t0,
                   rho=worst_rho, z=worst_z, semiclassical=dev_sc)


def criterion_13(quick=False) -> CriterionResult:
    """Classical telegraph dispersion follows 2D[t - tau(1 - e^-t/tau)]."""
    t0 = time.time()
    p = _NATURAL
    g = Grid1D(-30.0, 30.0, 1601 if quick else 2401)
    s0 = 0.01
    rho0 = DensityField.gaussian(g, 0.0, s0)
    res = evolve(rho0, PdeModel.CLASSICAL_TELEGRAPH, PotentialSpec.free(), p,
                 10.0, n_records=101)
    tau = p.tau_m
    D = derived_scales(p).D
    exact = s0 + 2.0 * D * (res.times - tau * (1.0 - np.exp(-res.times / tau)))
    m = res.times >= 1.0
    err = float(np.max(np.abs(res.sigma2[m] - exact[m]) / exact[m]))
    return _result(13, "telegraph-moments", err <= 0.02,
                   f"dispersion max rel err {err:.2e}; required <= 2e-2", t0,
                   err=err)


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10, criterion_11, criterion_12,
                criterion_13]


def run_all(quick: bool = False):
    """Run every criterion in numeric order."""
    return [fn(quick) for fn in ALL_CRITERIA]
