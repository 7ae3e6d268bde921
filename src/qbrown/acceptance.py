"""End-to-end verification suite.

Thirteen numbered checks, each exercising one headline quantitative
claim of the theory through the public solvers and comparing against an
independent closed form or oracle.  Used by the test suite and by the
``qbrown accept`` command.  Each check returns its measured values, and
the gates declared beside it turn them into a one-line verdict.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .dispersion import (ClosedForm, compare_models, eval_closed_form,
                         make_beta_grid, solve_inertial_zero_T,
                         solve_overdamped_bounded, solve_overdamped_full,
                         stationary_harmonic_dispersion)
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


def _gate(measured, gates):
    """(passed, details) of the measured values against their gates:
    key=(lo, hi), either end None, or key=True for a flag.  details shows
    each measured key as 'key = value (required ...)', the bound printed
    from the float the comparison uses, or without one if it is ungated.
    """
    assert gates.keys() <= measured.keys(), "a gate names no measured key"
    passed, shown = True, []
    for key, value in measured.items():
        gate = gates.get(key)
        if gate is None:
            ok, required = True, ""
        elif gate is True:
            ok, required = bool(value), " (required True)"
        else:
            lo, hi = gate
            ok = (lo is None or lo <= value) and (hi is None or value <= hi)
            required = (f" (required <= {hi!r})" if lo is None else
                        f" (required >= {lo!r})" if hi is None else
                        f" (required [{lo!r}, {hi!r}])")
        passed = passed and bool(ok)
        text = value if isinstance(value, bool) else format(value, ".6g")
        shown.append(f"{key} = {text}{required}")
    return passed, ", ".join(shown)


ALL_CRITERIA = []


def _criterion(name, **gates):
    """Register the decorated body, which returns its measured dict, as
    the next numbered criterion; the criterion times and gates the body.
    Its gate(**measured) gates values measured elsewhere, such as by a
    scenario run, by the gates it declares for the same keys."""
    def register(measure):
        number = len(ALL_CRITERIA) + 1

        def criterion(quick=False) -> CriterionResult:
            t0 = time.perf_counter()
            measured = measure(quick)
            passed, details = _gate(measured, gates)
            return CriterionResult(number, name, passed, details,
                                   time.perf_counter() - t0, measured)

        criterion.__name__ = criterion.__qualname__ = measure.__name__
        criterion.__doc__ = measure.__doc__
        criterion.number, criterion.name = number, name
        criterion.gate = lambda **measured: _gate(
            measured, {key: gates[key] for key in measured})
        ALL_CRITERIA.append(criterion)
        return criterion
    return register


_NATURAL = PhysicalParams.natural()


@functools.lru_cache(maxsize=None)
def _full_surface(quick=False):
    """Shared self-consistent overdamped solve (criteria 1, 2, 4, 9).

    Solved once per ``quick`` and cached; its arrays are read-only so that
    no criterion can alter the copy the others read.
    """
    p = _NATURAL
    sc = derived_scales(p)
    n = 61 if quick else 121    # each puts a node at exactly 100 t_c
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


@_criterion("einstein-asymptote",
            ratio_full=(0.99, 1.02), ratio_lambert=(0.99, 1.02))
def criterion_1(quick=False) -> dict:
    """Einstein-law asymptote: sigma^2 / 2Dt at t = 100 t_c."""
    p, sc, t_grid, _, traj = _full_surface(quick)
    i = int(np.argmin(np.abs(t_grid - 100.0 * sc.t_c)))
    ratio_full = float(traj.sigma_x2[i] / (2.0 * sc.D * t_grid[i]))
    lam = float(eval_closed_form(ClosedForm.LAMBERT_EXACT, t_grid[i], p))
    ratio_lam = lam / (2.0 * sc.D * t_grid[i])
    return dict(ratio_full=ratio_full, ratio_lambert=ratio_lam)


@_criterion("pure-quantum-diffusion", err_cold=(None, 0.02),
            err_ode=(None, 0.02))
def criterion_2(quick=False) -> dict:
    """Pure quantum diffusion sigma^2 = hbar sqrt(t/mb): coldest column at
    t <= 0.01 t_c, inertial ODE over [10, 1e3] tau_m."""
    p, sc, t_grid, surface, _ = _full_surface(quick)
    cold = surface.values[:, -1]
    pq = p.hbar * np.sqrt(t_grid / (p.mass * p.friction))
    m = t_grid <= 0.01 * sc.t_c
    err_cold = float(np.max(np.abs(cold[m] - pq[m]) / pq[m]))

    pz, tg, tr = _zero_T_inertial(quick)
    pq2 = pz.hbar * np.sqrt(tg / (pz.mass * pz.friction))
    err_ode = float(np.max(np.abs(tr.sigma_x2 - pq2) / pq2))
    return dict(err_cold=err_cold, err_ode=err_ode)


@_criterion("lambert-exactness", deviation=(None, 1e-8),
            residual=(None, 1e-8))
def criterion_3(quick=False) -> dict:
    """Bounded-equation trajectory equals the Lambert closed form."""
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
    return dict(deviation=dev, residual=resid)


@_criterion("upper-bound-ordering", excess=(None, 1e-6),
            superposition_ok=True)
def criterion_4(quick=False) -> dict:
    """Ordering: self-consistent <= bounded <= superposition."""
    p, sc, t_grid, _, traj = _full_surface(quick)
    bounded = solve_overdamped_bounded(p, 0.0, t_grid)
    excess = float(np.max((traj.sigma_x2 - bounded.sigma_x2)
                          / bounded.sigma_x2))
    sup_ok = compare_models(p, t_grid).verdicts["superposition_ge_lambert"]
    return dict(excess=excess, superposition_ok=sup_ok)


@_criterion("harmonic-equilibrium-coth", stationary=(None, 1e-3),
            imaginary_time=(None, 1e-3))
def criterion_5(quick=False) -> dict:
    """Harmonic equilibrium dispersion matches the coth closed form."""
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
    return dict(stationary=worst_st, imaginary_time=worst_it)


@_criterion("vacuum-spreading", err=(None, 1e-6))
def criterion_6(quick=False) -> dict:
    """Vacuum spreading matches its closed form."""
    p = PhysicalParams.natural(friction=0.0, temperature=0.0)
    tg = np.linspace(0.0, 10.0, 101)
    tr = solve_inertial_zero_T(p, 1.0, 0.0, 0.0, 0.0, tg)
    exact = eval_closed_form(ClosedForm.VACUUM_SPREADING, tg, p, sigma0=1.0)
    err = float(np.max(np.abs(tr.sigma_x2 - exact) / exact))
    return dict(err=err)


@_criterion("zero-T-overdamped-law", err_ode=(None, 0.02),
            err_pde=(None, 0.02))
def criterion_7(quick=False) -> dict:
    """Zero-T overdamped law sigma^4 = hbar^2 t/mb on [10, 1e3] tau_m."""
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
    return dict(err_ode=err_ode, err_pde=err_pde)


@_criterion("heisenberg-monitor", min_product=(1.0 - 1e-12, None),
            einstein_violates=True)
def criterion_8(quick=False) -> dict:
    """Heisenberg monitor: quantum models satisfy it, Einstein violates it."""
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

    # Einstein with the classical equilibrium momentum m k_B T
    e = eval_closed_form(ClosedForm.EINSTEIN, tg, p)
    product_e = e * (p.mass * p.k_B * p.temperature)
    before = tg < sc.t_c * (1.0 - 1e-12)
    violates = bool(np.all(product_e[before] < quarter))
    return dict(min_product=worst, einstein_violates=violates)


@_criterion("semiclassical-correction", rel=(None, 0.10), above=True)
def criterion_9(quick=False) -> dict:
    """Semiclassical log correction: the excess over 2Dt at 100 t_c, in
    lambda_T^2, against ln(2Dt/lambda_T^2)/3; elementary form above."""
    p, sc, t_grid, _, traj = _full_surface(quick)
    i = int(np.argmin(np.abs(t_grid - 100.0 * sc.t_c)))
    lam2 = sc.lambda_T ** 2
    excess = float((traj.sigma_x2[i] - 2.0 * sc.D * t_grid[i]) / lam2)
    target = float(np.log(2.0 * sc.D * t_grid[i] / lam2) / 3.0)
    rel = abs(excess - target) / abs(target)

    semi = eval_closed_form(ClosedForm.SEMICLASSICAL_LOG, t_grid[i], p)
    elem = eval_closed_form(ClosedForm.ELEMENTARY_LOG_APPROX, t_grid[i], p)
    above = bool(elem >= semi)
    return dict(excess=excess, target=target, rel=rel, above=above)


@_criterion("coth-interpolation-limits", err_early=(None, 1e-4),
            err_late=(None, 1e-3))
def criterion_10(quick=False) -> dict:
    """Coth interpolation limits: pure quantum early, offset Einstein late."""
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
    return dict(err_early=err_early, err_late=err_late)


@_criterion("pde-conservation-ehrenfest", mass=(None, 1e-10),
            mu=(None, 5e-3))
def criterion_11(quick=False) -> dict:
    """Mass drift per 1e3 steps and Ehrenfest mean motion, every PDE model."""
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
        worst_mass = max(worst_mass, res.drift_per_1e3_steps)
        t = res.times
        tau = p.tau_m
        if model.inertial:
            mu_exact = (f / p.friction) * (t - tau * (1.0 - np.exp(-t / tau)))
        else:
            mu_exact = (f / p.friction) * t
        m = t >= 0.1 * t_final
        worst_mu = max(worst_mu, float(np.max(
            np.abs(res.mu[m] - mu_exact[m]) / np.abs(mu_exact[m]))))
    return dict(mass=worst_mass, mu=worst_mu)


@_criterion("equilibrium-route-equivalence", rho=(None, 1e-6),
            z=(None, 1e-3), semiclassical=(None, 5e-3))
def criterion_12(quick=False) -> dict:
    """Equilibrium route equivalence and semiclassical consistency."""
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
    return dict(rho=worst_rho, z=worst_z, semiclassical=dev_sc)


@_criterion("telegraph-moments", err=(None, 0.02))
def criterion_13(quick=False) -> dict:
    """Classical telegraph dispersion follows 2D[t - tau(1 - e^-t/tau)]."""
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
    return dict(err=err)


def run_all(quick: bool = False):
    """Run every criterion in numeric order."""
    return [fn(quick) for fn in ALL_CRITERIA]
