import logging
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbrown import (ClosedForm, DispersionTrajectory, ModelCompatibilityError,
                    PhysicalParams, compare_models,
                    derived_scales, eval_closed_form, make_beta_grid,
                    solve_harmonic, solve_inertial_zero_T,
                    solve_overdamped_bounded, solve_overdamped_full,
                    stationary_harmonic_dispersion)
from qbrown.dispersion import (SemiclassicalDomainWarning,
                               lambert_dispersion_scaled)
from qbrown.numerics import (ConvergenceError, coth, cumulative_trapezoid,
                             solve_ode)
from qbrown.params import momentum_dispersion

NAT = PhysicalParams.natural()


# ---------------------------------------------------------------------------
# closed forms


def test_closed_form_values():
    sc = derived_scales(NAT)
    t = 0.7
    assert eval_closed_form(ClosedForm.EINSTEIN, t, NAT) == pytest.approx(2 * sc.D * t)
    assert eval_closed_form(ClosedForm.PURE_QUANTUM, t, NAT) == pytest.approx(math.sqrt(t))
    assert eval_closed_form(ClosedForm.SUPERPOSITION, t, NAT) == pytest.approx(
        math.sqrt(t) + 2 * t)
    ci = eval_closed_form(ClosedForm.COTH_INTERPOLATION, t, NAT)
    assert ci == pytest.approx(2 * sc.lambda_T * math.sqrt(sc.D * t)
                               * coth(sc.lambda_T / math.sqrt(sc.D * t)))
    el = eval_closed_form(ClosedForm.ELEMENTARY_LOG_APPROX, t, NAT)
    assert el == pytest.approx(2 * t + 2 * 0.25 * math.log(1 + math.sqrt(t) / 0.5))


def test_lambert_scaled_round_trip():
    c = np.geomspace(1e-8, 1e8, 100)
    s = lambert_dispersion_scaled(c)
    # atol covers cancellation in the residual where s ~ sqrt(2c) is tiny
    np.testing.assert_allclose(s - np.log1p(s), c, rtol=1e-10, atol=5e-16)
    assert lambert_dispersion_scaled(0.0) == 0.0
    with pytest.raises(ValueError):
        lambert_dispersion_scaled(-1.0)


def test_lambert_closed_form_solves_implicit_relation():
    t = np.geomspace(1e-4, 1e4, 50)
    s = eval_closed_form(ClosedForm.LAMBERT_EXACT, t, NAT)
    lam2 = 0.25
    np.testing.assert_allclose(s - lam2 * np.log1p(s / lam2), 2.0 * t,
                               rtol=1e-10)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None)
@example(c=5e-324)
@given(c=_log_uniform(1e-300, 1e6))
def test_lambert_scaled_matches_mpmath(c):
    # exp(-1 - c) keeps c only with more than -log10(c) digits
    with mpmath.workdps(int(max(0.0, -math.log10(c))) + 50):
        want = -1 - mpmath.lambertw(-mpmath.exp(-1 - mpmath.mpf(c)), -1).real
        s = lambert_dispersion_scaled(c)
        assert s > 0
        assert abs(s - want) <= 1e-12 * want


@settings(max_examples=200, deadline=None)
@given(hbar=_log_uniform(1e-2, 1e2), mass=_log_uniform(1e-2, 1e2),
       friction=_log_uniform(1e-2, 1e2), temperature=_log_uniform(1e-2, 1e2),
       t_over_tc=_log_uniform(1e-20, 1e6))
def test_closed_forms_keep_heisenberg_bound(hbar, mass, friction, temperature,
                                            t_over_tc):
    p = PhysicalParams(hbar=hbar, mass=mass, friction=friction,
                       temperature=temperature)
    t = t_over_tc * derived_scales(p).t_c
    for kind in (ClosedForm.PURE_QUANTUM, ClosedForm.SUPERPOSITION,
                 ClosedForm.LAMBERT_EXACT, ClosedForm.COTH_INTERPOLATION):
        s2 = eval_closed_form(kind, t, p)
        assert s2 * momentum_dispersion(s2, p) >= 0.25 * hbar ** 2 * (
            1 - 1e-12), kind


def test_vacuum_spreading_form_and_guards():
    p = PhysicalParams.natural(friction=0.0, temperature=0.0)
    t = np.array([0.0, 1.0, 3.0])
    out = eval_closed_form(ClosedForm.VACUUM_SPREADING, t, p, sigma0=2.0)
    np.testing.assert_allclose(out, 4.0 + (t / 4.0) ** 2)
    with pytest.raises(ModelCompatibilityError):
        eval_closed_form(ClosedForm.VACUUM_SPREADING, t, NAT, sigma0=1.0)
    with pytest.raises(ModelCompatibilityError):
        eval_closed_form(ClosedForm.VACUUM_SPREADING, t, p)
    with pytest.raises(ModelCompatibilityError):
        eval_closed_form(ClosedForm.EINSTEIN, t, NAT, sigma0=1.0)


def test_thermal_forms_need_bath():
    cold = PhysicalParams.natural(temperature=0.0)
    for kind in (ClosedForm.EINSTEIN, ClosedForm.LAMBERT_EXACT,
                 ClosedForm.COTH_INTERPOLATION):
        with pytest.raises(ModelCompatibilityError):
            eval_closed_form(kind, 1.0, cold)
    with pytest.raises(ValueError):
        eval_closed_form(ClosedForm.EINSTEIN, -1.0, NAT)


def test_semiclassical_log_warns_outside_domain():
    with pytest.warns(SemiclassicalDomainWarning):
        eval_closed_form(ClosedForm.SEMICLASSICAL_LOG, 1e-4, NAT)


def test_orderings():
    t = np.geomspace(1e-3, 1e3, 200)
    lam = eval_closed_form(ClosedForm.LAMBERT_EXACT, t, NAT)
    sup = eval_closed_form(ClosedForm.SUPERPOSITION, t, NAT)
    ein = eval_closed_form(ClosedForm.EINSTEIN, t, NAT)
    assert np.all(lam <= sup)
    assert np.all(lam >= ein)
    late = t > derived_scales(NAT).t_c
    semi = eval_closed_form(ClosedForm.SEMICLASSICAL_LOG, t[late], NAT)
    elem = eval_closed_form(ClosedForm.ELEMENTARY_LOG_APPROX, t[late], NAT)
    assert np.all(elem >= semi)


# ---------------------------------------------------------------------------
# beta grid and trajectory plumbing


def test_make_beta_grid():
    g = make_beta_grid(2.0, n=16)
    assert g[0] == 0.0
    assert g[-1] == 2.0
    assert np.all(np.diff(g) > 0)
    ext = make_beta_grid(2.0, n=16, extend_factor=10.0)
    assert ext.size == 1 + 16 + 16
    assert ext[-1] == pytest.approx(20.0)
    assert 2.0 in ext
    with pytest.raises(ValueError):
        make_beta_grid(0.0)


def test_trajectory_validation():
    t = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        DispersionTrajectory(times=t, sigma_x2=np.array([1.0]),
                             sigma_p2=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        DispersionTrajectory.from_sigma(np.array([0.0, 1.0]),
                                        np.array([1.0, -1.0]), NAT)


# ---------------------------------------------------------------------------
# solvers


def test_inertial_vacuum_matches_closed_form():
    p = PhysicalParams.natural(friction=0.0, temperature=0.0)
    t = np.linspace(0.0, 10.0, 81)
    tr = solve_inertial_zero_T(p, 1.5, 0.0, 0.0, 0.0, t)
    exact = eval_closed_form(ClosedForm.VACUUM_SPREADING, t, p, sigma0=1.5)
    np.testing.assert_allclose(tr.sigma_x2, exact, rtol=1e-8)
    # minimal-uncertainty momentum along the way
    np.testing.assert_allclose(tr.sigma_x2 * tr.sigma_p2, 0.25, rtol=1e-6)


def test_inertial_mean_is_damped_newton():
    p = PhysicalParams.natural(temperature=0.0, force=0.5, friction=2.0)
    t = np.linspace(0.0, 5.0, 41)
    tr = solve_inertial_zero_T(p, 1.0, 0.0, 0.0, 0.0, t)
    tau = p.tau_m
    mu = (0.5 / 2.0) * (t - tau * (1.0 - np.exp(-t / tau)))
    np.testing.assert_allclose(tr.mu, mu, atol=1e-8)


def test_inertial_guards():
    with pytest.raises(ModelCompatibilityError):
        solve_inertial_zero_T(NAT, 1.0, 0.0, 0.0, 0.0, [0.0, 1.0])
    p = PhysicalParams.natural(temperature=0.0)
    with pytest.raises(ValueError):
        solve_inertial_zero_T(p, 0.0, 0.0, 0.0, 0.0, [0.0, 1.0])


def test_bounded_matches_lambert():
    sc = derived_scales(NAT)
    t = np.geomspace(1e-3 * sc.t_c, 1e3 * sc.t_c, 41)
    tr = solve_overdamped_bounded(NAT, 0.0, t)
    lam = eval_closed_form(ClosedForm.LAMBERT_EXACT, t, NAT)
    np.testing.assert_allclose(tr.sigma_x2, lam, rtol=1e-8)


def test_bounded_nonzero_start_monotone():
    t = np.linspace(0.0, 5.0, 51)
    tr = solve_overdamped_bounded(NAT, 0.3, t)
    assert tr.sigma_x2[0] == pytest.approx(0.3)
    assert np.all(np.diff(tr.sigma_x2) > 0)


@pytest.fixture(scope="module")
def full_surface():
    sc = derived_scales(NAT)
    t = np.geomspace(1e-3 * sc.t_c, 1e3 * sc.t_c, 61)
    beta = make_beta_grid(1.0, n=24, extend_factor=20.0)
    surface, traj = solve_overdamped_full(NAT, t, beta)
    return t, surface, traj


def test_full_cold_column_is_pure_quantum(full_surface):
    t, surface, _ = full_surface
    sc = derived_scales(NAT)
    cold = surface.values[:, -1]
    pq = np.sqrt(t)
    m = t <= 0.01 * sc.t_c
    np.testing.assert_allclose(cold[m], pq[m], rtol=2e-2)


def test_full_surface_monotone_in_beta(full_surface):
    t, surface, _ = full_surface
    body = surface.values[:, 1:]
    # colder columns disperse less; grid-junction noise allowed at 1e-6
    assert np.all(np.diff(body, axis=1) <= 1e-6 * body[:, 1:])


def test_full_below_bounded(full_surface):
    t, _, traj = full_surface
    bounded = solve_overdamped_bounded(NAT, 0.0, t)
    excess = np.max((traj.sigma_x2 - bounded.sigma_x2) / bounded.sigma_x2)
    assert excess <= 1e-6


def test_full_heisenberg(full_surface):
    _, _, traj = full_surface
    assert np.all(traj.sigma_x2 * traj.sigma_p2 >= 0.25 * (1 - 1e-12))


def _surface_errors(solver_surface, march, step):
    """Largest relative error of the solver's surface (step) and of the
    in-test march at step / 2 and step / 4 against the march at step / 16."""
    ref = march(step / 16)
    errs = [np.max(np.abs(got - ref) / ref)
            for got in (solver_surface, march(step / 2), march(step / 4))]
    return errs, np.log2(np.array(errs[:-1]) / np.array(errs[1:]))


def _march_overdamped(p, t, beta, step):
    """The overdamped surface ODE in ln t from the superposition at
    1e-8 t[0], on the anchor grid solve_overdamped_full puts below t[0],
    marched by solve_ode's RK4."""
    n_pre = max(2, int(math.ceil(12 * math.log10(t[0] / (1e-8 * t[0])))))
    ti = np.concatenate((np.geomspace(1e-8 * t[0], t[0], n_pre + 1)[:-1], t))
    Dj = 1.0 / (beta[1:] * p.friction)
    S0 = p.hbar * math.sqrt(ti[0] / (p.mass * p.friction)) + 2.0 * Dj * ti[0]

    def rhs(lt, S):
        integrand = np.concatenate(
            ([0.0], p.hbar ** 2 / (4.0 * p.mass) / S ** 2))
        I = cumulative_trapezoid(integrand, beta)[1:]
        return 2.0 * Dj * math.exp(lt) * (1.0 + I * S)

    return solve_ode(rhs, S0, np.log(ti), fixed_step=step)[n_pre:]


def test_full_matches_stepped_sweeps(caplog):
    """The surface is one fourth-order RK4 march of 0.05 in ln t."""
    sc = derived_scales(NAT)
    t = np.geomspace(1e-2 * sc.t_c, 1e2 * sc.t_c, 21)
    beta = make_beta_grid(1.0, n=8)
    with caplog.at_level(logging.DEBUG, logger="qbrown.dispersion"):
        surface, _ = solve_overdamped_full(NAT, t, beta)
    errs, orders = _surface_errors(
        surface.values[:, 1:],
        lambda step: _march_overdamped(NAT, t, beta, step), 0.05)
    assert errs[0] <= 1e-7
    assert np.all((orders > 3.5) & (orders < 4.5)), orders
    assert "overdamped surface march: 584 RK4 steps x 8 columns" in caplog.text


# ---------------------------------------------------------------------------
# harmonic


def test_stationary_harmonic_matches_coth():
    for bho in (0.5, 2.0):
        p = PhysicalParams.natural(omega0=1.0, temperature=1.0 / bho)
        exact = 0.5 * coth(bho / 2.0)
        assert stationary_harmonic_dispersion(bho, p) == pytest.approx(
            exact, rel=1e-3)


def test_stationary_harmonic_logs_and_fails_by_name(caplog):
    p = PhysicalParams.natural(omega0=1.0, temperature=2.0)
    with caplog.at_level(logging.DEBUG, logger="qbrown.dispersion"):
        stationary_harmonic_dispersion(0.5, p)
    assert ("stationary harmonic Picard solve: 17 iterations, final residual"
            in caplog.text)
    with pytest.raises(ConvergenceError) as exc:
        stationary_harmonic_dispersion(0.5, p, max_iter=3)
    assert "stationary_harmonic_dispersion" in str(exc.value)
    assert len(exc.value.residuals) == 3


def test_harmonic_relaxes_to_equilibrium():
    p = PhysicalParams.natural(omega0=1.0, friction=2.0)
    t = np.linspace(0.0, 30.0, 301)
    _, tr = solve_harmonic(p, 1.3, 0.0, 1.0, 0.0, t)
    exact = 0.5 * coth(0.5)
    assert tr.sigma_x2[-1] == pytest.approx(exact, rel=2e-3)
    # b = 2 m omega0: the critically damped mean from mu0 = 1 at rest
    np.testing.assert_allclose(tr.mu, (1.0 + t) * np.exp(-t), rtol=0,
                               atol=1e-8)


def _march_harmonic(p, s0, ds0, t, beta, step):
    """The harmonic surface ODE in (S, S') per column, marched by
    solve_ode's RK4."""
    kT = 1.0 / beta[1:]
    ncol = kT.size
    w0sq = p.omega0 ** 2

    def rhs(tt, y):
        S, V = y[:ncol], y[ncol:]
        integrand = np.concatenate(
            ([0.0], p.hbar ** 2 / (4.0 * p.mass ** 2) / S ** 2))
        I = cumulative_trapezoid(integrand, beta)[1:]
        spring = np.maximum(w0sq - kT * I, 1e-8 * w0sq)
        dV = (2.0 * kT - p.friction * V) / p.mass - 2.0 * spring * S
        return np.concatenate((V, dV))

    y0 = np.concatenate((np.full(ncol, s0), np.full(ncol, ds0)))
    return solve_ode(rhs, y0, t, fixed_step=step)[:, :ncol]


def test_harmonic_matches_stepped_sweeps(caplog):
    """The surface is one fourth-order RK4 march of min(span / 200,
    0.02 / omega0) in t."""
    p = PhysicalParams.natural(omega0=1.0, friction=2.0)
    t = np.linspace(0.0, 5.0, 26)
    beta = make_beta_grid(1.0, n=8)
    with caplog.at_level(logging.DEBUG, logger="qbrown.dispersion"):
        surface, _ = solve_harmonic(p, 1.3, 0.2, 1.0, 0.0, t, beta)
    errs, orders = _surface_errors(
        surface.values[:, 1:],
        lambda step: _march_harmonic(p, 1.3, 0.2, t, beta, step),
        min(5.0 / 200, 0.02 / p.omega0))
    assert errs[0] <= 1e-6
    assert np.all((orders > 3.5) & (orders < 4.5)), orders
    assert "harmonic surface march: 262 RK4 steps x 8 columns" in caplog.text


def test_harmonic_names_where_a_column_fails():
    # an initial slope that drives S through 0: no grid refinement cures it
    p = PhysicalParams.natural(omega0=1.0, friction=2.0)
    with pytest.raises(ConvergenceError, match=r"at t = 0\.0\d*, beta = "):
        solve_harmonic(p, 1.0, -50.0, 0.0, 0.0, np.linspace(0, 5, 51))


def test_harmonic_guards():
    with pytest.raises(ModelCompatibilityError):
        solve_harmonic(NAT, 1.0, 0.0, 0.0, 0.0, np.linspace(0, 1, 11))
    p = PhysicalParams.natural(omega0=1.0)
    with pytest.raises(ValueError):
        solve_harmonic(p, -1.0, 0.0, 0.0, 0.0, np.linspace(0, 1, 11))
    with pytest.raises(ValueError):
        solve_harmonic(p, 1.0, 0.0, 0.0, 0.0, [0.0])


# ---------------------------------------------------------------------------
# comparison table


def test_compare_models_verdicts_and_errors():
    sc = derived_scales(NAT)
    t = np.geomspace(1e-2 * sc.t_c, 1e2 * sc.t_c, 40)
    table = compare_models(NAT, t, list(ClosedForm), sigma0=1.0)
    # vacuum spreading is incompatible with b > 0 and lands in errors
    assert "vacuum-spreading" in table.errors
    assert table.verdicts["superposition_ge_lambert"]
    assert table.verdicts["elementary_ge_semiclassical_late"]
