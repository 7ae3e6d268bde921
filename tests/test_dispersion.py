import logging
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, solve_ivp

from qbrown import (ClosedForm, DispersionTrajectory, ModelCompatibilityError,
                    PhysicalParams, compare_models, derived_scales,
                    dispersion, eval_closed_form, make_beta_grid,
                    solve_harmonic, solve_inertial_zero_T,
                    solve_overdamped_bounded, solve_overdamped_full,
                    stationary_harmonic_dispersion)
from qbrown.dispersion import (SemiclassicalDomainWarning, _beta_integral,
                               lambert_dispersion_scaled)
from qbrown.numerics import ConvergenceError, coth
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
    for bad in (-1.0, math.nan, math.inf, [1.0, math.nan]):
        with pytest.raises(ValueError):
            lambert_dispersion_scaled(bad)


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
    for kind in (ClosedForm.EINSTEIN, ClosedForm.COTH_INTERPOLATION):
        for bad in (-1.0, [1.0, math.nan]):
            with pytest.raises(ValueError):
                eval_closed_form(kind, bad, NAT)


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


def _reference_march(rhs, y0, x):
    """rhs marched through the nodes x by scipy's DOP853 at rtol 1e-13."""
    sol = solve_ivp(rhs, (x[0], x[-1]), y0, method="DOP853", t_eval=x,
                    rtol=1e-13, atol=1e-16)
    assert sol.success, sol.message
    return sol.y.T


def _march_overdamped(p, t, beta):
    """The overdamped surface ODE in ln t from the superposition at
    1e-8 t[0]."""
    t0 = 1e-8 * t[0]
    Dj = 1.0 / (beta[1:] * p.friction)
    S0 = p.hbar * math.sqrt(t0 / (p.mass * p.friction)) + 2.0 * Dj * t0

    def rhs(lt, S):
        integrand = np.concatenate(
            ([0.0], p.hbar ** 2 / (4.0 * p.mass) / S ** 2))
        I = cumulative_trapezoid(integrand, beta)
        return 2.0 * Dj * math.exp(lt) * (1.0 + I * S)

    return _reference_march(rhs, S0, np.log(np.concatenate(([t0], t))))[1:]


def test_full_matches_stepped_sweeps(caplog):
    """The surface is the overdamped ODE marched to solve_ode's tolerance:
    the reference is DOP853 at rtol 1e-13."""
    sc = derived_scales(NAT)
    t = np.geomspace(1e-2 * sc.t_c, 1e2 * sc.t_c, 21)
    beta = make_beta_grid(1.0, n=8)
    with caplog.at_level(logging.DEBUG, logger="qbrown.numerics"):
        surface, _ = solve_overdamped_full(NAT, t, beta)
    ref = _march_overdamped(NAT, t, beta)
    err = np.max(np.abs(surface.values[:, 1:] - ref) / ref)
    assert err <= 1e-7
    assert ("solve_ode: 274 accepted and 0 rejected steps, 8 components"
            in caplog.text)


def _in_units(p, mass, length, time, k_B):
    """p, given in natural units, restated in units where the unit mass,
    length and time are the given values (k_B sets the temperature
    unit)."""
    energy = mass * length ** 2 / time ** 2
    return PhysicalParams(hbar=p.hbar * energy * time, k_B=k_B,
                          mass=p.mass * mass, friction=p.friction * mass / time,
                          temperature=p.temperature * energy / k_B,
                          omega0=p.omega0 / time,
                          force=p.force * mass * length / time ** 2)


_UNITS = dict(mass=_log_uniform(1e-31, 1e3), length=_log_uniform(1e-12, 1e3),
              time=_log_uniform(1e-15, 1e3), k_B=_log_uniform(1e-23, 1e3))
_SI_ATOM = dict(mass=1.66e-27, length=1e-10, time=1e-12, k_B=1.380649e-23)


@settings(max_examples=25, deadline=None)
@given(**_UNITS)
@example(**_SI_ATOM)
def test_full_surface_in_any_units(mass, length, time, k_B):
    t = np.geomspace(0.05, 50.0, 13)
    beta = make_beta_grid(1.0, n=8)
    want, _ = solve_overdamped_full(NAT, t, beta)
    p = _in_units(NAT, mass, length, time, k_B)
    got, _ = solve_overdamped_full(p, t * time, beta * p.beta)
    np.testing.assert_allclose(got.values[:, 1:] / length ** 2,
                               want.values[:, 1:], rtol=1e-9)


@settings(max_examples=25, deadline=None)
@given(**_UNITS, sigma0_sq=st.sampled_from([0.0, 0.01, 0.3]))
@example(**_SI_ATOM, sigma0_sq=0.0)
@example(**{**_SI_ATOM, "mass": 1e-26}, sigma0_sq=0.01)
@example(**{**_SI_ATOM, "mass": 1e-26}, sigma0_sq=0.3)
def test_bounded_in_any_units(mass, length, time, k_B, sigma0_sq):
    t = np.linspace(0.0, 10.0, 41)
    want = solve_overdamped_bounded(NAT, sigma0_sq, t).sigma_x2
    p = _in_units(NAT, mass, length, time, k_B)
    got = solve_overdamped_bounded(p, sigma0_sq * length ** 2, t * time)
    np.testing.assert_allclose(got.sigma_x2 / length ** 2, want, rtol=1e-9)


# ---------------------------------------------------------------------------
# harmonic


def test_beta_integral_is_the_cumulative_trapezoid():
    beta = make_beta_grid(1.0, n=8, extend_factor=20.0)
    S = np.linspace(2.0, 0.5, beta.size - 1)
    want = cumulative_trapezoid(np.concatenate(([0.0], 0.25 / S ** 2)), beta)
    got = _beta_integral(0.25, S, 0.5 * np.diff(beta))
    np.testing.assert_array_equal(got, want)


def test_stationary_harmonic_matches_coth():
    for bho in (0.1, 0.5, 1.0, 2.0, 10.0, 60.0, 1000.0, 1e5, 1e300):
        p = PhysicalParams.natural(omega0=1.0, temperature=1.0 / bho)
        exact = 0.5 * coth(bho / 2.0)
        assert stationary_harmonic_dispersion(p) == pytest.approx(
            exact, rel=1e-10)
    with pytest.raises(ModelCompatibilityError):
        stationary_harmonic_dispersion(NAT)
    with pytest.raises(ModelCompatibilityError):
        stationary_harmonic_dispersion(PhysicalParams.natural(
            omega0=1.0, temperature=0.0))


@settings(max_examples=100, deadline=None)
@given(hbar=_log_uniform(1e-35, 1e2), mass=_log_uniform(1e-31, 1e2),
       omega0=_log_uniform(1e-3, 1e15), x=_log_uniform(1e-6, 1e12))
def test_stationary_harmonic_is_coth_in_any_units(hbar, mass, omega0, x):
    # T is drawn through x = hbar omega0 beta / 2, the coth argument
    beta = 2.0 * x / (hbar * omega0)
    p = PhysicalParams(hbar=hbar, mass=mass, omega0=omega0,
                       temperature=1.0 / beta)
    exact = hbar / (2.0 * mass * omega0) * float(
        mpmath.coth(hbar * omega0 * p.beta / 2.0))
    assert stationary_harmonic_dispersion(p) == pytest.approx(exact, rel=1e-9)


def test_harmonic_relaxes_to_equilibrium():
    p = PhysicalParams.natural(omega0=1.0, friction=2.0)
    t = np.linspace(0.0, 30.0, 301)
    _, tr = solve_harmonic(p, 1.3, 0.0, 1.0, 0.0, t)
    exact = 0.5 * coth(0.5)
    assert tr.sigma_x2[-1] == pytest.approx(exact, rel=2e-3)
    # b = 2 m omega0: the critically damped mean from mu0 = 1 at rest
    np.testing.assert_allclose(tr.mu, (1.0 + t) * np.exp(-t), rtol=0,
                               atol=1e-8)


def _march_harmonic(p, s0, ds0, t, beta):
    """The harmonic surface ODE in (S, S') per column."""
    kT = 1.0 / beta[1:]
    ncol = kT.size
    w0sq = p.omega0 ** 2

    def rhs(tt, y):
        S, V = y[:ncol], y[ncol:]
        integrand = np.concatenate(
            ([0.0], p.hbar ** 2 / (4.0 * p.mass ** 2) / S ** 2))
        I = cumulative_trapezoid(integrand, beta)
        spring = np.maximum(w0sq - kT * I, 1e-8 * w0sq)
        dV = (2.0 * kT - p.friction * V) / p.mass - 2.0 * spring * S
        return np.concatenate((V, dV))

    y0 = np.concatenate((np.full(ncol, s0), np.full(ncol, ds0)))
    return _reference_march(rhs, y0, t)[:, :ncol]


def test_harmonic_matches_stepped_sweeps(caplog):
    """The surface is the harmonic ODE marched to solve_ode's tolerance:
    the reference is DOP853 at rtol 1e-13."""
    p = PhysicalParams.natural(omega0=1.0, friction=2.0)
    t = np.linspace(0.0, 5.0, 26)
    beta = make_beta_grid(1.0, n=8)
    with caplog.at_level(logging.DEBUG, logger="qbrown.numerics"):
        surface, _ = solve_harmonic(p, 1.3, 0.2, 1.0, 0.0, t, beta)
    ref = _march_harmonic(p, 1.3, 0.2, t, beta)
    err = np.max(np.abs(surface.values[:, 1:] - ref) / ref)
    assert err <= 1e-9
    assert ("solve_ode: 207 accepted and 1 rejected steps, 18 components"
            in caplog.text)


@settings(max_examples=25, deadline=None)
@given(**_UNITS)
@example(**_SI_ATOM)
def test_harmonic_surface_in_any_units(mass, length, time, k_B):
    nat = PhysicalParams.natural(omega0=1.0, friction=2.0, force=0.3)
    t = np.linspace(0.0, 5.0, 26)
    beta = make_beta_grid(1.0, n=8)
    want, want_tr = solve_harmonic(nat, 1.3, 0.2, 1.0, 0.5, t, beta)
    p = _in_units(nat, mass, length, time, k_B)
    got, got_tr = solve_harmonic(p, 1.3 * length ** 2, 0.2 * length ** 2 / time,
                                 length, 0.5 * length / time, t * time,
                                 beta * p.beta)
    np.testing.assert_allclose(got.values[:, 1:] / length ** 2,
                               want.values[:, 1:], rtol=1e-9)
    np.testing.assert_allclose(got_tr.mu / length, want_tr.mu, rtol=1e-9)


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


@pytest.mark.parametrize("beta_grid, match", [
    (make_beta_grid(2.0, n=8), r"beta = 1\.0 is not a node"),
    (np.geomspace(1e-3, 1.0, 8), "must increase from 0"),
    (np.array([0.0, 1.0, 0.5]), "must increase from 0"),
], ids=["no-physical-beta", "no-zero", "not-increasing"])
def test_surface_solvers_check_the_beta_grid_first(monkeypatch, beta_grid,
                                                   match):
    def no_march(*args, **kwargs):
        raise AssertionError("marched before the beta grid was checked")

    monkeypatch.setattr(dispersion, "solve_ode", no_march)
    p = PhysicalParams.natural(omega0=1.0)
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match=match):
        solve_harmonic(p, 1.0, 0.0, 0.0, 0.0, t, beta_grid)
    with pytest.raises(ValueError, match=match):
        solve_overdamped_full(p, t, beta_grid)


# ---------------------------------------------------------------------------
# comparison table


@pytest.mark.filterwarnings(
    "ignore::qbrown.dispersion.SemiclassicalDomainWarning")
def test_compare_models_verdicts():
    sc = derived_scales(NAT)
    t = np.geomspace(1e-2 * sc.t_c, 1e2 * sc.t_c, 40)
    table = compare_models(NAT, t)
    # every closed form but vacuum spreading, which needs b = 0, in order
    assert list(table.columns) == [k.value for k in ClosedForm
                                   if k is not ClosedForm.VACUUM_SPREADING]
    for label, col in table.columns.items():
        np.testing.assert_array_equal(
            col, eval_closed_form(ClosedForm(label), t, NAT))
    assert table.verdicts == {"superposition_ge_lambert": True,
                              "elementary_ge_semiclassical_late": True}
    with pytest.raises(ModelCompatibilityError):
        compare_models(PhysicalParams.natural(temperature=0.0), t)
