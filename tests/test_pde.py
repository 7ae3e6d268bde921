import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbrown import (ConvergenceError, DensityField, Grid1D, PdeModel,
                    PhysicalParams, PotentialSpec, derived_scales,
                    effective_potential, evolve, moments, quantum_potential)
from qbrown import pde
from qbrown.pde import (_LogDensityRate, _log_start, _moment_weights,
                        _moments)

NAT = PhysicalParams.natural()


# ---------------------------------------------------------------------------
# grid / field plumbing


def test_grid_validation():
    g = Grid1D(-2.0, 2.0, 17)
    assert g.h == pytest.approx(0.25)
    assert g.x[0] == -2.0 and g.x[-1] == 2.0
    with pytest.raises(ValueError):
        Grid1D(1.0, -1.0, 32)
    with pytest.raises(ValueError):
        Grid1D(-1.0, 1.0, 8)


def test_grid_refuses_an_unknown_boundary():
    assert Grid1D(-1.0, 1.0, 32).boundary == "box"
    with pytest.raises(ValueError, match="unknown boundary 'absorbing'"):
        Grid1D(-1.0, 1.0, 32, boundary="absorbing")


def test_density_field_normalizes():
    g = Grid1D(-5.0, 5.0, 101)
    f = DensityField(grid=g, rho=np.ones(101) * 7.0)
    assert moments(f).norm == pytest.approx(1.0)
    with pytest.raises(ValueError):
        DensityField(grid=g, rho=-np.ones(101))
    with pytest.raises(ValueError):
        DensityField(grid=g, rho=np.ones(50))


def test_uniform_density_moments():
    g = Grid1D(0.0, 6.0, 601)
    m = moments(DensityField.uniform(g))
    assert m.mean == pytest.approx(3.0)
    # trapezoid sees the box edges at O(h^2)
    assert m.dispersion == pytest.approx(36.0 / 12.0, rel=1e-4)


def test_gaussian_density_moments():
    g = Grid1D(-10.0, 10.0, 801)
    m = moments(DensityField.gaussian(g, 0.7, 0.9))
    assert m.mean == pytest.approx(0.7, abs=1e-9)
    assert m.dispersion == pytest.approx(0.9, rel=1e-9)


def test_moments_warns_off_norm():
    g = Grid1D(-1.0, 1.0, 21)
    f = DensityField.uniform(g)
    f.rho = f.rho * 1.01  # bypass normalization
    with pytest.warns(UserWarning):
        moments(f)


# ---------------------------------------------------------------------------
# potentials


def test_potential_variants():
    g = Grid1D(-2.0, 2.0, 41)
    x, zero = g.x, np.zeros(41)
    p = PhysicalParams.natural(mass=2.5, omega0=1.5)
    k = 2.5 * 1.5 ** 2
    cases = [(PotentialSpec.free(), (zero, zero, zero)),
             (PotentialSpec.linear(2.0), (-2.0 * x, np.full(41, -2.0), zero)),
             (PotentialSpec.harmonic(1.5),
              (0.5 * k * x ** 2, k * x, np.full(41, k))),
             (PotentialSpec.quartic(3.0),
              (3.0 * x ** 4, 12.0 * x ** 3, 36.0 * x ** 2))]
    for U, want in cases:
        got = U.derivatives(g, p)
        assert len(got) == 3
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(np.signbit(a), np.signbit(b))
        np.testing.assert_array_equal(U.energy(g, p), want[0])
    with pytest.raises(ValueError):
        PotentialSpec.harmonic(0.0)
    with pytest.raises(ValueError):
        PotentialSpec(variant="cubic")


def test_tabulated_potential_derivatives():
    g = Grid1D(-2.0, 2.0, 401)
    tab = PotentialSpec.tabulated(0.5 * g.x ** 2)
    u, du, d2u = tab.derivatives(g, NAT)
    np.testing.assert_array_equal(u, 0.5 * g.x ** 2)
    np.testing.assert_allclose(du[1:-1], g.x[1:-1], atol=1e-3)
    np.testing.assert_allclose(d2u[1:-1], 1.0, atol=1e-6)
    assert d2u[0] == d2u[1] and d2u[-1] == d2u[-2]
    with pytest.raises(ValueError):
        PotentialSpec.tabulated([1.0, math.nan])


def test_harmonic_consistency_check():
    g = Grid1D(-1.0, 1.0, 21)
    p = PhysicalParams.natural(omega0=2.0)
    with pytest.raises(ValueError):
        PotentialSpec.harmonic(1.0).energy(g, p)


# ---------------------------------------------------------------------------
# quantum and effective potentials


def test_quantum_potential_of_gaussian():
    g = Grid1D(-6.0, 6.0, 601)
    s2 = 0.8
    q = quantum_potential(DensityField.gaussian(g, 0.0, s2), NAT)
    x = g.x
    exact = 1.0 / (4.0 * s2) - x ** 2 / (8.0 * s2 ** 2)
    core = np.abs(x) < 3.0
    np.testing.assert_allclose(q[core], exact[core], atol=2e-4)


def test_effective_potential_harmonic():
    g = Grid1D(-2.0, 2.0, 41)
    p = PhysicalParams.natural(omega0=1.0)
    beta = 0.5
    U = PotentialSpec.harmonic(1.0)
    exact = (0.5 * g.x ** 2
             + beta * (3.0 - beta * g.x ** 2) / 24.0)
    np.testing.assert_allclose(effective_potential(U, beta, p, g), exact,
                               rtol=1e-12)
    # hbar -> 0 removes the correction entirely
    p0 = PhysicalParams.natural(omega0=1.0, hbar=1e-12)
    np.testing.assert_allclose(effective_potential(U, beta, p0, g),
                               0.5 * g.x ** 2, atol=1e-20)


# ---------------------------------------------------------------------------
# evolution


def test_classical_smoluchowski_free_diffusion():
    g = Grid1D(-25.0, 25.0, 1001)
    res = evolve(DensityField.gaussian(g, 0.0, 1.0),
                 PdeModel.CLASSICAL_SMOLUCHOWSKI, PotentialSpec.free(), NAT,
                 5.0, n_records=21)
    D = derived_scales(NAT).D
    np.testing.assert_allclose(res.sigma2, 1.0 + 2.0 * D * res.times,
                               rtol=1e-4)
    np.testing.assert_allclose(res.mass, 1.0, atol=1e-12)


def test_classical_telegraph_moments():
    g = Grid1D(-25.0, 25.0, 1601)
    s0 = 0.01
    res = evolve(DensityField.gaussian(g, 0.0, s0),
                 PdeModel.CLASSICAL_TELEGRAPH, PotentialSpec.free(), NAT,
                 8.0, n_records=41)
    tau = NAT.tau_m
    exact = s0 + 2.0 * (res.times - tau * (1.0 - np.exp(-res.times / tau)))
    m = res.times >= 1.0
    np.testing.assert_allclose(res.sigma2[m], exact[m], rtol=1e-2)


def test_linear_force_drift():
    p = PhysicalParams.natural(force=0.5, friction=4.0)
    g = Grid1D(-5.0, 7.0, 301)
    res = evolve(DensityField.gaussian(g, 0.0, 0.25),
                 PdeModel.CLASSICAL_SMOLUCHOWSKI, PotentialSpec.linear(0.5),
                 p, 8.0, n_records=21)
    np.testing.assert_allclose(res.mu, 0.5 / 4.0 * res.times, atol=2e-3)


def test_quantum_zero_T_quartic_root_law():
    p = PhysicalParams.natural(friction=100.0, temperature=0.0)
    g = Grid1D(-8.0, 8.0, 321)
    res = evolve(DensityField.gaussian(g, 0.0, 0.04),
                 PdeModel.QUANTUM_ZERO_T_SMOLUCHOWSKI, PotentialSpec.free(),
                 p, 10.0, n_records=41)
    law = res.times / 100.0
    m = res.times >= 0.1
    meas = res.sigma2[m] ** 2 - res.sigma2[0] ** 2
    np.testing.assert_allclose(meas, law[m], rtol=1e-2)


def test_zero_T_relaxation_spends_few_newton_iterations():
    # criterion 7's quick run: tens of Newton failures in the underflowed
    # tails once halved its first steps down to dt ~ 5e-7
    p = PhysicalParams.natural(friction=100.0, temperature=0.0)
    g = Grid1D(-8.0, 8.0, 321)
    res = evolve(DensityField.gaussian(g, 0.0, 0.04),
                 PdeModel.QUANTUM_ZERO_T_SMOLUCHOWSKI, PotentialSpec.free(),
                 p, 1000.0 * p.tau_m, n_records=101)
    assert res.diagnostics["newton_iterations"] <= 900
    assert res.diagnostics["newton_failures"] <= 3


def test_log_start_continues_the_tails_linearly():
    g = Grid1D(-8.0, 8.0, 321)
    rho = DensityField.gaussian(g, 0.0, 0.04).rho
    tiny = np.finfo(float).tiny
    normal = np.flatnonzero(rho >= tiny)
    lo, hi = normal[0], normal[-1]
    assert 0 < lo and hi < g.n - 1 and normal.size == hi - lo + 1
    y = _log_start(rho)
    np.testing.assert_array_equal(y[lo:hi + 1], np.log(rho[lo:hi + 1]))
    for tail, end, inner in ((slice(0, lo), lo, lo + 1),
                             (slice(hi + 1, None), hi, hi - 1)):
        i = np.arange(g.n)[tail]
        line = y[end] + (y[end] - y[inner]) * np.abs(i - end)
        np.testing.assert_allclose(y[tail], line, rtol=1e-13)
        assert np.all(y[tail] <= math.log(tiny))
    # a run of underflowed nodes between normal ones keeps the floor
    rho[150:160] = 0.0
    assert np.all(_log_start(rho)[150:160] == math.log(tiny))


def _params_for(model):
    """NAT, at T = 0 for the quantum models."""
    return PhysicalParams.natural(temperature=0.0) if model.quantum else NAT


@pytest.mark.parametrize("model", PdeModel, ids=lambda m: m.value)
def test_periodic_uniform_is_stationary(model):
    g = Grid1D(0.0, 2.0 * math.pi * 64 / 65, 65, "periodic")
    res = evolve(DensityField.uniform(g), model, PotentialSpec.free(),
                 _params_for(model), 1.0, n_records=5)
    np.testing.assert_allclose(res.density.rho, 1.0 / (2.0 * math.pi),
                               atol=1e-13)


@pytest.mark.parametrize("model", PdeModel, ids=lambda m: m.value)
def test_periodic_ring_conserves_mass_across_the_seam(model):
    # a ring of 64 nodes: node 63 neighbours node 0, so every node
    # carries full weight in the conserved mass
    g = Grid1D(0.0, 2.0 * math.pi * 63 / 64, 64, "periodic")
    rho0 = DensityField(grid=g, rho=1.0 + 0.5 * np.cos(g.x))
    res = evolve(rho0, model, PotentialSpec.free(), _params_for(model), 1.0,
                 n_records=5)
    assert np.max(np.abs(res.mass - res.mass[0])) <= 1e-14
    assert res.diagnostics["min_density"] >= 0.0


def test_periodic_final_density_is_the_last_record():
    # a ring conserves h * sum(rho), 1 from a ring DensityField; the final
    # density is the stepper's state, not rescaled
    g = Grid1D(0.0, 2.0 * math.pi * 63 / 64, 64, "periodic")
    rho0 = DensityField(grid=g, rho=1.0 + 0.5 * np.cos(g.x))
    res = evolve(rho0, PdeModel.CLASSICAL_SMOLUCHOWSKI, PotentialSpec.free(),
                 NAT, 1.0, n_records=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no norm warning on a ring
        m = moments(res.density)
    assert m.norm == pytest.approx(1.0, abs=1e-12)
    assert m.dispersion == pytest.approx(3.65626, abs=1e-5)
    np.testing.assert_allclose([m.mean, m.dispersion, m.norm],
                               [res.mu[-1], res.sigma2[-1], res.mass[-1]],
                               rtol=1e-12, atol=0)


def test_moments_on_a_ring_weight_every_node_fully():
    # the box rule halves the end nodes, the ring's does not; a uniform
    # ring density has the mean and variance of the uniform distribution
    # on its n nodes
    g = Grid1D(0.0, 15.0, 16, "periodic")
    f = DensityField.uniform(g)
    m = moments(f)
    assert m.norm == pytest.approx(g.h * np.sum(f.rho), rel=1e-15)
    assert m.norm == pytest.approx(1.0, rel=1e-15)
    assert m.mean == pytest.approx(7.5, rel=1e-14)
    assert m.dispersion == pytest.approx((16 ** 2 - 1) / 12.0, rel=1e-14)
    box = moments(DensityField.uniform(Grid1D(0.0, 15.0, 16)))
    assert box.norm == pytest.approx(1.0, rel=1e-15)
    assert box.dispersion < m.dispersion


def test_ring_density_field_has_unit_mass():
    # normalized by the box trapezoid, this start had h sum(rho) = 1.02398
    g = Grid1D(0.0, 2.0 * math.pi * 63 / 64, 64, "periodic")
    f = DensityField(grid=g, rho=1.0 + 0.5 * np.cos(g.x))
    assert g.h * np.sum(f.rho) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("boundary", ["box", "periodic"])
def test_grid_weights_are_the_one_quadrature(boundary):
    # Grid1D.weights is the rule DensityField normalizes by, moments
    # integrate by and both evolve steppers conserve and record
    g = Grid1D(-3.0, 4.0, 57, boundary)
    length = g.x_max - g.x_min if boundary == "box" else g.n * g.h
    assert np.sum(g.weights) == pytest.approx(length, rel=1e-15)
    rng = np.random.default_rng(38)
    f = DensityField.gaussian(g, rng.uniform(-0.5, 0.5),
                              rng.uniform(0.2, 0.6))
    mass = g.weights @ f.rho
    assert mass == pytest.approx(1.0, rel=1e-15)
    assert moments(f).norm == pytest.approx(mass, rel=1e-15)
    for model in (PdeModel.CLASSICAL_SMOLUCHOWSKI,
                  PdeModel.CLASSICAL_TELEGRAPH):
        res = evolve(f, model, PotentialSpec.free(), NAT, 0.05, n_records=2)
        assert res.diagnostics["min_density"] >= 0.0
        assert res.mass[-1] == pytest.approx(g.weights @ res.density.rho,
                                             rel=1e-14)


def test_ring_gaussian_takes_the_minimum_image():
    # mu on node 0 of a ring with h = 1/8, where every distance is exact:
    # node -k lies k h from mu across the seam, as node k does inside
    g = Grid1D(-4.0, 3.875, 64, "periodic")
    rho = DensityField.gaussian(g, -4.0, 0.5).rho
    assert rho[1] == rho[-1]
    assert np.array_equal(rho[1:], rho[:0:-1])


def test_quantum_potential_wraps_on_a_ring():
    # the wrapped central stencil at every node, the ends included; the
    # one-sided box stencil missed it at node 0 by 1.6e-3 of the peak
    g = Grid1D(0.0, 2.0 * math.pi * 63 / 64, 64, "periodic")
    f = DensityField(grid=g, rho=1.0 + 0.5 * np.cos(g.x))
    a = np.sqrt(f.rho)
    lap = (np.roll(a, -1) - 2.0 * a + np.roll(a, 1)) / g.h ** 2
    ref = -NAT.hbar ** 2 * lap / (2.0 * NAT.mass * a)
    q = quantum_potential(f, NAT)
    np.testing.assert_allclose(q, ref, rtol=0,
                               atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("n_records", [21, 101])
def test_records_n_rows_ending_at_t_final(n_records):
    # on this 32-node ring the classical telegraph stability bound alone
    # gives fewer steps than the 100 record intervals
    g = Grid1D(0.0, 2.0 * math.pi * 31 / 32, 32, "periodic")
    rho0 = DensityField(grid=g, rho=1.0 + 0.5 * np.cos(g.x))
    n = n_records
    for model in PdeModel:
        res = evolve(rho0, model, PotentialSpec.free(), _params_for(model),
                     1.0, n_records=n)
        assert res.mu.size == res.sigma2.size == res.mass.size == n, model
        assert np.array_equal(res.times, 1.0 * np.arange(n) / (n - 1)), model
        if model.inertial:
            assert res.n_steps % (n - 1) == 0, model
            assert (res.diagnostics["dt_max"] * res.n_steps
                    == pytest.approx(1.0, rel=1e-14))


def test_quantum_evolve_reports_floored_fraction():
    g = Grid1D(-20.0, 20.0, 801)
    p = PhysicalParams.natural(temperature=0.0)
    res = evolve(DensityField.gaussian(g, 0.0, 0.25),
                 PdeModel.QUANTUM_ZERO_T_TELEGRAPH, PotentialSpec.free(), p,
                 0.01, n_records=3)
    assert 0.0 < res.diagnostics["floored_fraction"] < 1.0


def _property_grid(boundary):
    return Grid1D(0.0, 2.0 * math.pi * 47 / 48, 48, boundary)


@settings(max_examples=30, deadline=None)
# a cell Peclet number h max|U_eff'| / 2 k_B T = 1.13 drove the centred
# explicit scheme to "density fell to -2.002e-03 at step 3 (t = 0.125)"
@example(amp=[0.0, 0.0, -2.0], phase=[0.0, 0.0, 1.0], mu=2.0, sigma2=1.0,
         model=PdeModel.SEMICLASSICAL_SMOLUCHOWSKI, boundary="periodic")
# once drew a ring mass drift of -2.215e-12 with 4 Newton failures; the
# implicit stepper now holds it to 1.1e-15 with none
@example(amp=[0.0, 0.0, -1.0], phase=[0.0, 0.0, 0.0], mu=2.0, sigma2=0.5,
         model=PdeModel.SEMICLASSICAL_SMOLUCHOWSKI, boundary="periodic")
@given(amp=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       phase=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3,
                      max_size=3),
       mu=st.floats(2.0, 4.3), sigma2=st.floats(0.5, 2.0),
       model=st.sampled_from([PdeModel.CLASSICAL_SMOLUCHOWSKI,
                              PdeModel.SEMICLASSICAL_SMOLUCHOWSKI,
                              PdeModel.QUANTUM_ZERO_T_SMOLUCHOWSKI]),
       boundary=st.sampled_from(["box", "periodic"]))
def test_evolve_conserves_mass_and_positivity(amp, phase, mu, sigma2, model,
                                              boundary):
    # the telegraph models are left out: they lose positivity in wells
    # (ROADMAP item 6)
    g = _property_grid(boundary)
    x = g.x
    u = sum(a * np.cos(k * x + ph)
            for k, (a, ph) in enumerate(zip(amp, phase), start=1))
    p = PhysicalParams.natural(friction=20.0,
                               temperature=0.0 if model.quantum else 1.0)
    res = evolve(DensityField.gaussian(g, mu, sigma2), model,
                 PotentialSpec.tabulated(u), p, 0.5, n_records=5)
    assert np.max(np.abs(res.mass - res.mass[0])) <= 1e-12
    assert res.diagnostics["min_density"] >= 0.0


@settings(max_examples=20, deadline=2000)
# the first rejects 35 steps and completes, the second aborts at the cap
@example(n=32, half_width=8.0, mu=0.0, sigma2=0.05, well=False,
         model=PdeModel.QUANTUM_ZERO_T_TELEGRAPH, boundary="box")
@example(n=33, half_width=5.5, mu=-1.0, sigma2=0.5, well=True,
         model=PdeModel.QUANTUM_ZERO_T_TELEGRAPH, boundary="box")
@given(n=st.integers(24, 48), half_width=st.floats(5.0, 8.0),
       mu=st.floats(-1.0, 1.0), sigma2=st.floats(0.02, 0.5),
       well=st.booleans(),
       model=st.sampled_from([m for m in PdeModel if m.inertial]),
       boundary=st.sampled_from(["box", "periodic"]))
def test_telegraph_evolve_conserves_mass(n, half_width, mu, sigma2, well,
                                         model, boundary):
    # mass only: a telegraph equation's own solution can go negative, so a
    # linear telegraph may abort on a negative density; the quantum one
    # restarts at half its step where a record fails, and aborts only once
    # the failure survives 3 halvings (on these grids about 1 in 13
    # quantum runs refines and 1 in 60 aborts)
    g = Grid1D(-half_width, half_width, n, boundary)
    p = PhysicalParams.natural(omega0=1.0 if well else 0.0,
                               temperature=0.0 if model.quantum else 1.0)
    U = PotentialSpec.harmonic(1.0) if well else PotentialSpec.free()
    try:
        res = evolve(DensityField.gaussian(g, mu, sigma2), model, U, p, 0.5,
                     n_records=5)
    except ConvergenceError as exc:
        assert ("survived refinement by 3 halvings" in str(exc)
                if model.quantum else str(exc).startswith("density fell to"))
        return
    assert np.max(np.abs(res.mass - res.mass[0])) <= 1e-12


def _telegraph_reference(rho, phi, grid, p, quantum, dt, n_steps):
    """n_steps of the documented explicit step from rest, with the face
    flux G written out: alpha_- rho_+ - alpha_+ rho, alpha_+ = (kT/h) B(h
    Phi' / kT) for T > 0; at T = 0 the drift upwinded and the Bohm term
    tapered off below 1e-6 of the peak.  With gamma = dt b/m, the leapfrog
    takes the half kick g = (1 - e^(-gamma/2)) div G / b from rest, then g
    <- e^-gamma g + (1 - e^-gamma) div G / b before each rho <- rho + dt
    g."""
    h, ring = grid.h, grid.boundary == "periodic"
    kT = p.k_B * p.temperature
    dphi = np.diff(np.append(phi, phi[0]) if ring else phi) / h
    if not quantum:
        z = h * dphi / kT
        with np.errstate(divide="ignore", invalid="ignore"):
            ap = kT / h * np.where(z == 0.0, 1.0, z / np.expm1(z))
    gamma = dt * p.friction / p.mass
    for i in range(n_steps):
        r = np.append(rho, rho[0]) if ring else rho
        if quantum:
            r_half = 0.5 * (r[1:] + r[:-1])
            taper = np.clip(r_half / (1e-5 * np.max(rho)) - 0.1, 0.0, 1.0)
            r_up = np.where(dphi < 0.0, r[:-1], r[1:])
            q = quantum_potential(DensityField(grid=grid, rho=rho), p)
            q = np.append(q, q[0]) if ring else q
            G = ((taper * r_half + (1.0 - taper) * r_up) * dphi
                 + r_half * taper * np.diff(q) / h)
        else:
            G = (ap + dphi) * r[1:] - ap * r[:-1]
        if ring:
            div = (G - np.roll(G, 1)) / h
        else:
            div = np.concatenate(([2.0 * G[0]], np.diff(G),
                                  [-2.0 * G[-1]])) / h
        if i == 0:
            g = (1.0 - math.exp(-0.5 * gamma)) * div / p.friction
        else:
            g = (math.exp(-gamma) * g
                 + (1.0 - math.exp(-gamma)) * div / p.friction)
        rho = rho + dt * g
    return rho


@pytest.mark.parametrize("boundary", ["box", "periodic"],
                         ids=["reflecting", "periodic"])  # a box reflects
@pytest.mark.parametrize("model", [m for m in PdeModel if m.inertial],
                         ids=lambda m: m.value)
def test_telegraph_interval_matches_the_documented_step(model, boundary):
    # one record interval of the buffered loop, whose flux carries the
    # step's factor, against the step as written, in a tilted cosine well
    # that is periodic on the ring
    g = Grid1D(-5.0, 5.0 - (10.0 / 80 if boundary == "periodic" else 0.0),
               80 if boundary == "periodic" else 81, boundary)
    p = PhysicalParams.natural(friction=2.0, temperature=(
        0.0 if model.quantum else 1.0))
    U = PotentialSpec.tabulated(0.5 * np.cos(2.0 * math.pi * g.x / 10.0))
    phi = (effective_potential(U, p.beta, p, g) if model.semiclassical
           else U.energy(g, p))
    rho0 = DensityField.gaussian(g, 0.5, 0.5)
    res = evolve(rho0, model, U, p, 0.2, n_records=2)
    assert res.diagnostics["rejected_steps"] == 0 and res.n_steps >= 5
    ref = _telegraph_reference(rho0.rho, phi, g, p, model.quantum,
                               res.diagnostics["dt_max"], res.n_steps)
    np.testing.assert_allclose(res.density.rho, np.maximum(ref, 0.0),
                               rtol=0, atol=1e-13 * np.max(ref))


@pytest.mark.parametrize("model", [PdeModel.CLASSICAL_TELEGRAPH,
                                   PdeModel.SEMICLASSICAL_TELEGRAPH],
                         ids=lambda m: m.value)
def test_linear_telegraph_steps_where_e_to_the_gamma_overflows(model):
    # b = 1e5 makes gamma = dt b/m = 8333 (12 steps per record), past the
    # float range of e^gamma; the run is the overdamped limit, free
    # spreading by 2D (t - tau (1 - e^(-t/tau))), D = kT/b, tau = m/b,
    # less the lag 2D tau, which a step of 8333 tau does not resolve (1e-5
    # of the spread at t = 1)
    g = Grid1D(-4.0, 4.0, 81)
    p = PhysicalParams.natural(friction=1e5)
    res = evolve(DensityField.gaussian(g, 0.0, 0.25), model,
                 PotentialSpec.free(), p, 10.0, n_records=11)
    D, tau = 1.0 / p.friction, p.mass / p.friction
    t = res.times
    np.testing.assert_allclose(res.sigma2 - res.sigma2[0],
                               2.0 * D * (t - tau * -np.expm1(-t / tau)),
                               rtol=2e-5, atol=0.0)


def _bohm_flux_reference(rho, dphi, h, ring, p, k):
    """k [(r_up + taper (rho_f - r_up)) dPhi/dx + taper rho_f dQ/dx] face
    by face, as the docstring of pde._flux writes it."""
    n = rho.size
    peak = max(rho)
    a = [math.sqrt(max(r, 1e-12 * peak)) for r in rho]

    def curvature(i):                       # a'' h^2
        if ring or 0 < i < n - 1:
            return a[(i + 1) % n] - 2.0 * a[i] + a[i - 1]
        s = 1 if i == 0 else -1
        return 2.0 * a[i] - 5.0 * a[i + s] + 4.0 * a[i + 2 * s] - a[i + 3 * s]

    q = [-p.hbar ** 2 * curvature(i) / h ** 2 / (2.0 * p.mass * a[i])
         for i in range(n)]
    flux = []
    for i in range(n if ring else n - 1):
        j = (i + 1) % n
        rho_f = 0.5 * (rho[i] + rho[j])
        r_up = rho[i] if dphi[i] < 0.0 else rho[j]
        taper = min(max(rho_f / (1e-5 * peak) - 0.1, 0.0), 1.0)
        flux.append(k * ((r_up + taper * (rho_f - r_up)) * dphi[i]
                         + taper * rho_f * (q[j] - q[i]) / h))
    return np.array(flux)


@pytest.mark.parametrize("boundary", ["box", "periodic"],
                         ids=["reflecting", "periodic"])  # a box reflects
@pytest.mark.parametrize("potential", [
    PotentialSpec.linear(0.5), PotentialSpec.linear(-0.5),
    PotentialSpec.harmonic(1.0)], ids=["pull", "push", "harmonic"])
def test_bohm_flux_matches_its_formula(potential, boundary):
    # random positive densities whose tails fall below the 1e-12 floor of
    # the Bohm potential and the 1e-6 start of its taper; dPhi/dx of one
    # sign (either, on a box: a ring's wrap face reverses a tilt's) and of
    # both signs
    ring = boundary == "periodic"
    rng = np.random.default_rng(7)
    g = Grid1D(-6.0, 6.0 - (12.0 / 96 if ring else 0.0), 96 if ring else 97,
               boundary)
    p = PhysicalParams.natural(omega0=1.0, temperature=0.0)
    phi = potential.energy(g, p)
    dphi = np.diff(np.append(phi, phi[0]) if ring else phi) / g.h
    for _ in range(5):
        sigma2 = rng.uniform(0.3, 1.5)
        rho = (np.exp(-(g.x - rng.uniform(-1.0, 1.0)) ** 2 / (2.0 * sigma2))
               * rng.uniform(0.5, 1.5, g.n))
        rho = np.maximum(rho, 1e-40)
        k = rng.uniform(1e-4, 1e-2)
        out = np.empty(dphi.size)
        pde._flux(dphi, g, p, k)(
            np.append(rho, rho[0]) if ring else rho, out)
        ref = _bohm_flux_reference(rho, dphi, g.h, ring, p, k)
        np.testing.assert_allclose(out, ref, rtol=0,
                                   atol=1e-13 * np.max(np.abs(ref)))


def test_quantum_smoluchowski_stays_positive_at_its_step_bound():
    # on this coarse grid an explicit Euler step at the biharmonic bound
    # dt = h^4 m b / 4 hbar^2 drives the density to -2.6e-3
    g = Grid1D(-4.0, 4.0, 48)
    p = PhysicalParams.natural(friction=20.0, temperature=0.0)
    res = evolve(DensityField.gaussian(g, 0.5, 0.5),
                 PdeModel.QUANTUM_ZERO_T_SMOLUCHOWSKI, PotentialSpec.free(),
                 p, 0.5, n_records=5)
    assert np.max(np.abs(res.mass - res.mass[0])) <= 1e-12
    assert res.diagnostics["min_density"] >= 0.0


def test_quantum_smoluchowski_takes_steps_beyond_the_explicit_bound(caplog):
    # the implicit stepper's steps have no bound: they grow past 100x the
    # explicit biharmonic bound h^4 m b / 4 hbar^2 and still land on every
    # record time
    g = Grid1D(-4.0, 4.0, 81)
    p = PhysicalParams.natural(friction=20.0, temperature=0.0)
    bound = g.h ** 4 * p.mass * p.friction / (4.0 * p.hbar ** 2)
    with caplog.at_level(logging.DEBUG, logger="qbrown.pde"):
        res = evolve(DensityField.gaussian(g, 0.0, 0.5),
                     PdeModel.QUANTUM_ZERO_T_SMOLUCHOWSKI,
                     PotentialSpec.free(), p, 1.0, n_records=5)
    d = res.diagnostics
    assert (f"evolve quantum-zero-T-smoluchowski: {res.n_steps} steps"
            in caplog.text)
    assert 100.0 * bound < d["dt_max"] <= 0.25 + 1e-15
    assert res.n_steps >= 4
    assert d["newton_iterations"] >= res.n_steps
    np.testing.assert_allclose(res.times, [0.0, 0.25, 0.5, 0.75, 1.0],
                               rtol=0, atol=0)


# ---------------------------------------------------------------------------
# the step matrices of the implicit stepper: L for T > 0, the Newton system
# in ln rho for the zero-T Bohm term


def _log_density_rate(kT, c, boundary, n=32):
    """_LogDensityRate on a tilted cosine potential, with a smooth ln rho,
    and the potential's face slopes dPhi/dx."""
    if boundary == "periodic":
        g = Grid1D(0.0, 2.0 * math.pi * (n - 1) / n, n, boundary)
    else:
        g = Grid1D(0.0, 2.0 * math.pi, n)
    phi = np.cos(g.x) - 0.5 * np.sin(2.0 * g.x)
    if boundary == "periodic":
        phi = np.append(phi, phi[0])
    dphi = np.diff(phi) / g.h
    rate_of = _LogDensityRate(dphi, kT, c, g)
    y = np.cos(g.x) + np.log1p(0.3 * np.sin(3.0 * g.x))
    return rate_of, y, dphi


def _fitted_divergence(dphi, kT, g):
    """The dense matrix of rho -> (G_f - G_(f-1)) / w at each node, w the
    cell widths and G_f = alpha_- rho_(f+1) - alpha_+ rho_f the fitted flux
    through face f, alpha_+ = (kT/h) B(h dPhi/dx / kT), alpha_- = alpha_+ +
    dPhi/dx, assembled face by face from that formula; a ring's face n - 1
    joins node n - 1 to node 0."""
    z = g.h * dphi / kT
    ap = kT / g.h * z / np.expm1(z)
    am, w, n = ap + dphi, g.weights, g.n
    dense = np.zeros((n, n))
    for f in range(dphi.size):
        i, j = f, (f + 1) % n
        dense[i, j] += am[f] / w[i]
        dense[i, i] -= ap[f] / w[i]
        dense[j, i] += ap[f] / w[j]
        dense[j, j] -= am[f] / w[j]
    return dense


def _dense(rate_of, ab):
    """The n x n matrix that LAPACK reads from the band storage ab: entry
    (i, j) at row off + p_i - p_j, column p_j, for |p_i - p_j| <= b, with b
    the band's half-width, off = rows - 1 - b (gbsv keeps b rows for its
    fill-in above the band, gtsv none) and p_i the position of node i in
    the solve order (node order on a box)."""
    n, b = ab.shape[1], rate_of.bands
    pos = np.arange(n) if rate_of._pos is None else rate_of._pos
    off = ab.shape[0] - 1 - b
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if abs(pos[i] - pos[j]) <= b:
                a[i, j] = ab[off + pos[i] - pos[j], pos[j]]
    return a


# c = 0 with kT > 0 (the fitted flux) and c > 0 with kT = 0 (the Bohm term)
_newton_cases = pytest.mark.parametrize("kT, c, boundary", [
    (1.0, 0.0, "box"), (1.0, 0.0, "periodic"),
    (0.0, 0.25, "box"), (0.0, 0.25, "periodic"),
], ids=["kT-box", "kT-ring", "c-box", "c-ring"])


@_newton_cases
def test_log_density_jacobian_matches_central_differences(kT, c, boundary):
    rate_of, y, dphi = _log_density_rate(kT, c, boundary)
    if not c:
        # T > 0: div G is linear in rho, and its matrix is L itself, which
        # the stepper assembles once; its columns sum to zero under the
        # quadrature, so a solve keeps the mass
        dense = _fitted_divergence(dphi, kT, rate_of.grid)
        scale = np.max(np.abs(dense))
        np.testing.assert_allclose(_dense(rate_of, rate_of.generator), dense,
                                   rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(rate_of.grid.weights @ dense, 0.0,
                                   rtol=0, atol=1e-14 * scale * rate_of.grid.h)
        return
    jac = _dense(rate_of, rate_of.rate_and_jacobian(y)[1])
    eps = 1e-6
    fd = np.empty_like(jac)
    for j in range(y.size):
        step = np.zeros_like(y)
        step[j] = eps
        fd[:, j] = (rate_of.rate_and_jacobian(y + step)[0]
                    - rate_of.rate_and_jacobian(y - step)[0]) / (2.0 * eps)
    np.testing.assert_allclose(jac, fd, rtol=0,
                               atol=1e-6 * np.max(np.abs(jac)))


@_newton_cases
def test_log_density_solve_matches_a_dense_solve(kT, c, boundary):
    # T > 0: the BDF2 matrix a0 - k L, against the fitted flux's divergence
    # assembled densely; zero-T: the Newton matrix 1 - k J of a backward
    # Euler step.  On a ring the corner entries couple the first and last
    # nodes
    rate_of, y, dphi = _log_density_rate(kT, c, boundary)
    if c:
        ab = -1e-2 * rate_of.rate_and_jacobian(y)[1]
        ab[rate_of.diagonal] += 1.0
        a = _dense(rate_of, ab)
    else:
        a0, k = 1.5, 0.3
        ab = -k * rate_of.generator
        ab[rate_of.diagonal] += a0
        a = a0 * np.eye(y.size) - k * _fitted_divergence(dphi, kT,
                                                         rate_of.grid)
    if boundary == "periodic":
        assert a[0, -1] != 0.0 and a[-1, 0] != 0.0
    rhs = np.sin(np.arange(y.size) + 0.5)
    np.testing.assert_allclose(rate_of.solve(ab, rhs),
                               np.linalg.solve(a, rhs), rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(rhs)))


@pytest.mark.parametrize("c", [0.0, 0.25], ids=["c-zero", "c-positive"])
def test_ring_band_holds_every_stencil_neighbour(c):
    # the ring's solve order 0, n-1, 1, n-2, ... puts each node's stencil
    # neighbours i +- d, d <= half (1 for c = 0, 2 for c > 0), the wrap
    # included, at most 2 half positions from it, the band's half-width
    half = 2 if c else 1
    for n in range(16, 402):
        g = Grid1D(0.0, n - 1.0, n, "periodic")
        rate_of = _LogDensityRate(np.zeros(n), 1.0, c, g)
        pos = rate_of._pos
        reach = max(int(np.max(np.abs(pos - np.roll(pos, -d))))
                    for d in range(1, half + 1))
        assert reach == rate_of.bands == 2 * half, n


def _spoiled(kind, r):
    r = r.copy()
    if kind == "nan":           # a NaN node in a state that lost its mass
        r[:] = 0.0
        r[3] = np.nan
    elif kind == "huge":        # finite, but the ends cancel in the sum
        r[:] = 1e200
        r[0], r[-1] = -1e306, 1e306
    else:                       # a dip below zero that keeps the mass
        r[1] -= 1e-3
        r[-2] += 1e-3
    return r


@pytest.mark.parametrize("kind, message", [
    ("nan", r"density not finite at step 0 \(t = 1\)"),
    ("huge", r"mass drift -1\.000e\+00 at step 0 \(t = 1\)"),
    ("dip", r"density fell to -6\.474e-04 at step 0 \(t = 1\)")])
def test_record_checks_come_before_the_moments(monkeypatch, kind, message):
    # a state that reaches a record is checked, finiteness first, before
    # its moments divide by the mass: the trapezoid mass of the huge state
    # is 0, which _moments divides by
    g = Grid1D(-4.0, 4.0, 33)
    rho0 = DensityField.gaussian(g, 0.0, 1.0)
    if kind == "huge":
        with pytest.raises(ZeroDivisionError):
            _moments(*(_moment_weights(g) @ _spoiled(kind, rho0.rho)).tolist())
    monkeypatch.setattr(
        pde, "_step_log_density",
        lambda rho, *args: iter([_spoiled(kind, rho)]))
    with pytest.raises(ConvergenceError, match=message):
        evolve(rho0, PdeModel.CLASSICAL_SMOLUCHOWSKI, PotentialSpec.free(),
               NAT, 1.0, n_records=2)


def test_quantum_telegraph_blow_up_is_not_a_result():
    # the ground state sigma^2 = hbar / 2 m omega0 of this well; the
    # tapered explicit step loses positivity by t = 0.5 at every step down
    # to 1/8 of the first one, so the run aborts at the record, naming
    # the refinement it survived.  At 4,001 records a first-order step and
    # the leapfrog both abort at t = 0.35825 near -5.76e-10: the breakdown
    # is the tapered system's, not the step's
    g = Grid1D(-6.0, 6.0, 121)
    p = PhysicalParams.natural(omega0=1.0, temperature=0.0)
    with pytest.raises(ConvergenceError, match=(
            r"density fell to -1\.237e-07 at step 448 \(t = 0\.5\); it "
            r"survived refinement by 3 halvings of the step, to "
            r"dt = 1\.116e-03")):
        evolve(DensityField.gaussian(g, 0.0, 0.5),
               PdeModel.QUANTUM_ZERO_T_TELEGRAPH, PotentialSpec.harmonic(1.0),
               p, 1.0, n_records=5)


def test_quantum_telegraph_refines_a_failing_interval():
    # at the first step, 0.25 h sqrt(m / scale), this narrow start breaks
    # down in the second record interval; the run restarts from t = 0 at
    # half the step.  n_steps counts the kept run's steps (4 * 92),
    # rejected_steps the discarded run's (2 * 46).  The leapfrog is second
    # order: sigma^2 agrees with a run at 1/16 of the first step to 1.7e-6
    g = Grid1D(-8.0, 8.0, 161)
    p = PhysicalParams.natural(temperature=0.0)
    rho0 = DensityField.gaussian(g, 0.0, 0.04)
    res = evolve(rho0, PdeModel.QUANTUM_ZERO_T_TELEGRAPH,
                 PotentialSpec.free(), p, 0.5, n_records=5)
    d = res.diagnostics
    assert (res.n_steps, d["rejected_steps"]) == (368, 92)
    assert d["dt_min"] == d["dt_max"]
    # one step per record interval, 16 per interval of the first step
    ref = evolve(rho0, PdeModel.QUANTUM_ZERO_T_TELEGRAPH,
                 PotentialSpec.free(), p, 0.5, n_records=4 * 46 * 16 + 1)
    assert ref.n_steps == 4 * 46 * 16
    assert np.max(np.abs(res.sigma2 - ref.sigma2[::46 * 16])) <= 1e-5


def test_quantum_telegraph_error_is_second_order_in_the_step():
    # criterion 11's quick quantum set-up to t = 0.5, one step per record,
    # against a run at 1/32 of the coarsest step: the leapfrog's error
    # falls 4.0x per halving (2.1x for a first-order step)
    g = Grid1D(-4.0, 5.0, 121)
    p = PhysicalParams.natural(force=0.5, friction=20.0, temperature=0.0)
    rho0 = DensityField.gaussian(g, 0.0, 0.25)
    finals = []
    for n_steps in (104, 208, 416, 3328):
        res = evolve(rho0, PdeModel.QUANTUM_ZERO_T_TELEGRAPH,
                     PotentialSpec.linear(0.5), p, 0.5,
                     n_records=n_steps + 1)
        assert (res.n_steps, res.diagnostics["rejected_steps"]) == (
            n_steps, 0)
        finals.append(res.density.rho)
    errs = [np.max(np.abs(rho - finals[-1])) for rho in finals[:-1]]
    assert errs[0] >= 3.5 * errs[1] and errs[1] >= 3.5 * errs[2]


@pytest.fixture(scope="module")
def default_box_reference():
    """The narrow default-box start at one step of 2.5e-3 / 16 per record
    interval, to t = 1."""
    ref = evolve(DensityField.gaussian(Grid1D(-8.0, 8.0, 161), 0.0, 0.04),
                 PdeModel.QUANTUM_ZERO_T_TELEGRAPH, PotentialSpec.free(),
                 PhysicalParams.natural(temperature=0.0), 1.0,
                 n_records=6401)
    assert ref.n_steps == 6400
    return ref


@pytest.mark.parametrize("n_records", [5, 11, 101, 401])
def test_quantum_telegraph_answer_does_not_hinge_on_the_record_grid(
        n_records, default_box_reference):
    # the narrow start of the CLI's default box, which breaks down at the
    # first step: each record grid restarts the whole run at a halved step
    # until it holds, so none restarts from a state that coarser steps
    # spoiled.  The final sigma^2 of the four grids spread by 2.0e-6; each
    # lies within 6.7e-6 of a run at 1/64 of the first step, 2.5e-3, and
    # its records within 6.8e-6 of the fixture's at 1/16
    g = Grid1D(-8.0, 8.0, 161)
    p = PhysicalParams.natural(temperature=0.0)
    rho0 = DensityField.gaussian(g, 0.0, 0.04)
    res = evolve(rho0, PdeModel.QUANTUM_ZERO_T_TELEGRAPH,
                 PotentialSpec.free(), p, 1.0, n_records=n_records)
    assert res.diagnostics["dt_min"] == res.diagnostics["dt_max"]
    assert abs(res.sigma2[-1] - 1.3911816) <= 1e-5
    stride = 6400 // (n_records - 1)
    assert (np.max(np.abs(res.sigma2 - default_box_reference.sigma2[::stride]))
            <= 2e-5)


@pytest.mark.parametrize("model", [m for m in PdeModel if not m.quantum],
                         ids=lambda m: m.value)
def test_detailed_balance_stationarity(model):
    # rho proportional to exp(-Phi / k_B T) at the nodes (Phi = U, or the
    # semiclassical effective potential) is a fixed point of the
    # exponentially fitted flux that all four T > 0 models share, and a
    # telegraph run starts at rest: it must hold to round-off, not only in
    # its moments
    from qbrown import semiclassical_density
    p = PhysicalParams.natural(omega0=1.0, temperature=1.0)
    g = Grid1D(-6.0, 6.0, 201)
    U = PotentialSpec.harmonic(1.0)
    if model.semiclassical:
        rho_eq = semiclassical_density(U, p, 1.0, g)
    else:
        rho_eq = DensityField(grid=g, rho=np.exp(-U.energy(g, p)))
    m0 = moments(rho_eq)
    res = evolve(rho_eq, model, U, p, t_final=8.0, n_records=5)
    m1 = moments(res.density)
    assert abs(m1.dispersion - m0.dispersion) / m0.dispersion <= 1e-3
    assert abs(m1.mean - m0.mean) <= 1e-3
    assert (np.max(np.abs(res.density.rho - rho_eq.rho))
            <= 1e-12 * np.max(rho_eq.rho))


@pytest.mark.parametrize("boundary", ["box", "periodic"])
@pytest.mark.parametrize("model", [PdeModel.CLASSICAL_SMOLUCHOWSKI,
                                   PdeModel.SEMICLASSICAL_SMOLUCHOWSKI],
                         ids=lambda m: m.value)
def test_fitted_boltzmann_density_is_a_fixed_point_of_the_step(model,
                                                               boundary):
    # the discrete Boltzmann density exp(-Phi / k_B T) of a tilted cosine
    # potential zeroes the fitted flux through every face, a ring's seam
    # included, so L rho = 0 and each BDF2 solve returns it: a wrong column
    # sum or kernel of L would move it
    kT = 0.7
    p = PhysicalParams.natural(temperature=kT)
    g = _property_grid(boundary)
    U = PotentialSpec.tabulated(np.cos(g.x) - 0.3 * g.x)
    phi = (effective_potential(U, p.beta, p, g) if model.semiclassical
           else U.energy(g, p))
    rho0 = DensityField(grid=g, rho=np.exp(-(phi - phi.min()) / kT))
    res = evolve(rho0, model, U, p, 4.0, n_records=5)
    assert res.n_steps >= 4
    assert (np.max(np.abs(res.density.rho - rho0.rho))
            <= 1e-12 * np.max(rho0.rho))


@pytest.mark.parametrize("temperature, max_rejected", [(0.02, 0), (0.05, 5)])
def test_cold_relaxation_steps_where_the_tails_underflow(temperature,
                                                         max_rejected):
    # a narrow start at mu0 = 2 in a harmonic well at low T, whose far
    # tails underflow as it relaxes: the T > 0 step is linear in rho, so
    # the tails cost it nothing, and sigma^2 reaches k_B T / m omega0^2
    p = PhysicalParams.natural(temperature=temperature, omega0=1.0)
    rho0 = DensityField.gaussian(Grid1D(-8.0, 8.0, 161), 2.0, 0.05)
    res = evolve(rho0, PdeModel.CLASSICAL_SMOLUCHOWSKI,
                 PotentialSpec.harmonic(1.0), p, 8.0, n_records=21)
    assert res.diagnostics["rejected_steps"] <= max_rejected
    assert res.diagnostics["newton_iterations"] == 0
    assert res.sigma2[-1] == pytest.approx(temperature, rel=1e-3)


def test_evolve_guards():
    g = Grid1D(-4.0, 4.0, 101)
    rho0 = DensityField.gaussian(g, 0.0, 0.5)
    with pytest.raises(ValueError):
        evolve(rho0, PdeModel.QUANTUM_ZERO_T_SMOLUCHOWSKI,
               PotentialSpec.free(), NAT, 1.0)  # T != 0
    cold = PhysicalParams.natural(temperature=0.0)
    with pytest.raises(ValueError):
        evolve(rho0, PdeModel.CLASSICAL_SMOLUCHOWSKI, PotentialSpec.free(),
               cold, 1.0)


_BOX = Grid1D(-4.0, 4.0, 33)


def _evolve_free(p=NAT, t_final=1.0, n_records=5):
    return evolve(DensityField.uniform(_BOX), PdeModel.CLASSICAL_SMOLUCHOWSKI,
                  PotentialSpec.free(), p, t_final, n_records=n_records)


@pytest.mark.parametrize("build, match", [
    (lambda: DensityField.gaussian(_BOX, 0.0, 0.0), "sigma2 must be positive"),
    (lambda: DensityField.gaussian(_BOX, 0.0, -1.0),
     "sigma2 must be positive"),
    (lambda: PotentialSpec.tabulated(np.zeros(32)).energy(_BOX, NAT),
     "tabulated potential length must match the grid"),
    (lambda: effective_potential(PotentialSpec.free(), 0.0, NAT, _BOX),
     "beta must be positive"),
    (lambda: effective_potential(PotentialSpec.free(), -1.0, NAT, _BOX),
     "beta must be positive"),
    (lambda: _evolve_free(PhysicalParams.natural(friction=0.0)),
     "evolution requires friction b > 0"),
    (lambda: _evolve_free(t_final=0.0), "t_final must be positive"),
    (lambda: _evolve_free(n_records=1), "n_records must be at least 2"),
    (lambda: pde.record_times(-1.0, 5), "t_final must be positive"),
    (lambda: pde.record_times(1.0, 0), "n_records must be at least 2"),
], ids=["gaussian-zero-sigma2", "gaussian-negative-sigma2",
        "tabulated-length", "effective-potential-zero-beta",
        "effective-potential-negative-beta", "evolve-no-friction",
        "evolve-zero-t-final", "evolve-one-record",
        "record-times-negative-t-final", "record-times-no-records"])
def test_density_layer_refusals(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_translation_invariance():
    # shifting the initial condition shifts the solution exactly
    g1 = Grid1D(-8.0, 8.0, 401)
    g2 = Grid1D(-7.0, 9.0, 401)
    r1 = evolve(DensityField.gaussian(g1, 0.0, 0.5),
                PdeModel.CLASSICAL_SMOLUCHOWSKI, PotentialSpec.free(), NAT,
                1.0, n_records=3)
    r2 = evolve(DensityField.gaussian(g2, 1.0, 0.5),
                PdeModel.CLASSICAL_SMOLUCHOWSKI, PotentialSpec.free(), NAT,
                1.0, n_records=3)
    np.testing.assert_allclose(r2.density.rho, r1.density.rho, atol=1e-12)
    assert r2.mu[-1] - r1.mu[-1] == pytest.approx(1.0, abs=1e-10)
