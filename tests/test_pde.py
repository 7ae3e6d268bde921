import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbrown import (ConvergenceError, DensityField, Grid1D, PdeModel,
                    PhysicalParams, PotentialSpec, derived_scales,
                    effective_potential, evolve, moments, quantum_potential)
from qbrown.pde import _LogDensityRate

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


def _params_for(model):
    """NAT, at T = 0 for the quantum models."""
    return PhysicalParams.natural(temperature=0.0) if model.quantum else NAT


@pytest.mark.parametrize("model", PdeModel, ids=lambda m: m.value)
def test_periodic_uniform_is_stationary(model):
    g = Grid1D(0.0, 2.0 * math.pi, 65)
    res = evolve(DensityField.uniform(g), model, PotentialSpec.free(),
                 _params_for(model), 1.0, boundary="periodic", n_records=5)
    np.testing.assert_allclose(res.density.rho, 1.0 / (2.0 * math.pi),
                               atol=1e-13)


@pytest.mark.parametrize("model", PdeModel, ids=lambda m: m.value)
def test_periodic_ring_conserves_mass_across_the_seam(model):
    # a ring of 64 nodes: node 63 neighbours node 0, so every node
    # carries full weight in the conserved mass
    g = Grid1D(0.0, 2.0 * math.pi * 63 / 64, 64)
    rho0 = DensityField(grid=g, rho=1.0 + 0.5 * np.cos(g.x))
    res = evolve(rho0, model, PotentialSpec.free(), _params_for(model), 1.0,
                 boundary="periodic", n_records=5)
    assert np.max(np.abs(res.mass - res.mass[0])) <= 1e-14
    assert res.diagnostics["min_density"] >= 0.0


@pytest.mark.parametrize("n_records", [21, 101])
def test_records_n_rows_ending_at_t_final(n_records):
    # on this 32-node ring the classical telegraph stability bound alone
    # gives fewer steps than the 100 record intervals
    g = Grid1D(0.0, 2.0 * math.pi * 31 / 32, 32)
    rho0 = DensityField(grid=g, rho=1.0 + 0.5 * np.cos(g.x))
    n = n_records
    for model in PdeModel:
        res = evolve(rho0, model, PotentialSpec.free(), _params_for(model),
                     1.0, boundary="periodic", n_records=n)
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


_PROPERTY_GRID = Grid1D(0.0, 2.0 * math.pi * 47 / 48, 48)


@settings(max_examples=30, deadline=None)
# a cell Peclet number h max|U_eff'| / 2 k_B T = 1.13 drove the centred
# explicit scheme to "density fell to -2.002e-03 at step 3 (t = 0.125)"
@example(amp=[0.0, 0.0, -2.0], phase=[0.0, 0.0, 1.0], mu=2.0, sigma2=1.0,
         model=PdeModel.SEMICLASSICAL_SMOLUCHOWSKI, boundary="periodic")
@given(amp=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       phase=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3,
                      max_size=3),
       mu=st.floats(2.0, 4.3), sigma2=st.floats(0.5, 2.0),
       model=st.sampled_from([PdeModel.CLASSICAL_SMOLUCHOWSKI,
                              PdeModel.SEMICLASSICAL_SMOLUCHOWSKI,
                              PdeModel.QUANTUM_ZERO_T_SMOLUCHOWSKI]),
       boundary=st.sampled_from(["reflecting", "periodic"]))
def test_evolve_conserves_mass_and_positivity(amp, phase, mu, sigma2, model,
                                              boundary):
    # the telegraph models are left out: they lose positivity in wells
    # (ROADMAP item 6)
    x = _PROPERTY_GRID.x
    u = sum(a * np.cos(k * x + ph)
            for k, (a, ph) in enumerate(zip(amp, phase), start=1))
    p = PhysicalParams.natural(friction=20.0,
                               temperature=0.0 if model.quantum else 1.0)
    res = evolve(DensityField.gaussian(_PROPERTY_GRID, mu, sigma2), model,
                 PotentialSpec.tabulated(u), p, 0.5, boundary=boundary,
                 n_records=5)
    assert np.max(np.abs(res.mass - res.mass[0])) <= 1e-12
    assert res.diagnostics["min_density"] >= 0.0


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
# the Newton system of the implicit ln rho stepper


def _log_density_rate(kT, c, boundary, n=32):
    """_LogDensityRate on a tilted cosine potential, with a smooth ln rho."""
    if boundary == "periodic":
        g = Grid1D(0.0, 2.0 * math.pi * (n - 1) / n, n)
    else:
        g = Grid1D(0.0, 2.0 * math.pi, n)
    phi = np.cos(g.x) - 0.5 * np.sin(2.0 * g.x)
    if boundary == "periodic":
        phi = np.append(phi, phi[0])
    rate_of = _LogDensityRate(np.diff(phi) / g.h, kT, c, g.h, boundary, n)
    y = np.cos(g.x) + np.log1p(0.3 * np.sin(3.0 * g.x))
    return rate_of, y


def _dense(diagonals, boundary):
    """The n x n matrix whose row i holds diagonals[d + 2, i] at column
    i + d, d = -2..2; a ring wraps the columns, a box drops them."""
    n = diagonals.shape[1]
    a = np.zeros((n, n))
    for d, row in zip(range(-2, 3), diagonals):
        for i in range(n):
            j = i + d
            if boundary == "periodic":
                a[i, j % n] = row[i]
            elif 0 <= j < n:
                a[i, j] = row[i]
    return a


# c = 0 with kT > 0 (the fitted flux) and c > 0 with kT = 0 (the Bohm term)
_newton_cases = pytest.mark.parametrize("kT, c, boundary", [
    (1.0, 0.0, "reflecting"), (1.0, 0.0, "periodic"),
    (0.0, 0.25, "reflecting"), (0.0, 0.25, "periodic"),
], ids=["kT-box", "kT-ring", "c-box", "c-ring"])


@_newton_cases
def test_log_density_jacobian_matches_central_differences(kT, c, boundary):
    rate_of, y = _log_density_rate(kT, c, boundary)
    jac = _dense(rate_of.rate_and_jacobian(y)[1], boundary)
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
    # the Newton matrix 1 - k J of a backward Euler step; on a ring its
    # corner entries couple the first and last nodes
    rate_of, y = _log_density_rate(kT, c, boundary)
    diagonals = -1e-2 * rate_of.rate_and_jacobian(y)[1]
    diagonals[2] += 1.0
    a = _dense(diagonals, boundary)
    if boundary == "periodic":
        assert a[0, -1] != 0.0 and a[-1, 0] != 0.0
    rhs = np.sin(np.arange(y.size) + 0.5)
    np.testing.assert_allclose(rate_of.solve(diagonals, rhs),
                               np.linalg.solve(a, rhs), rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(rhs)))


def test_quantum_telegraph_blow_up_is_not_a_result():
    # the explicit quantum telegraph step breaks down on this grid and
    # overflows to NaN before step 200; the first record after the
    # breakdown must abort, not be returned.  With one record interval the
    # density is NaN by then, and finiteness is checked before mass.
    g = Grid1D(-8.0, 8.0, 161)
    p = PhysicalParams.natural(temperature=0.0)
    for n_records, message in [
            (5, r"mass drift -5\.974e-03 at step 100 \(t = 0\.25\)"),
            (2, r"density not finite at step 200 \(t = 0\.5\)")]:
        with (pytest.raises(ConvergenceError, match=message),
              np.errstate(over="ignore", invalid="ignore")):
            evolve(DensityField.gaussian(g, 0.0, 0.04),
                   PdeModel.QUANTUM_ZERO_T_TELEGRAPH, PotentialSpec.free(),
                   p, 0.5, n_records=n_records)


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
    with pytest.raises(ValueError):
        evolve(rho0, PdeModel.CLASSICAL_SMOLUCHOWSKI, PotentialSpec.free(),
               NAT, 1.0, boundary="absorbing")


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
